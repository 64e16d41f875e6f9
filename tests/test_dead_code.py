"""``src/`` keeps only what runs, and no module imports what it never uses.

Two checks over the syntax trees of the repository's own files, read with
the standard-library ``ast`` module (nothing is imported or run):

* **Unused imports.** A name that a module imports must be loaded by that
  module or listed in its ``__all__``.  Checked in every non-``__init__``
  module under ``src/``, ``tests/``, ``benchmarks/`` and ``examples/``;
  ``__init__`` modules exist to re-export, and ``from __future__`` imports
  are directives.
* **Orphans.** A top-level function or class in ``src/`` must be referenced
  by some module under ``src/``, ``benchmarks/``, ``e2e_bench/`` or
  ``examples/``, not counting its own definition (recursion is not a
  caller) and ``__init__`` re-exports.  A test is not a caller: a name only
  tests reach is either an oracle, which belongs in ``tests/`` (see
  ``oracles.py`` and ``gradcheck.py``), or dead.  A definition under a
  registration decorator (``@register_index``,
  ``@register_whitening("pca")``) is reached through its registry by key,
  so it is live.

``e2e_bench/`` is read as a caller but is not itself checked: only a change
to the benchmark may edit it.
"""

from __future__ import annotations

import ast
import textwrap
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``(module path, names) -> reason``: findings that are known and kept.
#: Each reason must say why the name stays and what would let it go.
ALLOWED: Dict[Tuple[str, Tuple[str, ...]], str] = {
    ("src/repro/experiments/persistence.py",
     ("load_checkpoint", "save_checkpoint")):
        "re-exported for e2e_bench/ladder.py, which imports them from here; "
        "ROADMAP 8(d) moves that import to repro.models.checkpoint in the "
        "next benchmark change, and this entry goes with it",
}


def _modules(root: Path, directories: Tuple[str, ...]
             ) -> Iterator[Tuple[str, ast.Module]]:
    for directory in directories:
        for path in sorted((root / directory).rglob("*.py")):
            relative = path.relative_to(root).as_posix()
            yield relative, ast.parse(path.read_text(encoding="utf-8"),
                                      filename=relative)


def _is_init(relative: str) -> bool:
    return relative.endswith("/__init__.py")


def _dunder_all(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)
                and isinstance(node.value, (ast.List, ast.Tuple))):
            names.update(element.value for element in node.value.elts
                         if isinstance(element, ast.Constant))
    return names


def _referenced(node: ast.AST) -> Set[str]:
    """Every identifier ``node`` reads, bare or as an attribute, or imports
    by name."""
    names: Set[str] = set()
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and not isinstance(child.ctx, ast.Store):
            names.add(child.id)
        elif isinstance(child, ast.Attribute):
            names.add(child.attr)
        elif isinstance(child, ast.ImportFrom):
            names.update(alias.name for alias in child.names)
    return names


def unused_imports(*directories: str, root: Path = REPO_ROOT
                   ) -> List[Tuple[str, int, str]]:
    """``(module, line, name)`` for each imported name its module never
    loads and does not list in ``__all__``."""
    found = []
    for relative, tree in _modules(root, directories):
        if _is_init(relative):
            continue
        loaded = {node.id for node in ast.walk(tree)
                  if isinstance(node, ast.Name)
                  and isinstance(node.ctx, ast.Load)}
        loaded |= _dunder_all(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in loaded:
                    found.append((relative, node.lineno, bound))
    return found


def _registered(node: ast.AST) -> bool:
    for decorator in getattr(node, "decorator_list", ()):
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        name = getattr(target, "id", None) or getattr(target, "attr", "")
        if name.startswith("register"):
            return True
    return False


def orphans(root: Path = REPO_ROOT) -> List[Tuple[str, int, str]]:
    """``(module, line, name)`` for each top-level ``src/`` function or
    class that no caller directory references."""
    definitions = []
    references: Set[str] = set()
    for relative, tree in _modules(root, ("src", "benchmarks", "e2e_bench",
                                          "examples")):
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and _is_init(relative):
                continue  # a re-export is not a caller
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                if relative.startswith("src/") and not _registered(node):
                    definitions.append((relative, node.lineno, node.name))
                references |= _referenced(node) - {node.name}
            else:
                references |= _referenced(node)
    return [definition for definition in definitions
            if definition[2] not in references]


def _allowed(finding: Tuple[str, int, str]) -> bool:
    relative, _, name = finding
    return any(relative == path and name in names for path, names in ALLOWED)


def _report(findings: List[Tuple[str, int, str]]) -> str:
    return "\n".join(f"{relative}:{line}: {name}"
                     for relative, line, name in findings)


def test_every_import_is_used():
    findings = [finding for finding in
                unused_imports("src", "tests", "benchmarks", "examples")
                if not _allowed(finding)]
    assert not findings, "imported but never used:\n" + _report(findings)


def test_every_src_definition_has_a_caller_outside_tests():
    findings = [finding for finding in orphans() if not _allowed(finding)]
    assert not findings, (
        "defined in src/ but reached only from tests (move an oracle into "
        "tests/, delete the rest):\n" + _report(findings))


def test_every_allow_list_entry_is_still_needed():
    findings = unused_imports("src", "tests", "benchmarks", "examples") + orphans()
    for (path, names), reason in ALLOWED.items():
        assert reason.strip(), (path, names)
        for name in names:
            assert any(relative == path and found == name
                       for relative, _, found in findings), (
                f"{path}: {name} is no longer a finding; drop it from ALLOWED")


# --------------------------------------------------------------------- #
# The rules themselves, on planted trees: each exemption holds, and no
# more than it names.
# --------------------------------------------------------------------- #
def _plant(root: Path, files: Dict[str, str]) -> Path:
    for relative, source in files.items():
        path = root / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return root


def _unused(root: Path, source: str, module: str = "src/pkg/mod.py"
            ) -> List[Tuple[str, int, str]]:
    return unused_imports("src", root=_plant(root, {module: source}))


def _orphan_names(root: Path, files: Dict[str, str]) -> List[str]:
    return [name for _, _, name in orphans(_plant(root, files))]


class TestUnusedImportRule:
    def test_planted_unused_import_is_found(self, tmp_path):
        assert _unused(tmp_path, """\
            import os
            import sys
            print(sys.argv)
            """) == [("src/pkg/mod.py", 1, "os")]

    def test_each_name_of_a_from_import_is_judged(self, tmp_path):
        assert _unused(tmp_path, """\
            from typing import Dict, List
            VALUES: List[int] = []
            """) == [("src/pkg/mod.py", 1, "Dict")]

    def test_an_alias_is_judged_by_the_name_it_binds(self, tmp_path):
        assert _unused(tmp_path, """\
            import json as js
            import math as m
            print(math, m.pi)
            """) == [("src/pkg/mod.py", 1, "js")]

    def test_a_dotted_import_binds_its_top_package(self, tmp_path):
        assert _unused(tmp_path, """\
            import os.path
            print(os.sep)
            """) == []

    def test_rebinding_is_not_a_use(self, tmp_path):
        assert _unused(tmp_path, """\
            import json
            json = None
            """) == [("src/pkg/mod.py", 1, "json")]

    def test_a_use_inside_a_function_body_counts(self, tmp_path):
        assert _unused(tmp_path, """\
            from math import pi
            def area(radius):
                return pi * radius * radius
            """) == []

    def test_a_name_listed_in_dunder_all_is_an_export(self, tmp_path):
        assert _unused(tmp_path, """\
            from .impl import helper
            __all__ = ["helper"]
            """) == []

    def test_init_modules_and_future_imports_are_exempt(self, tmp_path):
        _plant(tmp_path, {"src/pkg/__init__.py": "from .mod import helper\n"})
        assert _unused(tmp_path, """\
            from __future__ import annotations
            def helper():
                return 1
            """) == []


class TestOrphanRule:
    def test_planted_orphan_function_is_found(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": "def used():\n    pass\n\n"
                            "def orphan():\n    pass\n",
            "src/pkg/b.py": "from pkg.a import used\nused()\n",
        }) == ["orphan"]

    def test_orphan_classes_and_coroutines_are_found(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": "class Orphan:\n    pass\n\n"
                            "async def fetch():\n    pass\n",
        }) == ["Orphan", "fetch"]

    def test_recursion_is_not_a_caller(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": """\
                def countdown(n):
                    return countdown(n - 1) if n else 0
                """,
        }) == ["countdown"]

    def test_an_init_re_export_is_not_a_caller(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/__init__.py": "from .a import helper\n"
                                   "__all__ = [\"helper\"]\n",
            "src/pkg/a.py": "def helper():\n    pass\n",
        }) == ["helper"]

    def test_a_test_is_not_a_caller(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": "def helper():\n    pass\n",
            "tests/test_a.py": "from pkg.a import helper\nhelper()\n",
        }) == ["helper"]

    @pytest.mark.parametrize("directory", ["benchmarks", "e2e_bench",
                                           "examples"])
    def test_each_caller_directory_counts(self, tmp_path, directory):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": "def helper():\n    pass\n",
            f"{directory}/run.py": "from pkg.a import helper\nhelper()\n",
        }) == []

    def test_an_attribute_access_is_a_caller(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": "def helper():\n    pass\n",
            "src/pkg/b.py": "from pkg import a\na.helper()\n",
        }) == []

    def test_a_module_level_table_is_a_caller(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": """\
                def handle():
                    pass
                HANDLERS = {"x": handle}
                """,
        }) == []

    @pytest.mark.parametrize("decorator", [
        "@register_index",
        '@register_whitening("pca")',
        '@registry.register("x")',
    ])
    def test_a_registration_decorator_makes_a_definition_live(
            self, tmp_path, decorator):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": f"{decorator}\nclass Method:\n    pass\n",
        }) == []

    def test_other_decorators_do_not(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": "import functools\n\n"
                            "@functools.lru_cache\ndef cached():\n"
                            "    pass\n",
        }) == ["cached"]

    def test_only_top_level_definitions_are_checked(self, tmp_path):
        assert _orphan_names(tmp_path, {
            "src/pkg/a.py": """\
                def outer():
                    def inner():
                        pass
                    return 1

                class Holder:
                    def method(self):
                        pass

                print(outer(), Holder)
                """,
        }) == []


def test_allowed_matches_the_module_and_the_name():
    assert _allowed(("src/repro/experiments/persistence.py", 1,
                     "save_checkpoint"))
    assert not _allowed(("src/repro/experiments/presets.py", 1,
                         "save_checkpoint"))
    assert not _allowed(("src/repro/experiments/persistence.py", 1,
                         "save_result"))
