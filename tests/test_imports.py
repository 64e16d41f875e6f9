"""What each entry point imports: ``import repro`` loads no subpackage, the
training stack loads neither scipy nor the serving, analysis or experiment
packages, and the CLI loads no command's dependencies before it runs the
command.  Checked on ``sys.modules`` in a fresh interpreter, so no other
test's imports leak in; no clock is read."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

from repro.whitening import get_whitening


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter and return what it prints as JSON."""
    completed = subprocess.run([sys.executable, "-c", code],
                               capture_output=True, text=True, timeout=120,
                               check=True)
    return json.loads(completed.stdout)


def test_import_repro_loads_no_subpackage():
    loaded = _fresh_interpreter(
        "import json, sys, repro\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.'))))")
    assert loaded == []


def test_cli_loads_no_command_dependencies():
    loaded = _fresh_interpreter(
        "import json, sys, repro.cli\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.'))))")
    for package in ("repro.analysis", "repro.experiments", "repro.training",
                    "repro.models", "repro.service", "repro.serving"):
        assert not [m for m in loaded
                    if m == package or m.startswith(package + ".")], package


def test_training_stack_imports_neither_scipy_nor_serving():
    report = _fresh_interpreter(
        "import json, sys\n"
        "import numpy as np\n"
        "import repro.training, repro.models, repro.data, repro.text\n"
        "before = sorted(m for m in sys.modules if m == 'scipy'"
        " or m.startswith(('scipy.', 'repro.service', 'repro.analysis',"
        " 'repro.experiments')))\n"
        "from repro.whitening import get_whitening\n"
        "x = np.random.default_rng(0).standard_normal((200, 8))"
        " * np.arange(1, 9)\n"
        "out = get_whitening('bert_flow').fit_transform(x)\n"
        "print(json.dumps({'before': before, 'scipy_after': 'scipy' in"
        " sys.modules, 'flow': out.tobytes().hex()}))")
    assert report["before"] == []
    # the BERT-flow fit imports scipy when it needs it, and still fits
    assert report["scipy_after"]
    x = np.random.default_rng(0).standard_normal((200, 8)) * np.arange(1, 9)
    want = get_whitening("bert_flow").fit_transform(x)
    assert bytes.fromhex(report["flow"]) == want.tobytes()
