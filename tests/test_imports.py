"""What each entry point imports: ``import repro`` loads no subpackage, the
training stack loads neither scipy nor the serving, analysis or experiment
packages, the serving stack loads no training, experiment, analysis,
streaming or int8 code, and the CLI loads no command's dependencies before
it runs the command.  Checked on ``sys.modules`` in a fresh interpreter, so
no other test's imports leak in; no clock is read."""

from __future__ import annotations

import json
import subprocess
import sys

import numpy as np

from repro.models import ModelConfig, build_model
from repro.models.checkpoint import save_checkpoint
from repro.nn import autocast
from repro.whitening import get_whitening


def _fresh_interpreter(code: str):
    """Run ``code`` in a new interpreter (stdin at EOF) and return what it
    prints as JSON."""
    completed = subprocess.run([sys.executable, "-c", code],
                               stdin=subprocess.DEVNULL,
                               capture_output=True, text=True, timeout=120,
                               check=True)
    return json.loads(completed.stdout)


def _loaded_from(loaded, packages):
    """The modules of ``loaded`` that belong to one of ``packages``."""
    return [m for m in loaded
            if any(m == p or m.startswith(p + ".") for p in packages)]


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


def test_service_loads_only_serving_code():
    loaded = _fresh_interpreter(
        "import json, sys, repro.service\n"
        "print(json.dumps(sorted(m for m in sys.modules"
        " if m.startswith('repro.'))))")
    assert _loaded_from(loaded, (
        "repro.experiments", "repro.analysis", "repro.training",
        "repro.stream", "repro.quant", "repro.observability.loadgen")) == []


def test_checkpoint_server_loads_no_training_code(tmp_path):
    with autocast("float32"):
        model = build_model("sasrec_id", 30, config=ModelConfig(
            hidden_dim=8, num_layers=1, num_heads=2, max_seq_length=5))
    checkpoint = save_checkpoint(model, tmp_path / "a.npz")
    report = _fresh_interpreter(
        "import contextlib, io, json, sys\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = main(['serve', '--deployment', 'a={checkpoint}',"
        " '--loop'])\n"
        "print(json.dumps({'code': code, 'loaded': sorted(m for m in"
        " sys.modules if m.startswith('repro.'))}))")
    assert report["code"] == 0
    assert "repro.models.checkpoint" in report["loaded"]
    assert _loaded_from(report["loaded"], (
        "repro.experiments", "repro.analysis", "repro.training")) == []


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
