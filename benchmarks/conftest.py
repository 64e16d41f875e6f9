"""Shared configuration for the benchmark harness.

This directory holds what neither ``e2e_bench/`` (the one place a
performance number is recorded, under the fixed names of
``BENCHMARK.json``) nor ``tests/`` (the one place bit-identity is asserted)
covers:

* the paper-shape benches — each regenerates one table or figure of the
  paper by calling its runner in :mod:`repro.experiments.runners` exactly
  once (``rounds=1``) and printing the rows/series the paper reports.
  Absolute numbers differ from the paper (the substrate is a scaled-down
  synthetic simulation), but the qualitative shape is asserted where it is
  stable at benchmark scale;
* three engineering benches whose fresh ``BENCH_*.json`` are gated by
  ``check_regression.py``: the 1M-item shard scan, fault-injection
  goodput/recovery, and the metrics-registry on/off overhead ratio.

Run with::

    pytest benchmarks/

Environment knobs:

* ``REPRO_BENCH_SCALE``  — "bench" (default, minutes) or "full" (slower,
  closer to the paper's protocol).
"""

from __future__ import annotations

import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

#: where benches write their fresh ``BENCH_*.json`` (git-ignored), so running
#: them never dirties the committed baselines at the repository root;
#: ``check_regression.py`` reads the fresh side from here, and refreshing a
#: baseline is an explicit ``cp benchmarks/out/BENCH_x.json .``
BENCH_OUT_DIR = Path(__file__).resolve().parent / "out"


def bench_scale() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "bench")


@pytest.fixture(scope="session")
def scale() -> str:
    return bench_scale()


def run_once(benchmark, func, **kwargs):
    """Run ``func(**kwargs)`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)


def write_bench_result(name: str, payload: dict) -> Path:
    """Write one bench's result to ``benchmarks/out/BENCH_<name>.json``,
    stamped with the environment it was taken on so two artefacts can be
    told apart before they are compared."""
    BENCH_OUT_DIR.mkdir(exist_ok=True)
    path = BENCH_OUT_DIR / f"BENCH_{name}.json"
    stamped = {**payload, "cpu_count": os.cpu_count(),
               "python_version": platform.python_version(),
               "numpy_version": np.__version__}
    path.write_text(json.dumps(stamped, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(f"wrote {path}")
    return path
