"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by calling the
corresponding runner in :mod:`repro.experiments.runners` exactly once
(``rounds=1``) and printing the rows/series the paper reports.  Absolute
numbers differ from the paper (the substrate is a scaled-down synthetic
simulation; see DESIGN.md), but the qualitative shape is asserted where it is
stable at benchmark scale.

Run with::

    pytest benchmarks/ --benchmark-only

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


def reset_rss_peak() -> bool:
    """Reset this process's peak-RSS high-water mark to its *current* RSS.

    Writes ``5`` to ``/proc/self/clear_refs`` (Linux), which zeroes the
    kernel's ``VmHWM`` so the next :func:`rss_peak_mb` reads the peak of
    the section that follows, not of the whole process lifetime.  Without
    this, a bench section's "peak RSS" inherits whatever earlier suite
    sections happened to fault in — the number then depends on test
    ordering, not on the section being measured.  Returns ``False`` where
    unsupported (macOS, restricted /proc), in which case
    :func:`rss_peak_mb` keeps reporting the process-lifetime peak.
    """
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as handle:
            handle.write("5")
        return True
    except OSError:
        return False


def rss_peak_mb() -> float:
    """This process's peak resident set size, in MiB, since the last
    successful :func:`reset_rss_peak` (or process start).

    Prefers ``VmHWM`` from ``/proc/self/status`` because it is resettable
    per section; falls back to ``resource.getrusage`` where /proc is
    unavailable — ``ru_maxrss`` is kilobytes on Linux and bytes on macOS,
    and is a process-lifetime high-water mark.  Lets memory-lean claims
    (the int8 catalogue scan keeping the fp32 rows untouched on disk) be
    recorded next to the throughput numbers: call ``reset_rss_peak()`` at
    the start of the measured section and this at its end.
    """
    import resource
    import sys

    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return float(line.split()[1]) / 1024.0  # kB -> MiB
    except OSError:
        pass
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0
