"""Percentiles, spans, the environment stamp and process memory."""

from __future__ import annotations

import math
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median  # noqa: F401 — re-exported
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: a percentile above the median needs this many samples beyond it
MIN_SAMPLES_BEYOND = 10


def now() -> float:
    """CLOCK_MONOTONIC seconds: one origin for every process on the host,
    so the launcher's publish windows and the harness's request times can
    be compared directly."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of ``values``.

    Refuses a percentile above the median with fewer than
    ``MIN_SAMPLES_BEYOND`` samples beyond it: such a value is one or two
    outliers, not a property of the system.
    """
    if not values:
        raise TooFewSamples("no samples")
    if not 0 < q < 100:
        raise ValueError(f"q must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    beyond = len(ordered) - 1 - rank
    if q > 50 and beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})")
    return ordered[rank]


@dataclass
class Span:
    """One timed interval at a layer boundary; spans of one request share
    ``request_id`` and point at the span that caused them."""

    name: str
    start: float
    end: float
    parent: Optional[str] = None
    request_id: Optional[int] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "request_id": self.request_id}


def covered(intervals: Iterable[Tuple[float, float]],
            lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_time(parent: Span, children: Iterable[Span]) -> float:
    """A layer's self time: its span minus the part of that interval its
    child spans cover (overlapping children are not counted twice)."""
    return parent.duration - covered(
        ((child.start, child.end) for child in children),
        parent.start, parent.end)


def rss_peak_mb(pid: int) -> Optional[float]:
    """``VmHWM`` of a live process in MiB, or ``None`` when unreadable —
    the caller lists the metric under ``skipped``, never as a number."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except (OSError, ValueError, IndexError):
        pass
    return None


def _blas_build() -> str:
    try:
        import numpy

        config = numpy.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()
    except (TypeError, AttributeError):  # numpy < 1.25 has no dicts mode
        return "unknown"


def environment_stamp(seed: int, root: Path) -> Dict[str, object]:
    """What a result needs to be comparable with another."""
    import numpy

    from . import SENDER_THREADS

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown (not a git checkout)"
    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": _blas_build(),
        "blas_threads": {name: os.environ.get(name, "unset")
                         for name in ("OPENBLAS_NUM_THREADS",
                                      "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
        "sender_threads": SENDER_THREADS,
    }
