"""Serving throughput measurement helpers.

Used by the ``repro serve`` CLI to report sequences/second for the batched
fast path.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable


@dataclass
class ThroughputReport:
    """Timing of a serving call over a batch of request sequences."""

    num_sequences: int
    seconds: float
    repeats: int = 1

    @property
    def sequences_per_second(self) -> float:
        if self.seconds <= 0.0:
            return float("inf")
        return self.num_sequences * self.repeats / self.seconds


def measure_throughput(serve_fn: Callable[[], object], num_sequences: int,
                       repeats: int = 1, warmup: int = 1) -> ThroughputReport:
    """Time ``serve_fn`` (one call = one batch of ``num_sequences`` requests).

    ``warmup`` untimed calls let lazy caches (the item matrix, the whitened
    tables) fill before measurement, so the report reflects steady-state
    serving rather than first-request latency.
    """
    for _ in range(warmup):
        serve_fn()
    start = time.perf_counter()
    for _ in range(repeats):
        serve_fn()
    seconds = time.perf_counter() - start
    return ThroughputReport(num_sequences=num_sequences, seconds=seconds,
                            repeats=repeats)
