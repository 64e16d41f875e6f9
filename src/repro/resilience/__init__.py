"""Resilient serving: admission control, deadlines, retry + degradation.

PR 7's open-loop harness can *demonstrate* queueing collapse; this package
*prevents* it, and keeps serving through shard failures:

* :mod:`~repro.resilience.admission` — the service-edge
  :class:`InflightGate`, the one admission bound (a burst of N takes N
  slots, all or nothing), shedding with a typed :class:`OverloadError`
  (HTTP 429 + ``Retry-After``) instead of queueing into collapse;
* :mod:`~repro.resilience.deadline` — deadline propagation helpers: one
  absolute monotonic timestamp fixed at the service edge and checked at
  every stage boundary (:class:`DeadlineExceeded`, HTTP 504), clamping the
  shard pool's per-search timeout so no request computes past its caller;
* :mod:`~repro.resilience.retry` / :mod:`~repro.resilience.breaker` /
  :mod:`~repro.resilience.guard` — the degradation ladder around the shard
  pool: retry a crashed worker once (idempotent by the merge contract),
  trip a closed/half-open/open :class:`CircuitBreaker` on sustained
  failure, and serve through the bit-identical in-process
  :class:`~repro.shard.LocalShardClient` while the pool recovers
  (``degraded=true`` in response diagnostics, never an error);
* :mod:`~repro.resilience.faults` — the deterministic :class:`FaultPlan`
  (kill / delay / drop, scheduled by search index, seeded, with a
  replayable fired-fault log) behind the chaos suite and the resilience
  benchmark.
"""

from .admission import InflightGate
from .breaker import BREAKER_STATE_CODES, BREAKER_STATES, CircuitBreaker
from .deadline import deadline_from_budget_ms, expired, remaining_s
from .errors import (BatcherCrashed, DeadlineExceeded, OverloadError,
                     ResilienceError)
from .faults import FAULT_KINDS, FaultAction, FaultPlan
from .guard import ResilientShardClient
from .retry import RetryPolicy

__all__ = [
    "BREAKER_STATES",
    "BREAKER_STATE_CODES",
    "BatcherCrashed",
    "CircuitBreaker",
    "DeadlineExceeded",
    "FAULT_KINDS",
    "FaultAction",
    "FaultPlan",
    "InflightGate",
    "OverloadError",
    "ResilienceError",
    "ResilientShardClient",
    "RetryPolicy",
    "deadline_from_budget_ms",
    "expired",
    "remaining_s",
]
