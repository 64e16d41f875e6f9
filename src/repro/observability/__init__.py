"""First-class observability for the serving stack.

Three pieces, layered bottom-up:

* :mod:`repro.observability.metrics` — a dependency-free metrics registry
  (labeled counter / gauge / histogram families) rendering the Prometheus
  text exposition format, plus rolling-window p50/p95/p99 estimation;
* :mod:`repro.observability.tracing` — :class:`RequestTrace`, one
  per-request stage breakdown (validate -> queue -> encode -> score ->
  merge -> respond) shared by every serving path;
* :mod:`repro.observability.loadgen` — an open-loop load generator
  (Poisson arrival schedules, session-replay request streams) and a
  max-sustainable-RPS ramp search under a p95 SLO.

The :class:`~repro.service.RecommenderService` wires the first two in by
default (``GET /metrics`` on the HTTP front-end, ``metrics`` in the JSONL
``stats`` payload).
"""

from .metrics import (BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_MS, MetricFamily,
                      MetricsRegistry, quantile)
from .tracing import STAGES, RequestTrace
from .loadgen import (LoadReport, find_max_sustainable_rps, poisson_offsets,
                      run_open_loop, service_sender, session_requests)

__all__ = [
    "BATCH_SIZE_BUCKETS",
    "LATENCY_BUCKETS_MS",
    "LoadReport",
    "MetricFamily",
    "MetricsRegistry",
    "RequestTrace",
    "STAGES",
    "find_max_sustainable_rps",
    "poisson_offsets",
    "quantile",
    "run_open_loop",
    "service_sender",
    "session_requests",
]
