"""The unified serving facade: typed requests in, typed responses out.

:class:`RecommenderService` ties the pieces together: a
:class:`~repro.service.registry.ModelRegistry` of named deployments, one
:class:`~repro.service.batcher.DynamicBatcher` per deployment *version* (a
hot-swap gets a fresh batcher; the old one drains and serves its in-flight
requests on the old model), and the request/response envelopes every
front-end (python, JSONL stdio, HTTP) shares.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from ..observability.metrics import (BATCH_SIZE_BUCKETS, LATENCY_BUCKETS_MS,
                                     MetricsRegistry)
from ..observability.tracing import RequestTrace
from ..resilience import (BREAKER_STATE_CODES, BatcherCrashed,
                          DeadlineExceeded, InflightGate, OverloadError,
                          deadline_from_budget_ms)
from .batcher import BatchedResult, DynamicBatcher
from .envelopes import RecommendRequest, RecommendResponse, RequestError
from .registry import Deployment, ModelRegistry

#: lifecycle stages recorded into the per-stage latency histogram
_OBSERVED_STAGES = ("queue", "encode", "score", "merge")


class RecommenderService:
    """Serve many models from one process through one typed entry point.

    Parameters
    ----------
    registry:
        The deployment registry (a fresh empty one by default; add models
        with :meth:`deploy`).
    batching:
        Coalesce concurrent :meth:`recommend` calls through per-deployment
        dynamic batchers.  ``False`` scores every request individually (the
        per-request baseline the batching benchmark measures against).
    max_batch_size / max_wait_ms:
        Batcher tuning, applied to every per-deployment batcher.
        ``max_wait_ms=0`` (the default) dispatches as soon as the batcher's
        worker is free; see :class:`DynamicBatcher`.
    autostart_batchers:
        ``False`` creates batchers in manual mode (no worker thread); tests
        drive them deterministically via :meth:`flush`.
    metrics:
        Observability wiring.  ``None`` (the default) instruments the
        service into a fresh private
        :class:`~repro.observability.MetricsRegistry`; pass an existing
        registry to share one across services, or ``False`` to disable
        instrumentation entirely (no per-request trace, no stage breakdown
        in responses — the un-instrumented baseline the overhead benchmark
        measures against).  Instrumentation is event-level only (timer
        reads around whole requests and stages), never inside the scoring
        hot loops, so the bit-identity of served results is untouched.
    max_queue / overload_policy:
        Admission control for every per-deployment batcher: bound the queue
        at ``max_queue`` waiting requests and apply ``overload_policy``
        (``"reject"`` sheds the arriving request with an
        :class:`~repro.resilience.OverloadError` — HTTP 429; ``"shed-oldest"``
        evicts the stalest queued request instead; ``"block"`` makes the
        submitting caller wait for space, honouring its deadline).
        ``max_queue=None`` (the default) keeps the unbounded PR-5 behaviour.
    max_inflight:
        Service-edge concurrency cap (an :class:`~repro.resilience.InflightGate`
        across *all* deployments, batched and unbatched paths alike).
        Arrivals beyond it shed immediately with :class:`OverloadError`;
        ``None`` disables the gate.
    """

    def __init__(self, registry: Optional[ModelRegistry] = None,
                 batching: bool = True, max_batch_size: int = 64,
                 max_wait_ms: float = 0.0, autostart_batchers: bool = True,
                 metrics: Union[MetricsRegistry, None, bool] = None,
                 max_queue: Optional[int] = None,
                 overload_policy: str = "reject",
                 max_inflight: Optional[int] = None):
        self.registry = registry if registry is not None else ModelRegistry()
        self.batching = batching
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self.autostart_batchers = autostart_batchers
        self.max_queue = max_queue
        self.overload_policy = overload_policy
        self._gate = InflightGate(max_inflight)
        self._lock = threading.Lock()
        self._batchers: Dict[Tuple[str, int], DynamicBatcher] = {}
        # Tombstones for reloaded/retired deployment versions: a request that
        # raced the swap must not resurrect a batcher (and its worker thread)
        # under a key nothing would ever clean up again.
        self._retired_batchers: set = set()
        self._requests_served = 0
        self._request_errors = 0
        self._requests_shed = 0
        self._deadline_expired = 0
        self._started_at = time.perf_counter()
        self._closed = False
        if metrics is False:
            self.metrics: Optional[MetricsRegistry] = None
        elif metrics is None or metrics is True:
            self.metrics = MetricsRegistry()
        else:
            self.metrics = metrics
        if self.metrics is not None:
            self._register_metrics(self.metrics)

    def _register_metrics(self, registry: MetricsRegistry) -> None:
        """Create (or adopt) the service's metric families.

        Event metrics (counters / histograms) are updated on the request
        path; the gauges are *scrape-time collectors* — rebuilt from live
        state by :meth:`collect_metrics`, so their label sets always mirror
        the current deployments and batchers (a retired deployment's series
        simply stops being emitted).
        """
        self._m_requests = registry.counter(
            "repro_requests_total", "Requests served, by deployment and "
            "status (ok / error).", labelnames=("deployment", "status"))
        self._m_latency = registry.histogram(
            "repro_request_latency_ms", "End-to-end request latency in "
            "milliseconds (validate to respond).",
            labelnames=("deployment",), buckets=LATENCY_BUCKETS_MS)
        self._m_stage = registry.histogram(
            "repro_stage_latency_ms", "Per-stage request latency in "
            "milliseconds (queue / encode / score / merge).",
            labelnames=("deployment", "stage"), buckets=LATENCY_BUCKETS_MS)
        self._m_batch_size = registry.histogram(
            "repro_batch_size", "Requests coalesced into the scoring call "
            "that served each request.",
            labelnames=("deployment",), buckets=BATCH_SIZE_BUCKETS)
        self._g_uptime = registry.gauge(
            "repro_uptime_seconds", "Seconds since the service started.")
        self._g_deployments = registry.gauge(
            "repro_deployments", "Registered deployments.")
        self._g_version = registry.gauge(
            "repro_deployment_version", "Current version of each deployment "
            "(bumps on hot-swap reload).", labelnames=("deployment",))
        self._g_shard_restarts = registry.gauge(
            "repro_shard_restarts", "Shard-pool worker restarts since the "
            "pool was built.", labelnames=("deployment",))
        self._g_shard_timeouts = registry.gauge(
            "repro_shard_timeouts", "Shard searches that exceeded the "
            "pool's per-request timeout.", labelnames=("deployment",))
        self._g_batcher = registry.gauge(
            "repro_batcher_requests", "Per-batcher request counters, by "
            "deployment, version and counter name.",
            labelnames=("deployment", "version", "counter"))
        self._m_shed = registry.counter(
            "repro_requests_shed_total", "Requests shed by admission "
            "control (bounded batcher queue or the in-flight gate); each "
            "was answered HTTP 429 with Retry-After, never queued into "
            "collapse.", labelnames=("deployment",))
        self._m_deadline = registry.counter(
            "repro_deadline_expired_total", "Requests whose deadline_ms "
            "budget expired before completion (HTTP 504).",
            labelnames=("deployment",))
        self._g_queue_depth = registry.gauge(
            "repro_queue_depth", "Requests waiting in each batcher queue "
            "at scrape time.", labelnames=("deployment", "version"))
        self._g_breaker = registry.gauge(
            "repro_breaker_state", "Shard-pool circuit-breaker state "
            "(0 closed / 1 half-open / 2 open).",
            labelnames=("deployment",))
        self._g_shard_retries = registry.gauge(
            "repro_shard_retries_total", "Shard scatter-gather retries "
            "absorbed by the resilience guard.", labelnames=("deployment",))
        self._g_degraded = registry.gauge(
            "repro_degraded_requests_total", "Shard searches served through "
            "the bit-identical in-process degradation fallback.",
            labelnames=("deployment",))
        # Hot-path handle cache: labels() is a validating get-or-create
        # (sorting, schema check, lock) — ~5x the cost of the update it
        # guards.  One resolved bundle per deployment keeps the per-request
        # metrics work to plain inc/observe calls.  Invalidated on retire.
        self._metric_handles: Dict[str, Tuple[Any, ...]] = {}

    # ------------------------------------------------------------------ #
    # Deployment management (thin registry pass-throughs)
    # ------------------------------------------------------------------ #
    def deploy(self, deployment: Deployment, default: bool = False) -> Deployment:
        """Register a deployment and start serving it."""
        return self.registry.register(deployment, default=default)

    def retire(self, name: str) -> Deployment:
        """Stop serving a deployment; its batcher is drained and closed, and
        its per-deployment metric series stop being emitted."""
        deployment = self.registry.retire(name)
        self._drop_batcher(deployment.name, deployment.version)
        if self.metrics is not None:
            self._metric_handles.pop(name, None)
            self.metrics.remove_series(deployment=name)
        return deployment

    def reload(self, name: str, checkpoint_path: Optional[str] = None,
               **kwargs: Any) -> Deployment:
        """Hot-swap a deployment from a checkpoint (see
        :meth:`ModelRegistry.reload`).  In-flight requests finish on the old
        deployment's batcher, which is then drained and closed.

        Each reload drops the batcher of exactly the version it replaced
        (``fresh.version - 1``) rather than a pre-read deployment object, so
        concurrent reloads of one name — serialised by the registry — each
        retire their own predecessor and no version's batcher leaks.
        """
        fresh = self.registry.reload(name, checkpoint_path, **kwargs)
        self._drop_batcher(name, fresh.version - 1)
        return fresh

    def _drop_batcher(self, name: str, version: int) -> None:
        key = (name, version)
        with self._lock:
            self._retired_batchers.add(key)
            batcher = self._batchers.pop(key, None)
        if batcher is not None:
            batcher.close()

    def _batcher_for(self, deployment: Deployment) -> Optional[DynamicBatcher]:
        """The deployment version's batcher, or ``None`` once it is retired
        or the service closed (the request then serves unbatched on the
        deployment object it holds — never a fresh worker thread that nothing
        would shut down)."""
        key = (deployment.name, deployment.version)
        with self._lock:
            if self._closed or key in self._retired_batchers:
                return None
            if key not in self._batchers:
                self._batchers[key] = DynamicBatcher(
                    deployment.recommender, config=deployment.config,
                    max_batch_size=self.max_batch_size,
                    max_wait_ms=self.max_wait_ms,
                    start=self.autostart_batchers,
                    max_queue=self.max_queue,
                    overload_policy=self.overload_policy,
                )
            return self._batchers[key]

    # ------------------------------------------------------------------ #
    # Serving
    # ------------------------------------------------------------------ #
    def recommend(self, request: Union[RecommendRequest, Dict[str, Any]],
                  timeout: Optional[float] = None) -> RecommendResponse:
        """Serve one request (blocking until its batch is scored).

        Admission and deadline enforcement happen here, at the edge: the
        in-flight gate sheds arrivals beyond ``max_inflight`` with
        :class:`~repro.resilience.OverloadError`, and ``request.deadline_ms``
        is fixed into one absolute monotonic deadline that every later stage
        (batcher queue, encode, shard search) checks.
        """
        trace = self._open_trace()
        coerced = self._coerce(request)
        if trace is not None:
            # validate is the first stage, so elapsed-since-open IS its
            # duration (cheaper than a context manager on the request path).
            trace.record("validate", trace.elapsed_ms())
        deadline = (deadline_from_budget_ms(coerced.deadline_ms)
                    if coerced.deadline_ms is not None else None)
        self._admit(coerced.deployment)
        try:
            return self._serve(coerced, timeout, trace, deadline=deadline)
        except OverloadError:
            self._count_shed(coerced.deployment)
            raise
        except DeadlineExceeded:
            self._count_deadline(coerced.deployment)
            raise
        finally:
            self._gate.release()

    def _admit(self, deployment: Optional[str]) -> None:
        """Acquire an in-flight slot or shed (counted, then re-raised)."""
        try:
            self._gate.acquire()
        except OverloadError:
            self._count_shed(deployment)
            raise

    def _count_shed(self, deployment: Optional[str]) -> None:
        with self._lock:
            self._requests_shed += 1
        if self.metrics is not None:
            self._m_shed.labels(
                deployment=deployment or "default").inc()

    def _count_deadline(self, deployment: Optional[str]) -> None:
        with self._lock:
            self._deadline_expired += 1
        if self.metrics is not None:
            self._m_deadline.labels(
                deployment=deployment or "default").inc()

    def _open_trace(self) -> Optional[RequestTrace]:
        """A fresh per-request trace, or ``None`` when instrumentation is
        off (``metrics=False``) — the un-instrumented path then skips every
        stage timer and metric observation."""
        return RequestTrace() if self.metrics is not None else None

    def recommend_many(self, requests: Sequence[Union[RecommendRequest,
                                                      Dict[str, Any]]],
                       timeout: Optional[float] = None) -> List[RecommendResponse]:
        """Serve a burst of requests, submitting them all before waiting.

        With batching enabled the whole burst lands in the batcher queue at
        once, so it coalesces even without concurrent callers.  The burst
        fails as a unit on any invalid entry, and it fails *before* anything
        is scored: every request is resolved and its overrides validated up
        front, so a bad entry can never leave earlier entries' futures
        abandoned mid-batch (their scoring running with nobody waiting).
        """
        if not isinstance(requests, (list, tuple)):
            raise RequestError(f"requests must be a list of request objects, "
                               f"got {type(requests).__name__}")
        coerced = []
        traces: List[Optional[RequestTrace]] = []
        for request in requests:
            trace = self._open_trace()
            if trace is None:
                coerced.append(self._coerce(request))
            else:
                coerced.append(self._coerce(request))
                # first stage: elapsed-since-open is the validate duration
                trace.record("validate", trace.elapsed_ms())
            traces.append(trace)
        resolved = []
        for request, trace in zip(coerced, traces):
            deployment = self._resolve(request)
            try:
                deployment.config.with_overrides(
                    k=request.k, exclude_seen=request.exclude_seen,
                    backend=request.backend)
            except (ValueError, TypeError) as error:
                self._count_error(deployment.name)
                raise RequestError(str(error)) from None
            deadline = (deadline_from_budget_ms(request.deadline_ms)
                        if request.deadline_ms is not None else None)
            resolved.append((request, deployment, trace, deadline))
        if not self.batching:
            return [self._serve_resolved(request, deployment, timeout, trace,
                                         deadline=deadline)
                    for request, deployment, trace, deadline in resolved]
        submitted = []
        for request, deployment, trace, deadline in resolved:
            try:
                future = self._submit(request, deployment, deadline=deadline)
            except OverloadError:
                self._count_shed(request.deployment)
                raise
            except DeadlineExceeded:
                self._count_deadline(request.deployment)
                raise
            submitted.append((request, deployment, trace, deadline, future))
        responses = []
        for request, deployment, trace, deadline, future in submitted:
            if future is None:
                responses.append(self._serve_direct(request, deployment,
                                                    trace, deadline=deadline))
            else:
                try:
                    result = future.result(timeout)
                except DeadlineExceeded:
                    self._count_deadline(request.deployment)
                    raise
                except OverloadError:
                    # its queue slot was shed by a later arrival
                    self._count_shed(request.deployment)
                    raise
                responses.append(self._to_response(
                    request, deployment, result, trace))
        return responses

    def _coerce(self, request: Union[RecommendRequest, Dict[str, Any]]
                ) -> RecommendRequest:
        if isinstance(request, RecommendRequest):
            return request
        return RecommendRequest.from_dict(request)

    def _resolve(self, request: RecommendRequest) -> Deployment:
        """Look up the request's deployment; unknown names are client errors."""
        try:
            return self.registry.get(request.deployment)
        except KeyError as error:
            self._count_error()
            raise RequestError(str(error).strip('"')) from None

    def _submit(self, request: RecommendRequest, deployment: Deployment,
                deadline: Optional[float] = None):
        """Enqueue one request on the deployment's batcher.

        Returns ``None`` when the request must be served unbatched instead:
        the deployment version was retired by a concurrent reload, its
        batcher closed between lookup and submit, or the batcher's worker
        thread died (a crashed batcher refuses new work; direct serving
        keeps the deployment answering).  Invalid overrides surface as
        :class:`RequestError` here, in the caller's thread; a full bounded
        queue surfaces the admission policy's :class:`OverloadError` or,
        for the ``block`` policy, :class:`DeadlineExceeded`.
        """
        batcher = self._batcher_for(deployment)
        if batcher is None:
            return None
        try:
            return batcher.submit(request.history, k=request.k,
                                  exclude_seen=request.exclude_seen,
                                  backend=request.backend,
                                  deadline=deadline)
        except ValueError as error:
            self._count_error()
            raise RequestError(str(error)) from None
        except (OverloadError, DeadlineExceeded):
            raise
        except RuntimeError:  # closed by a concurrent reload/retire/crash
            return None

    def _serve(self, request: RecommendRequest, timeout: Optional[float],
               trace: Optional[RequestTrace] = None, *,
               deadline: Optional[float] = None) -> RecommendResponse:
        deployment = self._resolve(request)
        return self._serve_resolved(request, deployment, timeout, trace,
                                    deadline=deadline)

    def _serve_resolved(self, request: RecommendRequest,
                        deployment: Deployment, timeout: Optional[float],
                        trace: Optional[RequestTrace] = None, *,
                        deadline: Optional[float] = None
                        ) -> RecommendResponse:
        if not self.batching:
            return self._serve_direct(request, deployment, trace,
                                      deadline=deadline)
        future = self._submit(request, deployment, deadline=deadline)
        if future is None:
            return self._serve_direct(request, deployment, trace,
                                      deadline=deadline)
        try:
            result = future.result(timeout)
        except BatcherCrashed:
            # the worker thread died under this request — score it directly
            # (the crashed batcher refuses new submits, so later requests
            # take the direct path without paying this exception)
            return self._serve_direct(request, deployment, trace,
                                      deadline=deadline)
        return self._to_response(request, deployment, result, trace)

    def _serve_direct(self, request: RecommendRequest,
                      deployment: Deployment,
                      trace: Optional[RequestTrace] = None, *,
                      deadline: Optional[float] = None
                      ) -> RecommendResponse:
        """Unbatched path: one topk call for this request alone."""
        try:
            config = deployment.config.with_overrides(
                k=request.k, exclude_seen=request.exclude_seen,
                backend=request.backend)
            started = time.perf_counter()
            result = deployment.recommender.topk(
                [request.history], config=config, deadline=deadline)
        except (ValueError, TypeError) as error:
            self._count_error(deployment.name)
            raise RequestError(str(error)) from None
        compute_ms = (time.perf_counter() - started) * 1000.0
        batched = BatchedResult(
            items=result.items[0], scores=result.scores[0],
            cold=bool(result.cold[0]), backend=config.backend,
            queue_ms=0.0, compute_ms=compute_ms, batch_size=1,
            engine=result.engine, encode_ms=result.encode_ms,
            score_ms=result.score_ms, merge_ms=result.merge_ms,
            degraded=result.degraded, shard_retries=result.shard_retries,
        )
        return self._to_response(request, deployment, batched, trace)

    def _to_response(self, request: RecommendRequest, deployment: Deployment,
                     result: BatchedResult,
                     trace: Optional[RequestTrace] = None
                     ) -> RecommendResponse:
        with self._lock:
            self._requests_served += 1
        stages: Dict[str, float] = {}
        if trace is not None:
            # Stages that ran on another thread (the batcher worker) report
            # durations the trace records post-hoc; finish() attributes the
            # unaccounted remainder (dispatch, future hand-off, response
            # assembly) to the respond stage.
            stages = trace.finish(queue=result.queue_ms,
                                  encode=result.encode_ms,
                                  score=result.score_ms,
                                  merge=result.merge_ms)
            self._observe_request(deployment.name, result, stages)
        return RecommendResponse(
            items=[int(item) for item in result.items],
            scores=[float(score) for score in result.scores],
            deployment=deployment.name,
            deployment_version=deployment.version,
            backend=result.backend,
            cold=result.cold,
            k=len(result.items),
            queue_ms=result.queue_ms,
            compute_ms=result.compute_ms,
            batch_size=result.batch_size,
            engine=result.engine,
            encode_ms=result.encode_ms,
            stages_ms=stages,
            request_id=request.request_id,
            degraded=result.degraded,
            shard_retries=result.shard_retries,
        )

    def _handles_for(self, deployment: str) -> Tuple[Any, ...]:
        handles = self._metric_handles.get(deployment)
        if handles is None:
            handles = (
                self._m_requests.labels(deployment=deployment, status="ok"),
                self._m_latency.labels(deployment=deployment),
            ) + tuple(
                self._m_stage.labels(deployment=deployment, stage=stage)
                for stage in _OBSERVED_STAGES
            ) + (self._m_batch_size.labels(deployment=deployment),)
            self._metric_handles[deployment] = handles
        return handles

    def _observe_request(self, deployment: str, result: BatchedResult,
                         stages: Dict[str, float]) -> None:
        """Record one served request into the metrics registry.

        ``stages`` comes straight from ``trace.finish(...)`` on this path,
        so the indexed keys are guaranteed present (unrolled direct access
        — this runs once per request).
        """
        (ok_counter, latency, stage_queue, stage_encode, stage_score,
         stage_merge, batch_size) = self._handles_for(deployment)
        ok_counter.inc()
        latency.observe(stages["total"])
        stage_queue.observe(stages["queue"])
        stage_encode.observe(stages["encode"])
        stage_score.observe(stages["score"])
        stage_merge.observe(stages["merge"])
        batch_size.observe(result.batch_size)

    def _count_error(self, deployment: Optional[str] = None) -> None:
        with self._lock:
            self._request_errors += 1
        if self.metrics is not None:
            self._m_requests.labels(deployment=deployment or "unknown",
                                    status="error").inc()

    # ------------------------------------------------------------------ #
    # Introspection & lifecycle
    # ------------------------------------------------------------------ #
    def flush(self) -> int:
        """Drain every batcher queue synchronously (manual-mode engine)."""
        with self._lock:
            batchers = list(self._batchers.values())
        return sum(batcher.flush() for batcher in batchers)

    @property
    def uptime_s(self) -> float:
        """Seconds since the service started (monotonic)."""
        return round(time.perf_counter() - self._started_at, 3)

    def collect_metrics(self) -> None:
        """Refresh the scrape-time gauges from live state.

        Event metrics (request counters, latency histograms) update on the
        request path; everything whose truth lives elsewhere — uptime,
        deployment versions, shard-pool health, batcher counters — is
        *collected* here, at scrape time.  Each gauge family is cleared and
        rebuilt, so retired deployments and drained batchers drop out of the
        exposition automatically.  Reads only the never-building
        ``shard_stats`` accessor, so a scrape can never spawn a worker pool.
        """
        if self.metrics is None:
            return
        self._g_uptime.set(self.uptime_s)
        self._g_deployments.set(len(self.registry))
        for family in (self._g_version,
                       self._g_shard_restarts, self._g_shard_timeouts,
                       self._g_batcher, self._g_queue_depth, self._g_breaker,
                       self._g_shard_retries, self._g_degraded):
            family.clear()
        for deployment in self.registry.list():
            name = deployment.name
            self._g_version.labels(deployment=name).set(deployment.version)
            shard = deployment.recommender.shard_stats()
            if isinstance(shard, dict):
                self._g_shard_restarts.labels(deployment=name).set(
                    float(shard.get("restarts", 0)))
                self._g_shard_timeouts.labels(deployment=name).set(
                    float(shard.get("timeouts", 0)))
                state = shard.get("breaker_state")
                if state in BREAKER_STATE_CODES:
                    self._g_breaker.labels(deployment=name).set(
                        float(BREAKER_STATE_CODES[state]))
                if "retries" in shard:
                    self._g_shard_retries.labels(deployment=name).set(
                        float(shard.get("retries", 0)))
                if "degraded_requests" in shard:
                    self._g_degraded.labels(deployment=name).set(
                        float(shard.get("degraded_requests", 0)))
        with self._lock:
            batchers = dict(self._batchers)
        for (name, version), batcher in batchers.items():
            counters = batcher.stats().to_dict()
            for counter in ("submitted", "completed", "failed",
                            "scoring_calls", "max_batch_observed",
                            "rejected", "shed", "expired", "worker_crashes"):
                self._g_batcher.labels(
                    deployment=name, version=str(version),
                    counter=counter).set(float(counters[counter]))
            self._g_queue_depth.labels(
                deployment=name, version=str(version)).set(
                    float(batcher.queue_depth))

    def render_metrics(self) -> Optional[str]:
        """The Prometheus text exposition (``GET /metrics``), or ``None``
        when instrumentation is disabled."""
        if self.metrics is None:
            return None
        self.collect_metrics()
        return self.metrics.render()

    def metrics_snapshot(self) -> Dict[str, Any]:
        """JSON-friendly registry snapshot (embedded in :meth:`stats`);
        empty when instrumentation is disabled."""
        if self.metrics is None:
            return {}
        self.collect_metrics()
        return self.metrics.snapshot()

    def readiness(self) -> Dict[str, Any]:
        """Readiness report for the ``/readyz`` probe.

        A replica is *ready* while no deployment's shard-pool circuit
        breaker is open — an open breaker means sharded searches are being
        served through the in-process degradation fallback (still correct,
        still HTTP 200, but a load balancer may prefer healthy replicas).
        Liveness is deliberately separate (``/livez``): a degraded replica
        must not be restarted, only deprioritised.
        """
        deployments: Dict[str, Any] = {}
        ready = True
        for deployment in self.registry.list():
            shard = deployment.recommender.shard_stats()
            state = (shard.get("breaker_state")
                     if isinstance(shard, dict) else None)
            breaker_open = state == "open"
            report: Dict[str, Any] = {
                "breaker_state": state if state is not None else "none",
                "breaker_open": breaker_open,
                "degraded_requests": int(shard.get("degraded_requests", 0))
                if isinstance(shard, dict) else 0,
            }
            deployments[deployment.name] = report
            if breaker_open:
                ready = False
        return {"ready": ready, "deployments": deployments}

    def stats(self) -> Dict[str, Any]:
        """JSON-serialisable service counters, per-deployment batcher stats
        and the metrics-registry snapshot included."""
        with self._lock:
            batchers = dict(self._batchers)
            served = self._requests_served
            errors = self._request_errors
            shed = self._requests_shed
            deadline_expired = self._deadline_expired
        return {
            "uptime_s": self.uptime_s,
            "requests_served": served,
            "request_errors": errors,
            "requests_shed": shed,
            "deadline_expired": deadline_expired,
            "inflight": self._gate.inflight,
            "batching": self.batching,
            "deployments": self.registry.describe(),
            "batchers": {
                f"{name}@v{version}": batcher.stats().to_dict()
                for (name, version), batcher in sorted(batchers.items())
            },
            "metrics": self.metrics_snapshot(),
        }

    def close(self) -> None:
        """Graceful shutdown: drain and close every batcher."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            batchers = list(self._batchers.values())
            self._batchers.clear()
        for batcher in batchers:
            batcher.close()

    def __enter__(self) -> "RecommenderService":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
