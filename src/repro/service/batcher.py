"""Dynamic micro-batching: coalesce concurrent requests into one big matmul.

The serving substrate is fastest on batches (one GEMM for a whole batch of
users — PR 1's batched scoring over PR 3's fused kernels), but production
traffic arrives as single-user requests.  The :class:`DynamicBatcher` bridges
the two: callers submit one history each and block on a future; a worker
pops whatever is queued (up to ``max_batch_size``) as soon as it is free,
groups the haul by serving policy, and answers each group with a single
``Recommender.topk`` call.  No request waits for company: batches form from
the requests that arrive while the previous batch is being scored, so an
idle service answers at once and a busy one coalesces in proportion to its
load.  A positive ``max_wait_ms`` adds a fixed window after the first
pending request, for callers that need deterministic batch compositions.

Losslessness: the exact float32 scoring path is batch-composition independent
(see ``repro.nn.functional.pad_scoring_rows`` — tiny batches are padded onto
the same GEMM kernel family as large ones), each row of a batched call
is computed independently, and requests asking for different ``k`` are served
from one call at ``max(k)`` and trimmed per row (the top-k of a sorted
top-max-k *is* the top-k, because the ordering — score descending, then
smaller id — is a total order).  So a coalesced response is bit-identical,
ids and scores, to the direct single-request call.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..resilience import BatcherCrashed, DeadlineExceeded
from ..serving import Recommender, ServingConfig, TopKResult


@dataclass(frozen=True)
class BatchedResult:
    """Per-request outcome delivered through a submit future (see
    :func:`row_result`).

    ``queue_ms`` is the time the request spent waiting for its batch to be
    assembled; ``batch_size`` how many requests the scoring call served.
    ``engine`` names the sequence-encoding engine that ran the call's warm
    rows; ``encode_ms`` / ``score_ms`` / ``merge_ms`` are that call's
    ``encode``, ``score`` and ``merge`` stages (per call, not per row).
    """

    items: np.ndarray
    scores: np.ndarray
    cold: bool
    backend: str
    queue_ms: float
    batch_size: int
    engine: str = "graph"
    encode_ms: float = 0.0
    score_ms: float = 0.0
    merge_ms: float = 0.0
    #: served through the in-process degradation fallback (shard breaker
    #: open or retries exhausted) — still bit-identical top-K
    degraded: bool = False
    #: shard scatter-gather retries this call absorbed
    shard_retries: int = 0


def row_result(result: TopKResult, row: int, k: int, backend: str,
               queue_ms: float, batch_size: int) -> BatchedResult:
    """Row ``row`` of one ``Recommender.topk`` call as one request's result,
    trimmed to the request's ``k`` (the batched and the direct path both
    cut their rows here)."""
    k = min(k, result.items.shape[1])
    return BatchedResult(
        items=result.items[row, :k].copy(),
        scores=result.scores[row, :k].copy(),
        cold=bool(result.cold[row]), backend=backend, queue_ms=queue_ms,
        batch_size=batch_size, engine=result.engine,
        encode_ms=result.encode_ms, score_ms=result.score_ms,
        merge_ms=result.merge_ms, degraded=result.degraded,
        shard_retries=result.shard_retries,
    )


@dataclass
class BatcherStats:
    """Counters exposed by :meth:`DynamicBatcher.stats` (a snapshot copy)."""

    submitted: int = 0
    completed: int = 0
    failed: int = 0
    ticks: int = 0
    scoring_calls: int = 0
    max_batch_observed: int = 0
    #: requests whose deadline passed before scoring (failed at dequeue)
    expired: int = 0
    #: requests whose caller cancelled them while queued (never scored)
    cancelled: int = 0
    #: worker-thread deaths (each fails every parked future, never strands)
    worker_crashes: int = 0

    @property
    def mean_batch_size(self) -> float:
        if self.scoring_calls == 0:
            return 0.0
        return self.completed / self.scoring_calls

    def to_dict(self) -> Dict[str, Any]:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "ticks": self.ticks,
            "scoring_calls": self.scoring_calls,
            "max_batch_observed": self.max_batch_observed,
            "expired": self.expired,
            "cancelled": self.cancelled,
            "worker_crashes": self.worker_crashes,
            "mean_batch_size": round(self.mean_batch_size, 2),
        }


def check_batching_knobs(max_batch_size: int, max_wait_ms: float) -> None:
    """Raise :class:`ValueError` for a batch cap below 1 or a negative
    wait window (shared by the batcher and the service that configures it,
    so a bad knob fails at construction, not on the first request)."""
    if max_batch_size < 1:
        raise ValueError(f"max_batch_size must be >= 1, got {max_batch_size}")
    if max_wait_ms < 0:
        raise ValueError(f"max_wait_ms must be >= 0, got {max_wait_ms}")


@dataclass
class _Pending:
    """One queued request: its history, resolved policy, and delivery future.

    ``enqueued_at`` is captured explicitly at the top of
    :meth:`DynamicBatcher.submit` — not via a dataclass field default — so
    queue-time attribution starts when the caller handed the request over,
    and can never be skewed by whatever work happens to run between
    construction-time default evaluation and the actual enqueue.
    """

    sequence: Sequence[int]
    config: ServingConfig
    future: "Future[BatchedResult]"
    enqueued_at: float
    #: absolute ``time.monotonic()`` deadline, or ``None`` (no deadline).
    #: Distinct clock from ``enqueued_at`` (perf_counter) — the two are
    #: never compared against each other.
    deadline: Optional[float] = None


class DynamicBatcher:
    """Thread-safe request coalescer in front of one :class:`Recommender`.

    Parameters
    ----------
    recommender:
        The recommender every batch is scored through.
    config:
        Default serving policy for submitted requests (defaults to the
        recommender's own config).
    max_batch_size:
        Hard cap on requests per scoring call.
    max_wait_ms:
        ``0`` (the default): each tick takes whatever is queued the moment
        the worker is free, so coalescing comes from requests that arrived
        during the previous batch.  A positive value makes the first request
        of a tick wait up to that long for company; it only serves callers
        that need deterministic batch compositions, and costs every lone
        request the whole window.
    start:
        Start the background worker immediately.  ``start=False`` leaves the
        batcher in manual mode — nothing is processed until :meth:`flush` —
        which tests use to assemble deterministic batch compositions.

    The queue itself is unbounded: admission is the service's job.  Behind
    :class:`~repro.service.RecommenderService` it never holds more requests
    than the service's ``max_inflight`` gate has admitted.
    """

    def __init__(self, recommender: Recommender,
                 config: Optional[ServingConfig] = None,
                 max_batch_size: int = 64, max_wait_ms: float = 0.0,
                 start: bool = True):
        check_batching_knobs(max_batch_size, max_wait_ms)
        self.recommender = recommender
        self.config = config if config is not None else recommender.config
        self.max_batch_size = max_batch_size
        self.max_wait_ms = max_wait_ms
        self._queue: Deque[_Pending] = deque()
        self._wake = threading.Condition(threading.Lock())
        self._closed = False
        self._stats = BatcherStats()
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None
        if start:
            self.start()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(self) -> None:
        """Start the background worker (idempotent)."""
        with self._wake:
            if self._closed:
                raise RuntimeError("batcher is closed")
            if self._worker is not None:
                return
            self._worker = threading.Thread(
                target=self._run, name="repro-dynamic-batcher", daemon=True
            )
            self._worker.start()

    def close(self, timeout: Optional[float] = 5.0) -> None:
        """Graceful shutdown: stop accepting, drain the queue, join the worker."""
        with self._wake:
            if self._closed:
                worker = self._worker
            else:
                self._closed = True
                worker = self._worker
                self._wake.notify_all()
        if worker is not None:
            worker.join(timeout)
        # Manual mode (or a worker that died) may leave requests queued.
        self.flush()

    def __enter__(self) -> "DynamicBatcher":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    @property
    def closed(self) -> bool:
        with self._wake:
            return self._closed

    @property
    def queue_depth(self) -> int:
        """Requests currently queued (not yet popped into a batch)."""
        with self._wake:
            return len(self._queue)

    @property
    def worker_error(self) -> Optional[BaseException]:
        """The exception that killed the worker thread, if it died."""
        with self._wake:
            return self._worker_error

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #
    def submit(self, sequence: Sequence[int], k: Optional[int] = None,
               exclude_seen: Optional[bool] = None,
               backend: Optional[str] = None,
               deadline: Optional[float] = None) -> "Future[BatchedResult]":
        """Enqueue one request; returns a future resolving to
        :class:`BatchedResult`.  Overrides are validated here, in the caller's
        thread, so a bad request can never poison a shared batch.

        ``deadline`` is an absolute ``time.monotonic()`` timestamp: a
        request still queued when it passes is failed with
        :class:`~repro.resilience.DeadlineExceeded` at dequeue instead of
        being scored for a caller who already gave up.  Cancelling the
        future while the request is still queued drops it unscored.
        """
        enqueued_at = time.perf_counter()
        config = self.config.with_overrides(k=k, exclude_seen=exclude_seen,
                                            backend=backend)
        future: "Future[BatchedResult]" = Future()
        with self._wake:
            if self._closed:
                raise RuntimeError("cannot submit to a closed batcher")
            self._queue.append(_Pending(sequence, config, future, enqueued_at,
                                        deadline))
            self._stats.submitted += 1
            # Wake the worker only when its state changes: the first arrival
            # opens a tick, a full batch ends the wait window early.  Waking
            # it for every in-between arrival would just churn the GIL — its
            # timed wait already covers them.
            if len(self._queue) == 1 or len(self._queue) >= self.max_batch_size:
                self._wake.notify_all()
        return future

    def flush(self) -> int:
        """Synchronously process everything currently queued (caller thread).

        Returns the number of requests served.  This is the manual-mode
        engine and the close() drain; it is safe to call concurrently with a
        running worker (each request is popped exactly once, under the lock).
        """
        served = 0
        while True:
            with self._wake:
                if not self._queue:
                    return served
                batch = self._pop_batch_locked()
            self._process(batch)
            served += len(batch)

    def stats(self) -> BatcherStats:
        """A point-in-time copy of the counters."""
        with self._wake:
            return BatcherStats(**vars(self._stats))

    # ------------------------------------------------------------------ #
    # Worker
    # ------------------------------------------------------------------ #
    def _pop_batch_locked(self) -> List[_Pending]:
        take = min(len(self._queue), self.max_batch_size)
        return [self._queue.popleft() for _ in range(take)]

    def _next_batch(self) -> Optional[List[_Pending]]:
        """Block until a batch is due; None means the batcher is shut down."""
        with self._wake:
            while not self._queue:
                if self._closed:
                    return None
                self._wake.wait()
            # First arrival opens the window: collect company until the
            # deadline, the size cap, or shutdown — whichever comes first.
            if self.max_wait_ms > 0:
                deadline = self._queue[0].enqueued_at + self.max_wait_ms / 1000.0
                while (len(self._queue) < self.max_batch_size
                       and not self._closed):
                    remaining = deadline - time.perf_counter()
                    if remaining <= 0:
                        break
                    self._wake.wait(remaining)
                if not self._queue:  # a concurrent flush() drained us
                    return [] if not self._closed else None
            return self._pop_batch_locked()

    def _run(self) -> None:
        batch: List[_Pending] = []
        try:
            while True:
                batch = self._next_batch()
                if batch is None:
                    return
                if batch:
                    self._process(batch)
                batch = []
        except BaseException as error:  # the worker must never strand futures
            self._abort(error, batch)

    def _abort(self, error: BaseException, inflight: List[_Pending]) -> None:
        """The worker died unexpectedly: fail every parked future with a
        typed error (never strand a caller), record the crash, and close the
        batcher — the service serves subsequent requests unbatched."""
        with self._wake:
            stranded = inflight + list(self._queue)
            self._queue.clear()
            self._closed = True
            self._worker_error = error
            self._stats.worker_crashes += 1
            self._wake.notify_all()
        crash = BatcherCrashed(
            f"batcher worker thread died: {type(error).__name__}: {error}")
        crash.__cause__ = error
        failed = 0
        for pending in stranded:
            if not pending.future.done():
                pending.future.set_exception(crash)
                failed += 1
        with self._wake:
            self._stats.failed += failed

    def _process(self, batch: List[_Pending]) -> None:
        """Serve one popped batch: group by policy, one topk call per group.

        A request whose future its caller cancelled while it was queued is
        dropped unscored.  Requests whose deadline already passed are failed
        here, *before* scoring — an expired request must never consume
        catalogue compute.
        """
        started = time.perf_counter()
        now = time.monotonic()
        popped = len(batch)
        batch = [pending for pending in batch
                 if pending.future.set_running_or_notify_cancel()]
        live: List[_Pending] = []
        expired = 0
        for pending in batch:
            if pending.deadline is not None and now >= pending.deadline:
                expired += 1
                pending.future.set_exception(DeadlineExceeded(
                    "deadline expired while queued for batching"))
            else:
                live.append(pending)

        groups: Dict[Tuple[str, bool], List[_Pending]] = {}
        for pending in live:
            key = (pending.config.backend, pending.config.exclude_seen)
            groups.setdefault(key, []).append(pending)

        scoring_calls = 0
        failed = 0
        for (backend, exclude_seen), members in groups.items():
            k_max = max(pending.config.k for pending in members)
            call_config = self.config.with_overrides(
                k=k_max, backend=backend, exclude_seen=exclude_seen,
            )
            # The group's scoring runs under the *loosest* member deadline:
            # a tight-deadline member must not cut short a batch-mate's
            # still-affordable search (its own expiry was handled above).
            deadlines = [pending.deadline for pending in members]
            group_deadline = (max(deadlines)
                              if all(d is not None for d in deadlines)
                              else None)
            try:
                result = self.recommender.topk(
                    [pending.sequence for pending in members],
                    config=call_config, deadline=group_deadline,
                )
            except Exception as error:  # deliver, don't kill the worker
                failed += len(members)
                for pending in members:
                    pending.future.set_exception(error)
                continue
            scoring_calls += 1
            for row, pending in enumerate(members):
                pending.future.set_result(row_result(
                    result, row, pending.config.k, backend,
                    queue_ms=(started - pending.enqueued_at) * 1000.0,
                    batch_size=len(members)))

        with self._wake:
            self._stats.ticks += 1
            self._stats.scoring_calls += scoring_calls
            self._stats.completed += len(live) - failed
            self._stats.failed += failed
            self._stats.expired += expired
            self._stats.cancelled += popped - len(batch)
            self._stats.max_batch_observed = max(
                self._stats.max_batch_observed, len(batch))
