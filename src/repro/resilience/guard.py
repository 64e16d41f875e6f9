"""The resilient shard client: retry, breaker, and exact degradation.

:class:`ResilientShardClient` wraps a primary :class:`~repro.shard.ShardClient`
(in production a multi-process :class:`~repro.shard.ShardPool`) and applies
the degradation ladder to every search:

1. **retry** — a :class:`~repro.shard.WorkerCrashed` mid-scatter is retried
   (once, by default) after a jittered backoff.  This is safe because shard
   scoring is idempotent and the merge is a total order (the PR 6 contract):
   the retried search returns the same bits the crashed one would have, and
   the pool has respawned the dead worker in the meantime.
2. **breaker** — every outcome feeds a :class:`CircuitBreaker`.  When the
   failure rate over the sliding window trips it open, searches stop going
   to the pool at all for the cooldown.
3. **degrade** — while the breaker refuses the pool (or when retries are
   exhausted), the search runs on a lazily built in-process fallback client
   instead — the :class:`~repro.shard.LocalShardClient` over the *same*
   matrix, whose results are bit-identical to the healthy pool's by the
   shard parity contract.  The caller gets correct top-K with
   ``degraded=True`` in the per-call info (and HTTP responses carry it in
   their diagnostics); it never sees the crash.

:class:`~repro.shard.ShardTimeout` is *not* retried — a timeout may simply
be the caller's deadline budget running out, and re-running a slow search
doubles the load precisely when the pool is slowest.  It still counts as a
breaker failure, so a persistently slow pool degrades too.

Unknown attributes delegate to the primary client, so the pool's test hooks
(``_post`` / ``_request``) and introspection stay reachable through the
guard.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..shard.client import ShardClient
from ..shard.pool import ShardError, ShardTimeout, WorkerCrashed
from .breaker import CircuitBreaker
from .retry import RetryPolicy


class ResilientShardClient(ShardClient):
    """Retry + circuit breaker + exact in-process degradation around a pool.

    Parameters
    ----------
    primary:
        The guarded client (typically a :class:`~repro.shard.ShardPool`).
    fallback_factory:
        Zero-argument callable building the degradation client (typically a
        :class:`~repro.shard.LocalShardClient` over the same matrix).
        Built lazily on first degradation, reused after.  ``None`` disables
        degradation: exhausted retries and open-breaker refusals re-raise.
    retry / breaker:
        Policy objects (fresh defaults when omitted).
    sleep:
        Backoff sleeper, injectable so tests run without real pauses.
    """

    def __init__(self, primary: ShardClient,
                 fallback_factory: Optional[Callable[[], ShardClient]] = None,
                 *, retry: Optional[RetryPolicy] = None,
                 breaker: Optional[CircuitBreaker] = None,
                 sleep: Callable[[float], None] = time.sleep):
        self._primary = primary
        self._fallback_factory = fallback_factory
        self._fallback: Optional[ShardClient] = None
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self._sleep = sleep
        self._guard_lock = threading.Lock()
        self._retries = 0
        self._degraded = 0
        self._failures = 0

    # ------------------------------------------------------------------ #
    # ShardClient surface (delegation)
    # ------------------------------------------------------------------ #
    @property
    def ranges(self) -> List[Tuple[int, int]]:  # type: ignore[override]
        return self._primary.ranges

    @property
    def num_rows(self) -> int:
        return self._primary.num_rows

    @property
    def dim(self) -> int:
        return self._primary.dim

    def __getattr__(self, name: str) -> Any:
        # Test hooks and pool-specific introspection pass through; only
        # attributes the guard defines are intercepted.
        return getattr(self._primary, name)

    # ------------------------------------------------------------------ #
    # Search with the degradation ladder
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, k: int, *,
               exclude: Optional[Sequence[Sequence[int]]] = None,
               backend: str = "exact",
               timeout: Optional[float] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        ids, scores, _ = self.search_ex(queries, k, exclude=exclude,
                                        backend=backend, timeout=timeout)
        return ids, scores

    def search_ex(self, queries: np.ndarray, k: int, *,
                  exclude: Optional[Sequence[Sequence[int]]] = None,
                  backend: str = "exact",
                  timeout: Optional[float] = None
                  ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """Like ``search``, plus a per-call info dict: whether this call was
        served degraded, how many times it retried, and the breaker state
        it observed."""
        retries_this_call = 0
        if self.breaker.allow():
            attempt = 0
            while True:
                try:
                    ids, scores = self._primary.search(
                        queries, k, exclude=exclude, backend=backend,
                        timeout=timeout)
                except WorkerCrashed as error:
                    self.breaker.record_failure()
                    with self._guard_lock:
                        self._failures += 1
                    if (self.retry.should_retry(attempt)
                            and self.breaker.state != "open"):
                        pause = self.retry.backoff_s(attempt)
                        if pause > 0:
                            self._sleep(pause)
                        attempt += 1
                        retries_this_call += 1
                        with self._guard_lock:
                            self._retries += 1
                        continue
                    return self._degrade(error, queries, k, exclude=exclude,
                                         backend=backend,
                                         retries=retries_this_call)
                except (ShardTimeout, ShardError) as error:
                    # not retried: a timeout may be the caller's own budget
                    # expiring, and doubling a slow search doubles the load
                    self.breaker.record_failure()
                    with self._guard_lock:
                        self._failures += 1
                    raise error
                else:
                    self.breaker.record_success()
                    return ids, scores, self._info(False, retries_this_call)
        return self._degrade(None, queries, k, exclude=exclude,
                             backend=backend, retries=retries_this_call)

    def _degrade(self, error: Optional[BaseException], queries, k, *,
                 exclude, backend, retries: int
                 ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        fallback = self._ensure_fallback()
        if fallback is None:
            if error is not None:
                raise error
            raise ShardError(
                "shard-pool circuit breaker is open and no degradation "
                "fallback is configured")
        ids, scores = fallback.search(queries, k, exclude=exclude,
                                      backend=backend)
        with self._guard_lock:
            self._degraded += 1
        return ids, scores, self._info(True, retries)

    def _ensure_fallback(self) -> Optional[ShardClient]:
        if self._fallback_factory is None:
            return None
        with self._guard_lock:
            if self._fallback is None:
                self._fallback = self._fallback_factory()
            return self._fallback

    def _info(self, degraded: bool, retries: int) -> Dict[str, Any]:
        return {"degraded": degraded, "retries": retries,
                "breaker_state": self.breaker.state}

    # ------------------------------------------------------------------ #
    # Introspection & lifecycle
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, Any]:
        """Primary-client stats merged with the guard's counters — the shape
        the service's scrape-time collectors read."""
        primary_stats = getattr(self._primary, "stats", None)
        merged: Dict[str, Any] = dict(primary_stats()
                                      if callable(primary_stats) else {})
        with self._guard_lock:
            merged.update({
                "retries": self._retries,
                "degraded_requests": self._degraded,
                "guard_failures": self._failures,
                "fallback_built": self._fallback is not None,
            })
        merged["breaker"] = self.breaker.stats()
        merged["breaker_state"] = merged["breaker"]["state"]
        return merged

    def close(self) -> None:
        with self._guard_lock:
            fallback, self._fallback = self._fallback, None
        try:
            if fallback is not None:
                fallback.close()
        finally:
            self._primary.close()
