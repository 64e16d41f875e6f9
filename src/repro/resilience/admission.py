"""Admission control: refuse work early instead of queueing into collapse.

One bound, at the :class:`~repro.service.RecommenderService` edge: the
:class:`InflightGate` caps concurrently admitted requests.  A burst of N
requests takes N slots, all or nothing, so every batcher queue behind the
gate holds at most ``max_inflight`` requests and needs no bound of its own,
and a slow downstream can never accumulate an unbounded number of waiting
caller threads.  Arrivals beyond the cap shed with a typed
:class:`~repro.resilience.errors.OverloadError` (HTTP 429), never by
blocking the caller or dropping work silently.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from .errors import OverloadError


class InflightGate:
    """A non-blocking concurrency limiter for the service edge.

    ``acquire`` admits up to ``limit`` concurrent holders and raises
    :class:`OverloadError` beyond that — it never blocks, because a caller
    queueing *here* is exactly the unbounded-wait failure mode admission
    control exists to prevent.  ``limit=None`` disables the gate (every
    acquire succeeds).  A burst larger than ``limit`` can never be
    admitted.  Use as a context manager around one request.
    """

    def __init__(self, limit: Optional[int] = None,
                 retry_after_s: float = 1.0):
        if limit is not None and limit < 1:
            raise ValueError(f"max_inflight must be >= 1, got {limit}")
        self.limit = limit
        self.retry_after_s = float(retry_after_s)
        self._lock = threading.Lock()
        self._inflight = 0
        self._peak = 0
        self._rejected = 0

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._inflight

    @property
    def rejected(self) -> int:
        with self._lock:
            return self._rejected

    @property
    def peak(self) -> int:
        with self._lock:
            return self._peak

    def acquire(self, count: int = 1) -> None:
        """Admit ``count`` requests at once, or none of them."""
        with self._lock:
            if self.limit is not None and self._inflight + count > self.limit:
                self._rejected += count
                raise OverloadError(
                    f"max inflight requests reached "
                    f"({self._inflight}+{count} > {self.limit}); retry later",
                    retry_after_s=self.retry_after_s)
            self._inflight += count
            self._peak = max(self._peak, self._inflight)

    def release(self, count: int = 1) -> None:
        with self._lock:
            self._inflight = max(0, self._inflight - count)

    def __enter__(self) -> "InflightGate":
        self.acquire()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.release()
