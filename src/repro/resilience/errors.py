"""Typed failures of the resilient serving layer.

Every failure mode the resilience machinery can produce has its own
exception class, so front-ends can map them to protocol-level outcomes
without string matching: :class:`OverloadError` becomes HTTP 429 (with a
``Retry-After`` hint), :class:`DeadlineExceeded` becomes HTTP 504, and
:class:`BatcherCrashed` — a batcher worker thread dying with an unexpected
exception — fails every parked future instead of stranding them, and is an
HTTP 500 like any other internal fault.
"""

from __future__ import annotations


class ResilienceError(RuntimeError):
    """Base class for every resilience-layer failure."""


class OverloadError(ResilienceError):
    """The service refused new work to protect work already admitted.

    Raised by the service-edge max-inflight gate when a request (or every
    request of a burst, which is admitted or shed whole) would exceed
    ``max_inflight``.  Clients should back off and retry (the HTTP front-end
    answers 429 with a ``Retry-After`` header).  A burst larger than
    ``max_inflight`` is a request error instead: no retry could admit it.
    """

    #: seconds a client should wait before retrying (the HTTP front-end's
    #: ``Retry-After`` value)
    retry_after_s: float = 1.0

    def __init__(self, message: str, retry_after_s: float = 1.0):
        super().__init__(message)
        self.retry_after_s = float(retry_after_s)


class DeadlineExceeded(ResilienceError):
    """The request's deadline passed before it could be served.

    Raised at every stage boundary a request crosses — admission, batcher
    dequeue, pre-scoring — so an expired request never consumes catalogue
    compute its caller will throw away.  Maps to HTTP 504.
    """


class BatcherCrashed(ResilienceError):
    """The batcher's worker thread died with an unexpected exception.

    Every future that was parked in the queue at the time is failed with
    this error (carrying the original exception as ``__cause__``-style text)
    instead of hanging forever; the batcher marks itself closed and the
    service serves subsequent requests unbatched.
    """
