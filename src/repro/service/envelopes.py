"""Typed request/response envelopes for the serving API.

Every way into the service — python calls, the JSONL stdio loop, the HTTP
front-end — speaks the same two envelopes.  :class:`RecommendRequest`
validates eagerly (a malformed request fails at the edge with a
:class:`RequestError`, never deep inside a batched matmul), and
:class:`RecommendResponse` carries per-row diagnostics (warm/cold path,
backend used, queue and compute latency, how many requests shared the batch)
so a client can see exactly how it was served.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence


class RequestError(ValueError):
    """A request envelope failed validation (client error, not server fault)."""


#: JSON keys accepted by :meth:`RecommendRequest.from_dict`
_REQUEST_FIELDS = ("history", "k", "deployment", "backend", "exclude_seen",
                   "request_id", "deadline_ms")


@dataclass
class RecommendRequest:
    """One user's recommendation request.

    Attributes
    ----------
    history:
        The user's interaction history (item ids, oldest first).  Ids outside
        the deployment's catalogue are tolerated — the recommender classifies
        such rows onto its cold-start path — but the *types* must be ints.
    k:
        Optional top-K override; ``None`` uses the deployment's default.
    deployment:
        Optional deployment name; ``None`` uses the registry default.
    backend:
        Optional retrieval-backend override (``"exact"`` / ``"ivf"``).
    exclude_seen:
        Optional override of the deployment's seen-item masking.
    request_id:
        Opaque client token echoed back on the response, so responses can be
        matched to requests over a stream.
    deadline_ms:
        Optional end-to-end latency budget in milliseconds.  Fixed into an
        absolute deadline at the service edge and propagated through every
        stage (batcher queue, encode, shard scatter-gather): once it passes,
        the request fails with a deadline error (HTTP 504) instead of
        consuming compute its caller will discard.
    """

    history: Sequence[int]
    k: Optional[int] = None
    deployment: Optional[str] = None
    backend: Optional[str] = None
    exclude_seen: Optional[bool] = None
    request_id: Optional[str] = None
    deadline_ms: Optional[float] = None

    def __post_init__(self) -> None:
        if isinstance(self.history, (str, bytes)) or not isinstance(
                self.history, (list, tuple)):
            raise RequestError(
                f"history must be a list of item ids, got {type(self.history).__name__}"
            )
        cleaned: List[int] = []
        for item in self.history:
            if isinstance(item, bool) or not isinstance(item, int):
                raise RequestError(
                    f"history items must be integers, got {item!r}"
                )
            cleaned.append(int(item))
        self.history = cleaned
        if self.k is not None:
            if isinstance(self.k, bool) or not isinstance(self.k, int) or self.k < 1:
                raise RequestError(f"k must be a positive integer, got {self.k!r}")
        for name in ("deployment", "backend", "request_id"):
            value = getattr(self, name)
            if value is not None and not isinstance(value, str):
                raise RequestError(f"{name} must be a string, got {value!r}")
        if self.exclude_seen is not None and not isinstance(self.exclude_seen, bool):
            raise RequestError(
                f"exclude_seen must be a boolean, got {self.exclude_seen!r}"
            )
        if self.deadline_ms is not None:
            if (isinstance(self.deadline_ms, bool)
                    or not isinstance(self.deadline_ms, (int, float))
                    or not math.isfinite(self.deadline_ms)
                    or self.deadline_ms <= 0):
                raise RequestError(
                    f"deadline_ms must be a positive finite number, "
                    f"got {self.deadline_ms!r}"
                )
            self.deadline_ms = float(self.deadline_ms)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "RecommendRequest":
        """Build a validated request from a JSON mapping.

        Unknown keys are rejected — a typo like ``"histroy"`` should fail
        loudly at the protocol edge, not silently serve a cold-start row.
        """
        if not isinstance(payload, dict):
            raise RequestError(
                f"a request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = sorted(set(payload) - set(_REQUEST_FIELDS))
        if unknown:
            raise RequestError(
                f"unknown request field(s): {', '.join(unknown)} "
                f"(expected a subset of {', '.join(_REQUEST_FIELDS)})"
            )
        if "history" not in payload:
            raise RequestError("a request needs a 'history' field")
        return cls(**{name: payload[name] for name in _REQUEST_FIELDS
                      if name in payload})

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (omits unset optional fields)."""
        payload: Dict[str, Any] = {"history": list(self.history)}
        for name in ("k", "deployment", "backend", "exclude_seen",
                     "request_id", "deadline_ms"):
            value = getattr(self, name)
            if value is not None:
                payload[name] = value
        return payload


@dataclass
class RecommendResponse:
    """The service's answer to one :class:`RecommendRequest`.

    Besides the recommendations themselves, the envelope reports how the
    request was served: which deployment (and deployment version, so a client
    can observe a hot-swap), which retrieval backend and path (warm sequence
    encoder vs cold fallback), which sequence-encoding ``engine`` ran the
    warm rows (``"compiled"`` graph-free plan or the ``"graph"`` fallback)
    and its ``encode_ms`` cost, how long the request waited for its batch
    (``queue_ms``), how long the scoring took (``compute_ms``), and how many
    requests shared that scoring call (``batch_size``).

    ``stages_ms`` is the unified per-request lifecycle breakdown
    (``validate -> queue -> encode -> score -> merge -> respond`` plus
    ``total``, see :mod:`repro.observability.tracing`) — the same schema
    for the batched, unbatched, sharded and ANN paths.  It is empty when
    the service runs with instrumentation disabled (``metrics=False``).
    """

    items: List[int]
    scores: List[float]
    deployment: str
    deployment_version: int
    backend: str
    cold: bool
    k: int
    queue_ms: float
    compute_ms: float
    batch_size: int
    engine: str = "graph"
    encode_ms: float = 0.0
    stages_ms: Dict[str, float] = field(default_factory=dict)
    request_id: Optional[str] = None
    #: served through the resilience layer's degradation fallback (shard
    #: breaker open / retries exhausted) — the top-K is still bit-identical
    #: to the healthy sharded path, but a load balancer may want to drain
    #: a replica answering degraded
    degraded: bool = False
    #: shard scatter-gather retries absorbed serving this request
    shard_retries: int = 0
    extra: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form used by the JSONL and HTTP front-ends."""
        payload: Dict[str, Any] = {
            "items": [int(item) for item in self.items],
            "scores": [float(score) for score in self.scores],
            "deployment": self.deployment,
            "deployment_version": self.deployment_version,
            "backend": self.backend,
            "cold": bool(self.cold),
            "k": self.k,
            "queue_ms": round(float(self.queue_ms), 3),
            "compute_ms": round(float(self.compute_ms), 3),
            "batch_size": self.batch_size,
            "engine": self.engine,
            "encode_ms": round(float(self.encode_ms), 3),
        }
        if self.stages_ms:
            payload["stages_ms"] = {name: round(float(value), 3)
                                    for name, value in self.stages_ms.items()}
        if self.request_id is not None:
            payload["request_id"] = self.request_id
        # degradation diagnostics are emitted only when they carry signal,
        # keeping the healthy-path wire format unchanged
        if self.degraded:
            payload["degraded"] = True
        if self.shard_retries:
            payload["shard_retries"] = int(self.shard_retries)
        if self.extra:
            payload["extra"] = self.extra
        return payload
