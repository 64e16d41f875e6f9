"""Per-request stage timing: one trace through the whole serving lifecycle.

:class:`RequestTrace` is the one per-request timing record.  The service
opens one trace per request, records the stage it runs on the caller's
thread (``validate``) with :meth:`RequestTrace.record`, and hands the
stages that ran on the batcher's worker thread (``queue``, ``encode``,
``score``, ``merge``) to :meth:`RequestTrace.finish`, which closes the
books: whatever wall-clock time no stage claimed becomes the ``respond``
stage, so the breakdown always sums to the request's total.  The result is
the response's ``stages_ms``, its only timing.

The canonical stage order — shared by the batched, unbatched, sharded and
ANN paths, so clients see one schema no matter how a request was served::

    validate -> queue -> encode -> score -> merge -> respond
"""

from __future__ import annotations

import time
from typing import Dict

#: canonical lifecycle stages, in request order
STAGES = ("validate", "queue", "encode", "score", "merge", "respond")


class RequestTrace:
    """Wall-clock stage accounting for one request.

    Cheap by construction — one ``perf_counter`` read at open, one per
    recorded stage, one at finish, and a dict of floats — so tracing every
    request costs microseconds, never a per-item loop.  Not thread-safe: one
    trace belongs to one request's serving path; cross-thread stages (the
    batcher worker's scoring) report durations that the caller passes to
    :meth:`finish`.
    """

    __slots__ = ("_started", "_stages", "_finished")

    def __init__(self) -> None:
        self._started = time.perf_counter()
        self._stages: Dict[str, float] = {}
        self._finished = False

    def record(self, name: str, ms: float) -> None:
        """Attribute ``ms`` milliseconds to the canonical stage ``name``
        (accumulating; negative durations are clamped — a stage can never
        un-spend time).  ``respond`` is what no stage claimed, so it cannot
        be recorded, and neither can a name outside :data:`STAGES`."""
        if name not in STAGES or name == "respond":
            raise ValueError(f"cannot record stage {name!r}; expected one of "
                             f"{', '.join(STAGES[:-1])}")
        self._stages[name] = self._stages.get(name, 0.0) + max(0.0, float(ms))

    def elapsed_ms(self) -> float:
        """Wall-clock milliseconds since the trace opened."""
        return (time.perf_counter() - self._started) * 1000.0

    def finish(self, queue: float = 0.0, encode: float = 0.0,
               score: float = 0.0, merge: float = 0.0) -> Dict[str, float]:
        """Close the trace: returns the stage breakdown plus ``total``.

        The named parameters are the stages that ran on another thread (the
        batcher worker's scoring call), added to whatever was recorded for
        them here; negative values are clamped.  The full
        ``validate -> queue -> encode -> score -> merge -> respond`` schema
        is emitted, zero-filled where a stage did no work.  Unaccounted
        wall-clock time (dispatch, future hand-off, response assembly)
        lands in ``respond``, clamped at zero, so the stages sum to
        ``total`` whenever accounting is complete and never exceed it
        spuriously.  Idempotent after the first call.  Values are raw
        milliseconds — rounding happens at the serialisation edge
        (``RecommendResponse.to_dict``), not on the hot path.
        """
        if not self._finished:
            recorded = self._stages
            total = (time.perf_counter() - self._started) * 1000.0
            validate = recorded.get("validate", 0.0)
            queue = recorded.get("queue", 0.0) + (queue if queue > 0.0 else 0.0)
            encode = recorded.get("encode", 0.0) + (
                encode if encode > 0.0 else 0.0)
            score = recorded.get("score", 0.0) + (score if score > 0.0 else 0.0)
            merge = recorded.get("merge", 0.0) + (merge if merge > 0.0 else 0.0)
            respond = total - (validate + queue + encode + score + merge)
            self._stages = {
                "validate": validate, "queue": queue, "encode": encode,
                "score": score, "merge": merge,
                "respond": respond if respond > 0.0 else 0.0,
                "total": total,
            }
            self._finished = True
        return self._stages
