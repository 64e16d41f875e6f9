"""The graph-free inference engine: compiled plan + stats.

:class:`InferenceEngine` is what the serving layer holds instead of calling
``model.encode_sequences`` directly.  Its :meth:`encode_sequences` mirrors
that method's signature (padded ids + lengths + item matrix in, user matrix
out), and the serving layer scores its output with
:func:`repro.nn.functional.padded_catalogue_scores`, the kernel evaluation
uses.  Every call runs the compiled plan on the full batch —
bit-identical to the ``no_grad`` graph path at equal dtype.

The engine serialises encodes with a lock: compiled programs write into
shared arena buffers, and the serving layer calls from batcher workers and
request threads concurrently.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Optional

import numpy as np

from .plans import InferencePlan, UnsupportedModelError, compile_plan


class InferenceEngine:
    """Serve a trained model's sequence encoder without the autodiff graph.

    Parameters
    ----------
    model:
        A trained :class:`repro.models.base.NextItemRecommender`; compiled
        immediately (raises :class:`UnsupportedModelError` when no plan
        matches its encode path).
    max_programs:
        LRU bound on shape-specialised programs kept per plan.
    """

    def __init__(self, model, max_programs: int = 8):
        self.plan: InferencePlan = compile_plan(model, max_programs=max_programs)
        self._lock = threading.Lock()
        self.encode_calls = 0
        self.encoded_rows = 0
        self.last_encode_ms = 0.0
        self.total_encode_ms = 0.0

    @property
    def family(self) -> str:
        return self.plan.family

    # ------------------------------------------------------------------ #
    # Encoding
    # ------------------------------------------------------------------ #
    def encode_sequences(self, item_ids: np.ndarray, lengths: np.ndarray,
                         item_matrix: Optional[np.ndarray] = None) -> np.ndarray:
        """Drop-in replacement for ``model.encode_sequences``, bit-identical
        to the graph path.

        ``item_matrix`` is required (the engine has no item encoder; the
        serving layer always passes its cached matrix).
        """
        if item_matrix is None:
            raise ValueError(
                "the compiled engine needs the precomputed item matrix; "
                "pass item_matrix= (see Recommender.item_matrix)"
            )
        item_ids = np.ascontiguousarray(np.asarray(item_ids, dtype=np.int64))
        lengths = np.asarray(lengths, dtype=np.int64)
        started = time.perf_counter()
        with self._lock:
            users = self.plan.encode(item_ids, lengths, item_matrix)
            self.encode_calls += 1
            self.encoded_rows += int(item_ids.shape[0])
            self.last_encode_ms = (time.perf_counter() - started) * 1000.0
            self.total_encode_ms += self.last_encode_ms
        return users

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    def stats(self) -> Dict[str, object]:
        """JSON-serialisable counters (plan, arena, timings)."""
        with self._lock:
            return {
                "engine": "compiled",
                "encode_calls": self.encode_calls,
                "encoded_rows": self.encoded_rows,
                "total_encode_ms": round(self.total_encode_ms, 3),
                "plan": self.plan.describe(),
            }
