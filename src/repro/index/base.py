"""Common API, registry and persistence for item-vector indexes.

Every index maps a set of item vectors (rows of a ``(n, d)`` matrix, each
carrying an integer item id) to a ``search(queries, k)`` primitive returning
the best-scoring ids per query.  Scores follow a single convention across
metrics — **higher is better**: the raw inner product for ``metric="ip"``
(the serving layer's ``V s`` scoring, Eqn. 1) and the *negated* squared
euclidean distance for ``metric="l2"``.

Persistence mirrors the ``repro.models.checkpoint`` conventions:
one ``.npz`` per index holding the state arrays plus a JSON metadata blob
under ``__metadata__``, written atomically through a temporary file.  Loading
dispatches on the recorded ``kind`` through the registry, so
:func:`load_index` round-trips any registered index class.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Type, Union

import numpy as np

PathLike = Union[str, Path]

_METADATA_KEY = "__metadata__"
_METRICS = ("ip", "l2")

_INDEX_REGISTRY: Dict[str, Type["ItemIndex"]] = {}


def register_index(cls: Type["ItemIndex"]) -> Type["ItemIndex"]:
    """Class decorator: make an index constructible via :func:`build_index`."""
    if not cls.kind or cls.kind == "base":
        raise ValueError("index classes must define a unique `kind` label")
    _INDEX_REGISTRY[cls.kind] = cls
    return cls


def available_indexes() -> Tuple[str, ...]:
    """Registered index kinds, sorted."""
    return tuple(sorted(_INDEX_REGISTRY))


def build_index(kind: str, **kwargs) -> "ItemIndex":
    """Instantiate a registered index by its ``kind`` label."""
    key = str(kind).strip().lower()
    if key not in _INDEX_REGISTRY:
        raise KeyError(
            f"unknown index kind {kind!r}; available: {', '.join(available_indexes())}"
        )
    return _INDEX_REGISTRY[key](**kwargs)


def topk_best_first(ids: np.ndarray, scores: np.ndarray, k: int):
    """Extract the top ``k`` of padded candidate rows, best score first.

    ``ids``/``scores`` are ``(batch, width)`` with ``-1`` / ``-inf`` padding
    in unused slots.  ``np.argpartition`` isolates the K best candidates in
    O(width); a lexsort then orders them by ``(-score, id)`` so ties break
    towards the smaller item id — the same convention as
    :func:`repro.serving.full_sort_topk`.  Rows with fewer than ``k`` real
    candidates keep their ``-1`` / ``-inf`` padding in the trailing slots.

    The ``(-score, id)`` order is honoured as a *total* order, including at
    the selection boundary: when several candidates tie at the k-th best
    score, the ones with the smallest ids are kept.  ``argpartition`` alone
    breaks such ties arbitrarily (by memory layout), which would make the
    result depend on how the candidate row was assembled — per-shard top-K
    blocks merged by :mod:`repro.shard` could then legitimately disagree
    with single-process scoring.  The repair below costs one extra
    comparison pass, and per-row work only on rows whose boundary score is
    actually duplicated outside the kept set.
    """
    k = min(int(k), scores.shape[1])
    if k < scores.shape[1]:
        keep = np.argpartition(scores, -k, axis=1)[:, -k:]
        kept_scores = np.take_along_axis(scores, keep, axis=1)
        boundary = kept_scores.min(axis=1, keepdims=True)
        tied_kept = (kept_scores == boundary).sum(axis=1)
        tied_all = (scores == boundary).sum(axis=1)
        for row in np.nonzero(tied_all > tied_kept)[0]:
            definite = keep[row][kept_scores[row] > boundary[row, 0]]
            tied = np.nonzero(scores[row] == boundary[row, 0])[0]
            slots = k - definite.size
            best_tied = tied[np.argsort(ids[row, tied],
                                        kind="stable")[:slots]]
            keep[row] = np.concatenate([definite, best_tied])
    else:
        keep = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    kept_ids = np.take_along_axis(ids, keep, axis=1)
    kept_scores = np.take_along_axis(scores, keep, axis=1)
    order = np.lexsort((kept_ids, -kept_scores), axis=1)[:, :k]
    return (np.take_along_axis(kept_ids, order, axis=1),
            np.take_along_axis(kept_scores, order, axis=1))


class ItemIndex:
    """Abstract ``build`` / ``search`` / ``add`` / ``save`` / ``load`` API.

    Subclasses implement the four state hooks (:meth:`build`, :meth:`search`,
    :meth:`add`, plus the ``_state_arrays`` / ``_metadata`` / ``_restore``
    persistence triplet); the base class owns validation helpers and the
    shared ``.npz`` round trip.
    """

    #: registry label; concrete indexes override it
    kind = "base"

    def __init__(self, metric: str = "ip"):
        metric = str(metric).strip().lower()
        if metric not in _METRICS:
            raise ValueError(f"metric must be one of {_METRICS}, got {metric!r}")
        self.metric = metric

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        raise NotImplementedError

    def __len__(self) -> int:
        """Number of indexed vectors."""
        raise NotImplementedError

    @property
    def dim(self) -> int:
        """Dimensionality of the indexed vectors."""
        raise NotImplementedError

    @property
    def last_scan_counts(self) -> Optional[np.ndarray]:
        """Per-query count of candidate vectors scored by the last search.

        ``None`` before the first search.  Benchmarks use this to assert
        that an approximate search really touched only a fraction of the
        catalogue.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #
    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "ItemIndex":
        """Index ``vectors`` (rows) under ``ids`` (default ``0..n-1``)."""
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int, **kwargs):
        """Top-``k`` ``(ids, scores)`` per query row, best first.

        Both outputs have shape ``(batch, k)`` (``k`` clamped to the index
        size); slots without a real candidate hold id ``-1`` and score
        ``-inf``.
        """
        raise NotImplementedError

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
        """Append new vectors to an already-built index; returns their ids.

        ``ids`` defaults to continuing past the current maximum id.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Shared validation helpers
    # ------------------------------------------------------------------ #
    def _check_built(self) -> None:
        if not self.is_built:
            raise RuntimeError(f"{type(self).__name__} has not been built yet")

    @staticmethod
    def _validate_vectors(vectors: np.ndarray) -> np.ndarray:
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[0] == 0:
            raise ValueError("vectors must be a non-empty 2-D (n, d) array")
        return vectors

    @staticmethod
    def _resolve_ids(ids: Optional[np.ndarray], count: int, start: int = 0) -> np.ndarray:
        if ids is None:
            ids = np.arange(start, start + count, dtype=np.int64)
        ids = np.asarray(ids, dtype=np.int64)
        if ids.shape != (count,):
            raise ValueError(f"ids must be a 1-D array of length {count}")
        if np.any(ids < 0):
            raise ValueError("ids must be non-negative (-1 is the padding id)")
        return ids

    def _validate_queries(self, queries: np.ndarray) -> np.ndarray:
        queries = np.asarray(queries)
        if queries.ndim == 1:
            queries = queries[None, :]
        if queries.ndim != 2 or queries.shape[1] != self.dim:
            raise ValueError(f"queries must have shape (batch, {self.dim})")
        return queries

    def _affinity(self, queries: np.ndarray, vectors: np.ndarray) -> np.ndarray:
        """``(batch, n)`` higher-is-better scores under this index's metric."""
        if self.metric == "ip":
            return queries @ vectors.T
        from .kmeans import pairwise_sq_distances

        return -pairwise_sq_distances(queries, vectors)

    # ------------------------------------------------------------------ #
    # Persistence (repro.models.checkpoint conventions: npz + JSON metadata,
    # atomic temporary-file write)
    # ------------------------------------------------------------------ #
    def _state_arrays(self) -> Dict[str, np.ndarray]:
        raise NotImplementedError

    def _metadata(self) -> Dict[str, Any]:
        raise NotImplementedError

    def _restore(self, arrays: Dict[str, np.ndarray], metadata: Dict[str, Any]) -> None:
        raise NotImplementedError

    def save(self, path: PathLike) -> Path:
        """Write the index to a single ``.npz`` file (directories created)."""
        self._check_built()
        path = Path(path)
        if path.suffix != ".npz":
            path = path.with_suffix(path.suffix + ".npz")
        path.parent.mkdir(parents=True, exist_ok=True)
        metadata = {"kind": self.kind, "metric": self.metric}
        metadata.update(self._metadata())
        arrays = dict(self._state_arrays())
        arrays[_METADATA_KEY] = np.asarray(json.dumps(metadata))
        temporary = path.with_suffix(path.suffix + ".tmp")
        with open(temporary, "wb") as handle:
            np.savez(handle, **arrays)
        temporary.replace(path)
        return path

    @classmethod
    def load(cls, path: PathLike) -> "ItemIndex":
        """Load an index saved by :meth:`save`.

        Called on :class:`ItemIndex` it dispatches on the stored ``kind``;
        called on a subclass it additionally checks the kinds match.
        """
        path = Path(path)
        if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
            path = path.with_suffix(path.suffix + ".npz")
        with np.load(path, allow_pickle=False) as data:
            if _METADATA_KEY not in data:
                raise ValueError(f"{path!s} is not a repro item index file")
            metadata = json.loads(str(data[_METADATA_KEY][()]))
            arrays = {key: np.array(data[key]) for key in data.files
                      if key != _METADATA_KEY}
        kind = metadata.get("kind")
        if cls is ItemIndex:
            if kind not in _INDEX_REGISTRY:
                raise ValueError(f"{path!s} holds unknown index kind {kind!r}")
            klass = _INDEX_REGISTRY[kind]
        else:
            if kind != cls.kind:
                raise ValueError(
                    f"{path!s} holds a {kind!r} index, not {cls.kind!r}"
                )
            klass = cls
        index = klass(metric=metadata["metric"])
        index._restore(arrays, metadata)
        return index


def load_index(path: PathLike) -> ItemIndex:
    """Load any registered index from an ``.npz`` written by ``save``."""
    return ItemIndex.load(path)


@register_index
class FlatIndex(ItemIndex):
    """Exact brute-force index: the reference the ANN indexes are scored against.

    ``search`` scores every indexed vector (``last_scan_counts`` is the full
    index size) with one matmul and extracts the top K by
    :func:`topk_best_first` — identical results, and tie-breaking, to the
    serving layer's dense path restricted to the indexed ids.
    """

    kind = "flat"

    def __init__(self, metric: str = "ip"):
        super().__init__(metric=metric)
        self._vectors: Optional[np.ndarray] = None
        self._ids: Optional[np.ndarray] = None
        self._last_scan_counts: Optional[np.ndarray] = None

    @property
    def is_built(self) -> bool:
        return self._vectors is not None

    def __len__(self) -> int:
        return 0 if self._vectors is None else self._vectors.shape[0]

    @property
    def dim(self) -> int:
        self._check_built()
        return self._vectors.shape[1]

    @property
    def last_scan_counts(self) -> Optional[np.ndarray]:
        return self._last_scan_counts

    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "FlatIndex":
        vectors = self._validate_vectors(vectors)
        self._vectors = np.array(vectors)
        self._ids = self._resolve_ids(ids, vectors.shape[0])
        return self

    def search(self, queries: np.ndarray, k: int, **kwargs):
        self._check_built()
        queries = self._validate_queries(queries).astype(self._vectors.dtype,
                                                         copy=False)
        scores = self._affinity(queries, self._vectors)
        ids = np.broadcast_to(self._ids, scores.shape)
        self._last_scan_counts = np.full(queries.shape[0], len(self),
                                         dtype=np.int64)
        return topk_best_first(ids, scores, k)

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
        self._check_built()
        vectors = self._validate_vectors(vectors)
        if vectors.shape[1] != self.dim:
            raise ValueError(f"new vectors must have dimension {self.dim}")
        ids = self._resolve_ids(ids, vectors.shape[0],
                                start=int(self._ids.max()) + 1 if len(self) else 0)
        self._vectors = np.concatenate(
            [self._vectors, vectors.astype(self._vectors.dtype, copy=False)]
        )
        self._ids = np.concatenate([self._ids, ids])
        return ids

    def _state_arrays(self) -> Dict[str, np.ndarray]:
        return {"vectors": self._vectors, "ids": self._ids}

    def _metadata(self) -> Dict[str, Any]:
        return {"num_vectors": len(self), "dim": self.dim}

    def _restore(self, arrays: Dict[str, np.ndarray], metadata: Dict[str, Any]) -> None:
        self._vectors = arrays["vectors"]
        self._ids = arrays["ids"].astype(np.int64)
