"""Fit-once cache of whitened item embedding tables.

The paper's Sec. IV-E observes that whitening is a *pre-computable*
pre-processing step: the transform is estimated once from the frozen
pre-trained text embeddings and never changes afterwards.  At serving time
this means every whitened variant of the item matrix can be computed once,
memoised, and shared across requests (and across models that use the same
whitening specification).

:class:`EmbeddingStore` owns the padded ``(num_items + 1, d_t)`` feature
table, hands out whitened variants keyed by ``(method, groups, eps)``, and
keeps the fitted :class:`~repro.whitening.base.WhiteningTransform` objects
around so that items added to the catalogue *after* fitting can be projected
into the same whitened space without re-estimating any statistics
(:meth:`encode_new_items`).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..index import ItemIndex, build_index
from ..whitening import build_whitening
from ..whitening.base import WhiteningTransform
from ..whitening.group import GroupSpec
from .generations import GenerationClock, GenerationalCache

CacheKey = Tuple[str, str, float]
IndexKey = Tuple[CacheKey, str, Tuple[Tuple[str, str], ...]]


class EmbeddingStore:
    """Pre-computes and memoises whitened item matrices for serving.

    Parameters
    ----------
    feature_table:
        Padded ``(num_items + 1, d_t)`` matrix of frozen pre-trained text
        embeddings; row 0 is the padding item and is excluded from the
        whitening statistics (mirroring the training-time convention in
        :mod:`repro.models.whitenrec`).
    eps:
        Default covariance ridge used when a request does not specify one.
    """

    def __init__(self, feature_table: np.ndarray, eps: float = 1e-5):
        # one private float64 copy: the caller's array may change later
        feature_table = np.array(feature_table, dtype=np.float64)
        if feature_table.ndim != 2:
            raise ValueError("feature_table must be a 2-D (num_items + 1, d_t) matrix")
        if feature_table.shape[0] < 3:
            raise ValueError("feature_table needs a padding row and at least two items")
        feature_table.setflags(write=False)
        self._feature_table = feature_table
        self.default_eps = eps
        #: one stamp governs every memo derived from the feature table; a
        #: catalogue update (:meth:`refresh_feature_table`) advances it once
        #: and the transforms, whitened tables and ANN indexes all lapse.
        self.clock = GenerationClock()
        self._transforms: GenerationalCache = GenerationalCache(self.clock)
        self._tables: GenerationalCache = GenerationalCache(self.clock)
        self._indexes: GenerationalCache = GenerationalCache(self.clock)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def feature_table(self) -> np.ndarray:
        """The raw (unwhitened) padded feature table, read-only."""
        return self._feature_table

    @property
    def num_items(self) -> int:
        return self._feature_table.shape[0] - 1

    @property
    def feature_dim(self) -> int:
        return self._feature_table.shape[1]

    @property
    def num_fits(self) -> int:
        """Number of fits held by the current catalogue generation."""
        return sum(transform.fit_count for transform in self._transforms.values())

    @property
    def generation(self) -> int:
        """The catalogue generation every cached table/index belongs to."""
        return self.clock.value

    def refresh_feature_table(self, feature_table: np.ndarray) -> None:
        """Swap in an updated catalogue (new or drifted item embeddings).

        Used by the online-learning loop after an exact whitening refit: one
        clock advance lapses every fitted transform, whitened table and ANN
        index, which rebuild lazily against the new table.  The replacement
        must keep the padded ``(num_items + 1, d_t)`` convention; the
        catalogue may grow but never shrink (serving ids stay valid).
        """
        feature_table = np.array(feature_table, dtype=np.float64)
        if feature_table.ndim != 2 or feature_table.shape[1] != self.feature_dim:
            raise ValueError(
                f"replacement feature table must have shape (m, {self.feature_dim})"
            )
        if feature_table.shape[0] < self._feature_table.shape[0]:
            raise ValueError(
                "replacement feature table cannot shrink the catalogue "
                f"({feature_table.shape[0] - 1} < {self.num_items} items)"
            )
        feature_table.setflags(write=False)
        self._feature_table = feature_table
        self.clock.advance()

    def cache_key(self, method: str = "zca", num_groups: GroupSpec = 1,
                  eps: Optional[float] = None) -> CacheKey:
        """Normalise a whitening specification into a hashable cache key.

        ``eps=None`` resolves to this store's :attr:`default_eps`, so the key
        matches the internal cache entries for default-ridge requests.
        """
        method = str(method).strip().lower()
        if num_groups is None or (isinstance(num_groups, str)
                                  and num_groups.lower() in {"raw", "none"}):
            groups = "raw"
        else:
            groups = str(int(num_groups))
        return method, groups, float(self.default_eps if eps is None else eps)

    # ------------------------------------------------------------------ #
    # Fitting and retrieval
    # ------------------------------------------------------------------ #
    def transform(self, method: str = "zca", num_groups: GroupSpec = 1,
                  eps: Optional[float] = None) -> WhiteningTransform:
        """Return the fitted transform for a spec, fitting it at most once."""
        eps = self.default_eps if eps is None else eps
        key = self.cache_key(method, num_groups, eps)

        def fit_transform() -> WhiteningTransform:
            transform = build_whitening(method, num_groups, eps)
            transform.fit(self._feature_table[1:])
            return transform

        return self._transforms.get_or_build(key, fit_transform)

    def whitened(self, method: str = "zca", num_groups: GroupSpec = 1,
                 eps: Optional[float] = None) -> np.ndarray:
        """Padded whitened item matrix for a spec, computed at most once.

        The returned array is cached and marked read-only; every call with the
        same specification returns the same object.  It is built by the
        :meth:`~repro.whitening.WhiteningTransform.transform_padded` the
        models whiten their tables with, so it holds the bytes the model
        trained against.
        """
        key = self.cache_key(method, num_groups, eps)

        def whiten_table() -> np.ndarray:
            transform = self.transform(method, num_groups, eps)
            table = transform.transform_padded(self._feature_table)
            table.setflags(write=False)
            return table

        return self._tables.get_or_build(key, whiten_table)

    # ------------------------------------------------------------------ #
    # ANN indexes over whitened tables
    # ------------------------------------------------------------------ #
    def index_cache_key(self, kind: str, method: str = "zca",
                        num_groups: GroupSpec = 1,
                        eps: Optional[float] = None, **index_params) -> IndexKey:
        """Hashable key for an index spec, nested inside the whitening key.

        The whitening :meth:`cache_key` identifies the embedding space; the
        index kind and its (sorted, repr-ed) constructor parameters identify
        the index built on top of it.
        """
        return (
            self.cache_key(method, num_groups, eps),
            str(kind).strip().lower(),
            tuple(sorted((str(name), repr(value))
                         for name, value in index_params.items())),
        )

    def index(self, method: str = "zca", num_groups: GroupSpec = 1,
              eps: Optional[float] = None, kind: str = "ivf",
              **index_params) -> ItemIndex:
        """ANN index over a whitened item table, built at most once per spec.

        Mirrors :meth:`whitened`: the first request for a
        ``(whitening spec, index kind, index params)`` combination builds the
        index over rows ``1..num_items`` of the whitened table (padding row
        excluded, item ids preserved) and memoises it; later requests return
        the same object.
        """
        key = self.index_cache_key(kind, method, num_groups, eps, **index_params)

        def build() -> ItemIndex:
            table = self.whitened(method, num_groups, eps)
            index = build_index(kind, **index_params)
            index.build(table[1:], ids=np.arange(1, table.shape[0],
                                                 dtype=np.int64))
            return index

        return self._indexes.get_or_build(key, build)

    def encode_new_items(self, embeddings: np.ndarray, method: str = "zca",
                         num_groups: GroupSpec = 1,
                         eps: Optional[float] = None) -> np.ndarray:
        """Project *new* item embeddings into an already-fitted whitened space.

        Because whitening statistics are frozen at fit time (Sec. IV-E), items
        added to the catalogue after deployment can be served by applying the
        cached transform — no re-fit, no drift in the existing item matrix.
        """
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2 or embeddings.shape[1] != self.feature_dim:
            raise ValueError(
                f"new item embeddings must have shape (m, {self.feature_dim})"
            )
        return self.transform(method, num_groups, eps).transform(embeddings)
