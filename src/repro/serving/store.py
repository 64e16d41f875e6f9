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
(:meth:`encode_new_items`).  A deployment's model has usually fitted the
same specification already: a :class:`~repro.serving.Recommender` makes the
store :meth:`adopt` the model's transforms and tables, so one deployment
holds one fit per specification.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..whitening import build_whitening
from ..whitening.base import WhiteningTransform
from ..whitening.group import GroupSpec
from .generations import GenerationClock, GenerationalCache

CacheKey = Tuple[str, str, float]


class EmbeddingStore:
    """Pre-computes and memoises whitened item matrices for serving.

    A store handed to a :class:`~repro.serving.Recommender` holds the
    features that recommender's model was built from: the recommender has
    the store adopt the model's fitted whitenings (:meth:`adopt`) rather
    than refit them.

    Parameters
    ----------
    feature_table:
        Padded ``(num_items + 1, d_t)`` matrix of frozen pre-trained text
        embeddings; row 0 is the padding item and is excluded from the
        whitening statistics (mirroring the training-time convention in
        :mod:`repro.models.whitenrec`).  The store keeps one private,
        read-only copy in the table's float dtype; every fit and transform
        computes in float64 whatever that dtype is.
    eps:
        Default covariance ridge used when a request does not specify one.
    """

    def __init__(self, feature_table: np.ndarray, eps: float = 1e-5):
        # one private copy: the caller's array may change later
        feature_table = np.array(feature_table)
        if not np.issubdtype(feature_table.dtype, np.floating):
            feature_table = feature_table.astype(np.float64)
        if feature_table.ndim != 2:
            raise ValueError("feature_table must be a 2-D (num_items + 1, d_t) matrix")
        if feature_table.shape[0] < 3:
            raise ValueError("feature_table needs a padding row and at least two items")
        feature_table.setflags(write=False)
        self._feature_table = feature_table
        self.default_eps = eps
        #: fitted transforms under ``("transform", key)`` and whitened
        #: tables under ``("table", key)``; builds are single-flight, and
        #: the feature table never changes, so no generation lapses them
        self._memo = GenerationalCache(GenerationClock())

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
        """Number of fits held by the store, adopted ones included."""
        return sum(value.fit_count for value in self._memo.values()
                   if isinstance(value, WhiteningTransform))

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
    def adopt(self, transform: WhiteningTransform, method: str,
              num_groups: GroupSpec, eps: float,
              table: Optional[np.ndarray] = None) -> None:
        """Serve a spec from a transform already fitted on this store's
        features, and from the padded ``table`` it whitened them into.

        Only seeds the memo: nothing is built or copied, and a spec the
        store already holds keeps its entry.  ``table`` is adopted only in
        the store's float64, the dtype :meth:`whitened` builds in; a table
        in any other dtype is left to be built from ``transform``.
        """
        key = self.cache_key(method, num_groups, eps)
        self._memo.get_or_build(("transform", key), lambda: transform)
        if table is not None and table.dtype == np.float64:
            self._memo.get_or_build(("table", key), lambda: table)

    def transform(self, method: str = "zca", num_groups: GroupSpec = 1,
                  eps: Optional[float] = None) -> WhiteningTransform:
        """Return the fitted transform for a spec, fitting it at most once."""
        eps = self.default_eps if eps is None else eps
        key = self.cache_key(method, num_groups, eps)

        def fit_transform() -> WhiteningTransform:
            transform = build_whitening(method, num_groups, eps)
            transform.fit(self._feature_table[1:])
            return transform

        return self._memo.get_or_build(("transform", key), fit_transform)

    def whitened(self, method: str = "zca", num_groups: GroupSpec = 1,
                 eps: Optional[float] = None) -> np.ndarray:
        """Padded float64 whitened item matrix for a spec, computed at most
        once.

        Every call with the same specification returns the same object.  It
        is built by the
        :meth:`~repro.whitening.WhiteningTransform.transform_padded` the
        models whiten their tables with, so it holds the bytes the model
        trained against; a built table is read-only, an adopted one is the
        model's own frozen table.
        """
        key = self.cache_key(method, num_groups, eps)

        def whiten_table() -> np.ndarray:
            transform = self.transform(method, num_groups, eps)
            table = transform.transform_padded(self._feature_table)
            table.setflags(write=False)
            return table

        return self._memo.get_or_build(("table", key), whiten_table)

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
