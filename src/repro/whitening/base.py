"""Whitening transform interface and registry.

All non-parametric whitening methods share the same protocol: ``fit`` on an
item-embedding matrix (rows are items, columns are feature dimensions), then
``transform`` maps embeddings into the whitened space.  The paper's Eqn. (3)
writes the item matrix as ``X ∈ R^{d_t × |I|}`` (columns are items); this code
uses the row-major convention ``(|I|, d_t)`` which is the transpose but
mathematically identical.

Transforms are fitted once on the *pre-trained* text embeddings (whitening is
a pre-processing step, Sec. IV-E points out it can be pre-computed), so the
models never re-estimate statistics during training.
"""

from __future__ import annotations

import functools
from typing import Callable, Dict

import numpy as np

from ..nn.functional import catalogue_row_blocks


class WhiteningTransform:
    """Base class for non-parametric whitening transforms.

    Subclasses implement :meth:`fit` / :meth:`transform`.  Every ``fit`` call
    is counted in :attr:`fit_count` (via ``__init_subclass__`` wrapping), so
    serving-layer caches can assert that a transform was fitted exactly once.
    """

    #: human readable name used by the registry and in reports
    name: str = "identity"

    def __init__(self) -> None:
        self._fitted = False
        self.fit_count = 0

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        fit = cls.__dict__.get("fit")
        if fit is None:
            return

        @functools.wraps(fit)
        def counted_fit(self, embeddings, *args, **kw):
            result = fit(self, embeddings, *args, **kw)
            self.fit_count = getattr(self, "fit_count", 0) + 1
            return result

        cls.fit = counted_fit

    @property
    def is_fitted(self) -> bool:
        return self._fitted

    def fit(self, embeddings: np.ndarray) -> "WhiteningTransform":
        """Estimate the transform from ``embeddings`` of shape (num_items, dim)."""
        raise NotImplementedError

    def transform(self, embeddings: np.ndarray) -> np.ndarray:
        """Apply the fitted transform to ``embeddings``."""
        raise NotImplementedError

    def fit_transform(self, embeddings: np.ndarray) -> np.ndarray:
        return self.fit(embeddings).transform(embeddings)

    def transform_padded(self, table: np.ndarray, dtype=np.float64) -> np.ndarray:
        """Whiten the item rows of a padded ``(num_items + 1, d)`` table.

        Returns a new ``dtype`` table whose padding row 0 is zero and whose
        rows ``1..`` are :meth:`transform` of the table's, evaluated over
        :func:`~repro.nn.functional.catalogue_row_blocks` of the items
        straight into the output: besides the output, no temporary larger
        than a block is allocated.  The one place the models
        (:mod:`repro.models.whitenrec`) and the serving store
        (:class:`repro.serving.EmbeddingStore`) build a whitened table, so
        both whiten into the same bytes.
        """
        self._require_fitted()
        output = np.empty(table.shape, dtype=dtype)
        output[0] = 0.0
        items, whitened = table[1:], output[1:]
        for rows in catalogue_row_blocks(items.shape[0]):
            whitened[rows] = self.transform(items[rows])
        return output

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(f"{type(self).__name__} must be fitted before transform()")

    @staticmethod
    def _validate(embeddings: np.ndarray) -> np.ndarray:
        embeddings = np.asarray(embeddings, dtype=np.float64)
        if embeddings.ndim != 2:
            raise ValueError("whitening expects a 2-D (num_items, dim) matrix")
        if embeddings.shape[0] < 2:
            raise ValueError("whitening requires at least two items")
        return embeddings


class IdentityWhitening(WhiteningTransform):
    """No-op transform — the "Raw" baseline.

    Paper reference: the un-whitened pre-trained embeddings whose anisotropy
    Fig. 2 / Fig. 4 demonstrate, and the ``Raw`` end of the group-count sweep
    in Fig. 8 (``G = "raw"`` recovers SASRec_T behaviour).
    """

    name = "raw"

    def fit(self, embeddings: np.ndarray) -> "IdentityWhitening":
        self._validate(embeddings)
        self._fitted = True
        return self

    def transform(self, embeddings: np.ndarray) -> np.ndarray:
        self._require_fitted()
        return np.asarray(embeddings, dtype=np.float64).copy()


def centered_covariance(embeddings: np.ndarray, eps: float = 0.0) -> tuple:
    """Return (mean, covariance + eps*I) of a (num_items, dim) matrix.

    This mirrors Σ in Eqn. (4): the covariance of the centred inputs with a
    small ridge ``eps`` for numerical stability.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    mean = embeddings.mean(axis=0)
    centered = embeddings - mean
    covariance = centered.T @ centered / embeddings.shape[0]
    if eps:
        covariance = covariance + eps * np.eye(covariance.shape[0])
    return mean, covariance


# ---------------------------------------------------------------------- #
# Registry
# ---------------------------------------------------------------------- #
_REGISTRY: Dict[str, Callable[..., WhiteningTransform]] = {}


def register_whitening(name: str) -> Callable:
    """Class decorator registering a whitening transform under ``name``."""

    def decorator(cls):
        _REGISTRY[name] = cls
        cls.name = name
        return cls

    return decorator


def available_whitenings() -> list:
    """Names of all registered whitening methods (the rows of Table VI plus
    aliases): ``zca``, ``pca``, ``cholesky``/``cd``, ``batchnorm``/``bn``,
    ``group_zca``, ``bert_flow``/``bert-flow`` and ``raw``/``identity``."""
    return sorted(_REGISTRY)


def get_whitening(name: str, **kwargs) -> WhiteningTransform:
    """Instantiate a registered whitening transform by its Table VI label."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown whitening {name!r}; available: {available_whitenings()}")
    return _REGISTRY[name](**kwargs)


# Register the identity under both of its common names.
_REGISTRY["raw"] = IdentityWhitening
_REGISTRY["identity"] = IdentityWhitening
