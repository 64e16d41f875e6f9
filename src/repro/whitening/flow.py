"""BERT-flow-style Gaussianisation (Table VI baseline).

BERT-flow [42] learns an invertible mapping that transforms BERT sentence
embeddings into a latent isotropic Gaussian.  Training a full normalising
flow is out of scope for this reproduction, so we implement the closest
non-parametric equivalent that exercises the same code path: an invertible
two-stage Gaussianisation consisting of

1. a marginal Gaussianisation of every feature dimension (empirical CDF →
   standard normal quantiles, a classic single-layer "Gaussianization flow"
   step), followed by
2. a fixed random rotation that mixes the dimensions (so the result is not
   axis-aligned, mirroring the flow's learned coupling layers).

The output has Gaussian marginals but — unlike ZCA — no guarantee of a fully
decorrelated joint distribution, which is exactly the qualitative difference
the paper's Table VI highlights (BERT-flow better than PW/PCA, worse than
CD/ZCA).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .base import WhiteningTransform, register_whitening


def _normal_quantile(p: np.ndarray) -> np.ndarray:
    """Inverse CDF of the standard normal distribution."""
    # scipy is needed by this one function only, so importing it here keeps
    # it out of every process that never fits a BERT-flow transform.
    from scipy import special

    return np.sqrt(2.0) * special.erfinv(2.0 * p - 1.0)


@register_whitening("bert_flow")
class FlowGaussianization(WhiteningTransform):
    """Marginal Gaussianisation + random rotation ("BERT-flow" surrogate).

    Paper reference: the ``BERT-flow`` column of Table VI (Sec. V-E) — better
    than the parametric/PCA baselines, worse than CD/ZCA, because Gaussian
    marginals do not guarantee a decorrelated joint distribution.
    """

    def __init__(self, seed: int = 0, clip: float = 1e-4):
        super().__init__()
        self.seed = seed
        self.clip = clip
        self._sorted_values: Optional[np.ndarray] = None
        self._rotation: Optional[np.ndarray] = None
        self._num_reference: int = 0

    def fit(self, embeddings: np.ndarray) -> "FlowGaussianization":
        embeddings = self._validate(embeddings)
        # Reference order statistics per dimension define the empirical CDF.
        self._sorted_values = np.sort(embeddings, axis=0)
        self._num_reference = embeddings.shape[0]
        rng = np.random.default_rng(self.seed)
        random_matrix = rng.standard_normal((embeddings.shape[1], embeddings.shape[1]))
        self._rotation, _ = np.linalg.qr(random_matrix)
        self._fitted = True
        return self

    def _marginal_gaussianize(self, embeddings: np.ndarray) -> np.ndarray:
        num_ref = self._num_reference
        output = np.empty_like(embeddings)
        for dim in range(embeddings.shape[1]):
            reference = self._sorted_values[:, dim]
            # Empirical CDF evaluated via searchsorted; interior clipping keeps
            # the normal quantiles finite.
            ranks = np.searchsorted(reference, embeddings[:, dim], side="right")
            cdf = ranks / (num_ref + 1.0)
            cdf = np.clip(cdf, self.clip, 1.0 - self.clip)
            output[:, dim] = _normal_quantile(cdf)
        return output

    def transform(self, embeddings: np.ndarray) -> np.ndarray:
        self._require_fitted()
        embeddings = np.asarray(embeddings, dtype=np.float64)
        gaussianized = self._marginal_gaussianize(embeddings)
        return gaussianized @ self._rotation


# Alias matching the paper's table label.
from .base import _REGISTRY  # noqa: E402

_REGISTRY["bert-flow"] = FlowGaussianization
