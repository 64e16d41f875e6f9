"""Online maintenance of the paper's whitening statistics.

The paper fits its whitening transform (Eqn. 4: mean μ and covariance Σ of
the pre-trained item embeddings, then e.g. ZCA ``Φ = D Λ^{-1/2} Dᵀ``) once
over a *static* catalogue.  In the online loop the catalogue drifts — new
items arrive, embeddings get re-encoded — and refitting Σ from scratch on
every publish is O(catalogue · d²).  :class:`OnlineWhitener` keeps the exact
same statistics incrementally:

* **Batched rank-k updates.**  Each ingested batch merges into the running
  ``(count, mean, M2)`` triple with Chan's parallel-variance formula —
  ``M2`` accumulates centred outer products, so ``Σ = M2 / n`` matches
  :func:`repro.whitening.base.centered_covariance` to float64 round-off
  without revisiting old rows.
* **Drift-triggered exact refit.**  The incremental Σ is exact for the rows
  it saw, but the *catalogue* may diverge from it (rows replaced in place,
  re-encoded embeddings).  :meth:`drift` measures the relative Frobenius
  distance between the live statistics and the anchor captured at the last
  :meth:`refit`; when it crosses ``drift_threshold`` the caller runs one
  exact refit over the full table and the anchor resets.
* **Transform compatibility.**  :meth:`transform` materialises a fitted
  :class:`repro.whitening.linear` transform (same eigh / clipping path), so
  it cannot be told from a batch fit on the same statistics.

Nothing in the online loop uses this class: :class:`~repro.stream.Publisher`
neither ingests into it nor refits it, and each reloaded model whitens by
fitting its own transform on the checkpoint's feature table.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..whitening.base import centered_covariance, get_whitening
from ..whitening.linear import _MatrixWhitening

__all__ = ["OnlineWhitener"]


class OnlineWhitener:
    """Incrementally tracked whitening statistics with drift detection.

    Parameters
    ----------
    dim:
        Embedding dimensionality ``d_t``.
    method:
        A linear whitening method name (``zca``, ``pca``, ``cholesky``,
        ``batchnorm``); grouped/flow methods re-estimate per fit and have no
        incremental form.
    eps:
        Covariance ridge, added at matrix-derivation time exactly like
        :func:`centered_covariance` does.
    drift_threshold:
        Relative statistic movement (Frobenius, against the last refit
        anchor) above which :attr:`needs_refit` turns on.
    """

    def __init__(self, dim: int, method: str = "zca", eps: float = 1e-5,
                 drift_threshold: float = 0.25):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        if drift_threshold <= 0:
            raise ValueError("drift_threshold must be positive")
        self.dim = int(dim)
        self.method = str(method)
        self.eps = float(eps)
        self.drift_threshold = float(drift_threshold)
        self.count = 0
        self.mean = np.zeros(dim, dtype=np.float64)
        #: sum of centred outer products; Σ (no ridge) is ``M2 / count``
        self._m2 = np.zeros((dim, dim), dtype=np.float64)
        self._anchor_mean: Optional[np.ndarray] = None
        self._anchor_cov: Optional[np.ndarray] = None
        self.refit_count = 0
        self.updates_since_refit = 0
        # Fail fast on methods without a matrix-form incremental fit.
        if not isinstance(self._build_transform(), _MatrixWhitening):
            raise ValueError(
                f"method {self.method!r} has no (mean, covariance) matrix "
                f"form; online maintenance supports the linear transforms"
            )

    def _build_transform(self) -> _MatrixWhitening:
        # The Table VI registry, not build_whitening(): the grouped wrapper
        # (G=1 ZCA included) re-estimates per fit and has no matrix form.
        return get_whitening(self.method, eps=self.eps)

    # ------------------------------------------------------------------ #
    # Statistics
    # ------------------------------------------------------------------ #
    def _validate(self, batch: np.ndarray) -> np.ndarray:
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != self.dim:
            raise ValueError(f"expected a (m, {self.dim}) batch, "
                             f"got shape {batch.shape}")
        return batch

    def ingest(self, batch: np.ndarray) -> None:
        """Merge a batch of embedding rows into the running statistics.

        Chan's pairwise update: with the batch's own ``(m, μ_b, M2_b)`` and
        δ = μ_b - μ, the merged second moment is
        ``M2 + M2_b + δδᵀ · n·m/(n+m)`` — one rank-1 correction per batch,
        never a pass over previously seen rows.
        """
        batch = self._validate(batch)
        m = batch.shape[0]
        if m == 0:
            return
        batch_mean = batch.mean(axis=0)
        centered = batch - batch_mean
        batch_m2 = centered.T @ centered
        if self.count == 0:
            self.mean = batch_mean
            self._m2 = batch_m2
            self.count = m
        else:
            delta = batch_mean - self.mean
            total = self.count + m
            self._m2 += batch_m2 + np.outer(delta, delta) * (
                self.count * m / total)
            self.mean = self.mean + delta * (m / total)
            self.count = total
        self.updates_since_refit += 1
        if self._anchor_mean is None:
            # First data this whitener ever saw doubles as the anchor.
            self._set_anchor()

    def covariance(self, ridge: bool = True) -> np.ndarray:
        """The tracked Σ (optionally with the ``eps`` ridge, Eqn. 4)."""
        if self.count < 2:
            raise RuntimeError("need at least two ingested rows")
        covariance = self._m2 / self.count
        if ridge and self.eps:
            covariance = covariance + self.eps * np.eye(self.dim)
        return covariance

    # ------------------------------------------------------------------ #
    # Drift / refit
    # ------------------------------------------------------------------ #
    def _set_anchor(self) -> None:
        self._anchor_mean = self.mean.copy()
        self._anchor_cov = (self._m2 / max(self.count, 1)).copy()

    def drift(self) -> float:
        """Relative movement of (μ, Σ) since the last refit anchor.

        ``max`` of the two relative Frobenius distances — either statistic
        drifting invalidates the frozen transform equally.
        """
        if self._anchor_mean is None or self.count < 2:
            return 0.0
        covariance = self._m2 / self.count
        cov_scale = max(float(np.linalg.norm(self._anchor_cov)), 1e-12)
        mean_scale = max(float(np.linalg.norm(self._anchor_mean)), 1e-12)
        cov_drift = float(np.linalg.norm(covariance - self._anchor_cov)) \
            / cov_scale
        mean_drift = float(np.linalg.norm(self.mean - self._anchor_mean)) \
            / mean_scale
        return max(cov_drift, mean_drift)

    @property
    def needs_refit(self) -> bool:
        """True once the incremental statistics drifted past the threshold."""
        return self.drift() > self.drift_threshold

    def refit(self, embeddings: np.ndarray) -> None:
        """Exact refit from the full current catalogue.

        Replaces the incremental statistics with the batch-computed ones
        (bit-for-bit :func:`centered_covariance`) and resets the drift
        anchor — the escape hatch the drift threshold triggers.
        """
        embeddings = self._validate(embeddings)
        if embeddings.shape[0] < 2:
            raise ValueError("refit requires at least two rows")
        mean, covariance = centered_covariance(embeddings, eps=0.0)
        self.count = embeddings.shape[0]
        self.mean = mean
        self._m2 = covariance * self.count
        self.refit_count += 1
        self.updates_since_refit = 0
        self._set_anchor()

    # ------------------------------------------------------------------ #
    # Transform materialisation
    # ------------------------------------------------------------------ #
    def transform(self) -> _MatrixWhitening:
        """A fitted transform over the *current* statistics.

        Reuses the exact matrix derivation of the batch transforms (eigh,
        eigenvalue clipping, ``Φ = D Λ^{-1/2} Dᵀ`` for ZCA), so an online
        fit is indistinguishable from :meth:`WhiteningTransform.fit` on the
        same statistics.
        """
        fitted = self._build_transform()
        fitted.mean_ = self.mean.copy()
        fitted.matrix_ = fitted._compute_matrix(self.covariance(ridge=True))
        fitted._fitted = True
        fitted.fit_count += 1
        return fitted

    def describe(self) -> dict:
        return {
            "method": self.method,
            "dim": self.dim,
            "count": int(self.count),
            "eps": self.eps,
            "drift": round(self.drift(), 6),
            "drift_threshold": self.drift_threshold,
            "needs_refit": bool(self.needs_refit),
            "refit_count": self.refit_count,
            "updates_since_refit": self.updates_since_refit,
        }
