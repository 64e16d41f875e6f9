"""Diagnostics of embedding geometry: anisotropy, isotropy, conditioning.

These metrics back the paper's empirical analyses:

* mean pairwise cosine similarity ≈ 0.8 of the raw BERT embeddings
  (Sec. III-B);
* the singular value spectrum of Fig. 2;
* the cosine-similarity CDF of Fig. 4;
* the condition number κ(A) = λ_max / λ_min of the item embedding covariance
  used in the conditioning analysis (Sec. IV-D2, Fig. 7).
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np


def _l2_normalize_rows(matrix: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    return matrix / np.maximum(norms, eps)


def pairwise_cosine_similarities(embeddings: np.ndarray,
                                 max_pairs: Optional[int] = 200_000,
                                 seed: int = 0) -> np.ndarray:
    """Cosine similarities of distinct item pairs (sampled if too many)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    num_items = embeddings.shape[0]
    if num_items < 2:
        raise ValueError("need at least two items")
    normalized = _l2_normalize_rows(embeddings)

    total_pairs = num_items * (num_items - 1) // 2
    if max_pairs is None or total_pairs <= max_pairs:
        similarity = normalized @ normalized.T
        upper = np.triu_indices(num_items, k=1)
        return similarity[upper]

    rng = np.random.default_rng(seed)
    left = rng.integers(0, num_items, size=max_pairs)
    right = rng.integers(0, num_items, size=max_pairs)
    distinct = left != right
    left, right = left[distinct], right[distinct]
    return np.einsum("ij,ij->i", normalized[left], normalized[right])


def mean_pairwise_cosine(embeddings: np.ndarray, max_pairs: Optional[int] = 200_000,
                         seed: int = 0) -> float:
    """Average pairwise cosine similarity (the paper reports ≈0.85/0.84/0.85)."""
    return float(pairwise_cosine_similarities(embeddings, max_pairs, seed).mean())


def cosine_similarity_cdf(embeddings: np.ndarray, grid: Optional[np.ndarray] = None,
                          max_pairs: Optional[int] = 100_000,
                          seed: int = 0) -> Tuple[np.ndarray, np.ndarray]:
    """Empirical CDF of pairwise cosine similarities (Fig. 4).

    Returns ``(grid, cdf)`` where ``cdf[i]`` is the likelihood that a random
    item pair has cosine similarity ≤ ``grid[i]``.
    """
    similarities = pairwise_cosine_similarities(embeddings, max_pairs, seed)
    if grid is None:
        grid = np.linspace(-1.0, 1.0, 201)
    sorted_sims = np.sort(similarities)
    cdf = np.searchsorted(sorted_sims, grid, side="right") / len(sorted_sims)
    return grid, cdf


def singular_values(embeddings: np.ndarray, center: bool = True,
                    normalize: bool = False) -> np.ndarray:
    """Singular value spectrum of the (optionally centred) embedding matrix.

    Fig. 2 plots these values for the raw text embeddings; a rapidly decaying
    spectrum indicates anisotropy.
    """
    embeddings = np.asarray(embeddings, dtype=np.float64)
    if center:
        embeddings = embeddings - embeddings.mean(axis=0)
    values = np.linalg.svd(embeddings, compute_uv=False)
    if normalize and values[0] > 0:
        values = values / values[0]
    return values


def covariance_condition_number(embeddings: np.ndarray, eps: float = 1e-12) -> float:
    """Condition number κ of the covariance of ``embeddings`` (Sec. IV-D2)."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    centered = embeddings - embeddings.mean(axis=0)
    covariance = centered.T @ centered / embeddings.shape[0]
    eigenvalues = np.linalg.eigvalsh(covariance)
    eigenvalues = np.clip(eigenvalues, eps, None)
    return float(eigenvalues[-1] / eigenvalues[0])
