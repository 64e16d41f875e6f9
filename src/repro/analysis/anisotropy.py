"""Anisotropy analyses backing Fig. 2, Fig. 3 and Fig. 4.

These helpers package the raw metrics from :mod:`repro.whitening.metrics`
into the exact data series that the paper's figures plot:

* Fig. 2 — normalised singular value spectrum of the raw text embeddings;
* Fig. 4 — cosine-similarity CDF for different whitening group counts;
* the Sec. III-B headline statistic — mean pairwise cosine similarity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..whitening.group import GroupSpec, whiten_with_groups
from ..whitening.metrics import (
    cosine_similarity_cdf,
    mean_pairwise_cosine,
    singular_values,
)


@dataclass
class AnisotropyReport:
    """Summary statistics of an embedding matrix's anisotropy."""

    mean_cosine: float
    top1_spectral_energy: float
    singular_values: np.ndarray

    def is_anisotropic(self, cosine_threshold: float = 0.5) -> bool:
        """Heuristic check matching the paper's qualitative statement."""
        return self.mean_cosine >= cosine_threshold


def analyze_embeddings(embeddings: np.ndarray, max_pairs: int = 100_000,
                       seed: int = 0) -> AnisotropyReport:
    """Compute the headline anisotropy statistics for an embedding matrix."""
    values = singular_values(embeddings, center=True, normalize=True)
    energy = values ** 2
    return AnisotropyReport(
        mean_cosine=mean_pairwise_cosine(embeddings, max_pairs=max_pairs, seed=seed),
        top1_spectral_energy=float(energy[0] / energy.sum()),
        singular_values=values,
    )


def singular_value_spectrum(embeddings: np.ndarray,
                            normalize: bool = True) -> np.ndarray:
    """Fig. 2 data: singular values of the (centred) embedding matrix."""
    return singular_values(embeddings, center=True, normalize=normalize)


def cosine_cdf_by_group(embeddings: np.ndarray,
                        group_counts: Sequence[GroupSpec],
                        grid: Optional[np.ndarray] = None,
                        max_pairs: int = 50_000,
                        seed: int = 0) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Fig. 4 data: cosine-similarity CDF for each whitening strength.

    ``group_counts`` may contain integers and/or the string ``"raw"``.
    Returns a mapping from the group label to ``(grid, cdf)``.
    """
    results: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
    for group in group_counts:
        label = "Raw" if group in (None, "raw", "Raw") else str(int(group))
        if label == "Raw":
            transformed = np.asarray(embeddings, dtype=np.float64)
        else:
            transformed = whiten_with_groups(embeddings, int(group))
        results[label] = cosine_similarity_cdf(
            transformed, grid=grid, max_pairs=max_pairs, seed=seed
        )
    return results


def mean_cosine_by_group(embeddings: np.ndarray,
                         group_counts: Sequence[GroupSpec],
                         max_pairs: int = 50_000,
                         seed: int = 0) -> Dict[str, float]:
    """Mean pairwise cosine after whitening with each group count."""
    results: Dict[str, float] = {}
    for group in group_counts:
        label = "Raw" if group in (None, "raw", "Raw") else str(int(group))
        if label == "Raw":
            transformed = np.asarray(embeddings, dtype=np.float64)
        else:
            transformed = whiten_with_groups(embeddings, int(group))
        results[label] = mean_pairwise_cosine(transformed, max_pairs=max_pairs, seed=seed)
    return results
