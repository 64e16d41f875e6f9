"""VQRec baseline: vector-quantised item representations from text encodings.

VQRec [14] maps the pre-trained text encoding of each item to a tuple of
discrete codes via product quantisation (one small codebook per dimension
group) and represents an item as the sum of the learned embeddings of its
codes.  As in the paper, the pre-training stage is removed and the model is
fine-tuned directly with the vector-quantised item representations.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from ..whitening.group import group_slices
from .base import ModelConfig, SequentialRecommender


def _kmeans(points: np.ndarray, num_clusters: int, rng: np.random.Generator,
            num_iterations: int = 15) -> np.ndarray:
    """Small Lloyd's k-means returning the assignment of each point."""
    num_points = points.shape[0]
    num_clusters = min(num_clusters, num_points)
    centroid_ids = rng.choice(num_points, size=num_clusters, replace=False)
    centroids = points[centroid_ids].copy()
    assignments = np.zeros(num_points, dtype=np.int64)
    for _ in range(num_iterations):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_assignments = distances.argmin(axis=1)
        if np.array_equal(new_assignments, assignments):
            break
        assignments = new_assignments
        for cluster in range(num_clusters):
            members = points[assignments == cluster]
            if len(members) > 0:
                centroids[cluster] = members.mean(axis=0)
    return assignments


def product_quantize(features: np.ndarray, num_groups: int, codebook_size: int,
                     seed: int = 0) -> np.ndarray:
    """Assign each item a code per dimension group via k-means.

    Returns an integer array of shape ``(num_items, num_groups)``.
    """
    features = np.asarray(features, dtype=np.float64)
    rng = np.random.default_rng(seed)
    codes = np.zeros((features.shape[0], num_groups), dtype=np.int64)
    for group_index, group_slice in enumerate(group_slices(features.shape[1], num_groups)):
        codes[:, group_index] = _kmeans(features[:, group_slice], codebook_size, rng)
    return codes


class VQRec(SequentialRecommender):
    """Sequential recommender over vector-quantised text representations."""

    model_name = "vqrec"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 num_code_groups: int = 8, codebook_size: int = 32):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table, dtype=np.float64)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.num_code_groups = num_code_groups
        self.codebook_size = codebook_size

        # Quantise the item rows (excluding padding); padding keeps code 0 in
        # a dedicated "padding" slot of every codebook.
        item_features = feature_table[1:]
        codes = product_quantize(
            item_features, num_code_groups, codebook_size, seed=self.config.seed
        )
        # Shift codes by one so that index 0 is reserved for padding.
        self._codes = np.zeros((num_items + 1, num_code_groups), dtype=np.int64)
        self._codes[1:] = codes + 1

        self.code_embeddings = [
            nn.Embedding(codebook_size + 1, self.hidden_dim, padding_idx=0, rng=self._rng)
            for _ in range(num_code_groups)
        ]

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        codes = self._codes if rows is None else self._codes[rows]
        representation: Optional[Tensor] = None
        for group_index, embedding in enumerate(self.code_embeddings):
            group_codes = codes[:, group_index]
            part = embedding(group_codes)
            representation = part if representation is None else representation + part
        return representation

    def codes(self) -> np.ndarray:
        """The discrete code assignment of every item (including padding row)."""
        return self._codes.copy()
