"""General (non-sequential) recommenders with text features: GRCN and BM3.

The paper compares against two general multimodal recommenders that use only
item text representations: GRCN [10] (graph-refined convolutional network)
and BM3 [9] (bootstrapped multimodal contrastive learning).  Neither models
the *order* of interactions, which is why they trail the sequential methods
on the Amazon datasets (Table III observation 1).

To fit the shared training / evaluation harness these re-implementations keep
each model's defining ingredient but adopt a common interface: the "user
representation" is an aggregation of the representations of the items in the
user's history (mean pooling — order-free by construction), and scoring is
the usual inner product with candidate items.

* :class:`GRCN` refines item representations by propagating them over the
  item co-occurrence graph, with edge weights modulated by text affinity
  (the graph-refinement idea of GRCN at item granularity).
* :class:`BM3` learns a projection of the text features with an additional
  bootstrap-style contrastive regulariser between two dropout-perturbed
  views of the item representations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch
from ..nn import functional as F
from ..nn.tensor import Tensor
from .base import ModelConfig, NextItemRecommender


class _MeanPoolingRecommender(NextItemRecommender):
    """Shared machinery: order-free mean pooling of history item embeddings."""

    def encode_sequence(self, batch: SequenceBatch,
                        item_matrix: Optional[Tensor] = None) -> Tensor:
        self._check_sequence_length(batch)
        item_matrix = item_matrix if item_matrix is not None else self.item_representations()
        item_emb = item_matrix.take_rows(batch.item_ids)  # (batch, seq, dim)
        # Padding items embed to ~0 (their row is zero for frozen tables and
        # masked below for safety), so a length-normalised sum is mean pooling
        # over the true history.
        dtype = item_emb.data.dtype
        mask = (batch.item_ids != 0).astype(dtype)[:, :, None]
        summed = (item_emb * Tensor(mask, dtype=dtype)).sum(axis=1)
        lengths = np.maximum(batch.lengths, 1).astype(dtype)[:, None]
        return summed * Tensor(1.0 / lengths, dtype=dtype)


class GRCN(_MeanPoolingRecommender):
    """Graph-refined recommender over text-feature item representations."""

    model_name = "grcn"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 train_sequences: Optional[Dict[int, List[int]]] = None,
                 config: Optional[ModelConfig] = None,
                 num_neighbors: int = 10, propagation_weight: float = 0.5):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table, dtype=np.float64)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]
        self.propagation_weight = propagation_weight

        smoothed = self._graph_refine(
            feature_table, train_sequences or {}, num_neighbors
        )
        self.features = nn.FrozenEmbedding.adopt(smoothed, padding_idx=0)
        self.projection = nn.MLPProjectionHead(
            in_dim=self.feature_dim, out_dim=self.hidden_dim,
            num_hidden_layers=1, rng=self._rng,
        )

    def _graph_refine(self, feature_table: np.ndarray,
                      train_sequences: Dict[int, List[int]],
                      num_neighbors: int) -> np.ndarray:
        """One propagation step over a text-affinity-pruned co-occurrence graph.

        Edges connect items that co-occur in user histories; following GRCN,
        candidate edges whose text affinity (cosine similarity) is low are
        treated as false positives and pruned.  The propagation then averages
        each item's neighbours into its own representation.
        """
        num_rows = feature_table.shape[0]
        co_counts: Dict[int, Dict[int, int]] = {}
        for sequence in train_sequences.values():
            unique_items = list(dict.fromkeys(sequence))
            for position, left in enumerate(unique_items):
                for right in unique_items[position + 1:]:
                    co_counts.setdefault(left, {})[right] = co_counts.setdefault(left, {}).get(right, 0) + 1
                    co_counts.setdefault(right, {})[left] = co_counts.setdefault(right, {}).get(left, 0) + 1

        norms = np.linalg.norm(feature_table, axis=1, keepdims=True)
        normalized = feature_table / np.maximum(norms, 1e-12)

        refined = feature_table.copy()
        for item, neighbors in co_counts.items():
            if item == 0 or not neighbors:
                continue
            candidate_ids = np.asarray(list(neighbors.keys()), dtype=np.int64)
            affinities = normalized[candidate_ids] @ normalized[item]
            order = np.argsort(-affinities)[:num_neighbors]
            kept = candidate_ids[order]
            kept_affinity = np.clip(affinities[order], 0.0, None)
            if kept_affinity.sum() <= 0:
                continue
            weights = kept_affinity / kept_affinity.sum()
            neighbor_mean = (feature_table[kept] * weights[:, None]).sum(axis=0)
            refined[item] = (
                (1.0 - self.propagation_weight) * feature_table[item]
                + self.propagation_weight * neighbor_mean
            )
        refined[0] = 0.0
        return refined

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.projection(self.features.all_embeddings(rows))


class BM3(_MeanPoolingRecommender):
    """Bootstrapped multimodal recommender using only text representations."""

    model_name = "bm3"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 bootstrap_weight: float = 0.1, view_dropout: float = 0.3):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]
        self.features = nn.FrozenEmbedding(feature_table, padding_idx=0)
        self.projection = nn.MLPProjectionHead(
            in_dim=self.feature_dim, out_dim=self.hidden_dim,
            num_hidden_layers=1, rng=self._rng,
        )
        self.predictor = nn.Linear(self.hidden_dim, self.hidden_dim, rng=self._rng)
        self.view_dropout = nn.Dropout(view_dropout, rng=self._rng)
        self.bootstrap_weight = bootstrap_weight

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.projection(self.features.all_embeddings(rows))

    def bootstrap_loss(self, batch: SequenceBatch) -> Tensor:
        """BYOL-style loss between two dropout-perturbed item views."""
        item_matrix = self.item_representations()
        targets = item_matrix.take_rows(batch.targets)
        online = self.predictor(self.view_dropout(targets))
        target_view = self.view_dropout(targets).detach()
        online = F.l2_normalize(online, axis=-1)
        # target_view is already detached; re-wrapping without a dtype would
        # upcast a float32 graph to the float64 default.
        target_view = F.l2_normalize(target_view, axis=-1)
        cosine = (online * target_view).sum(axis=-1)
        return (1.0 - cosine).mean()

    def loss(self, batch: SequenceBatch) -> Tensor:
        base_loss = super().loss(batch)
        if self.bootstrap_weight <= 0:
            return base_loss
        return base_loss + self.bootstrap_loss(batch) * self.bootstrap_weight
