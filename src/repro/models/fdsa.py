"""FDSA baseline: Feature-level Deeper Self-Attention network.

FDSA [5] runs two parallel self-attention streams — one over item (ID)
embeddings and one over item *feature* embeddings (here: projected text
features aggregated by a vanilla attention layer in the original paper) —
and concatenates the two final states for prediction.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch
from ..nn.tensor import Tensor, concatenate
from .base import ModelConfig, SequentialRecommender


class FDSA(SequentialRecommender):
    """Two-stream (item + feature) self-attention sequential recommender."""

    model_name = "fdsa"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]

        self.item_embedding = nn.Embedding(
            num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
        )
        self.features = nn.FrozenEmbedding(feature_table, padding_idx=0)
        self.feature_projection = nn.MLPProjectionHead(
            in_dim=self.feature_dim, out_dim=self.hidden_dim,
            num_hidden_layers=1, rng=self._rng,
        )
        # Second Transformer stream dedicated to the feature sequence.
        self.feature_encoder = nn.TransformerEncoder(
            num_layers=self.config.num_layers,
            hidden_dim=self.hidden_dim,
            num_heads=self.config.num_heads,
            inner_dim=self.config.inner_dim,
            dropout=self.config.dropout,
            causal=True,
            rng=self._rng,
        )
        self.feature_layernorm = nn.LayerNorm(self.hidden_dim)
        # Fuse the two final states back to the model dimension so that the
        # standard inner-product prediction layer can be reused.
        self.fusion = nn.Linear(2 * self.hidden_dim, self.hidden_dim, rng=self._rng)

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        """Candidate items are scored against their ID embeddings (as in FDSA)."""
        return self.item_embedding.all_embeddings(rows)

    def encode_sequence(self, batch: SequenceBatch,
                        item_matrix: Optional[Tensor] = None) -> Tensor:
        item_matrix = item_matrix if item_matrix is not None else self.item_representations()
        layout = self._packed_rows(batch)
        item_state = self._encode_rows(item_matrix, batch, layout,
                                       self.input_layernorm, self.encoder)
        feature_table = self.feature_projection(self.features.all_embeddings())
        feature_state = self._encode_rows(feature_table, batch, layout,
                                          self.feature_layernorm, self.feature_encoder)
        return self.fusion(concatenate([item_state, feature_state], axis=-1))
