"""SASRec variants: the ID-based, text-based and combined item encoders.

* :class:`SASRecID`   — Fig. 1a: randomly initialised, trainable ID embeddings.
* :class:`SASRecText` — Fig. 1b: frozen pre-trained text embeddings passed
  through a two-hidden-layer MLP projection head (no ID embeddings).
* :class:`SASRecTextID` — Table III's ``SASRec (T+ID)``: element-wise sum of
  the projected text features and a trainable ID embedding.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn.tensor import Tensor
from .base import ModelConfig, SequentialRecommender


class SASRecID(SequentialRecommender):
    """SASRec with trainable item-ID embeddings (the paper's SASRec_ID)."""

    model_name = "sasrec_id"

    def __init__(self, num_items: int, config: Optional[ModelConfig] = None):
        super().__init__(num_items, config)
        self.item_embedding = nn.Embedding(
            num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
        )

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.item_embedding.all_embeddings(rows)


class SASRecText(SequentialRecommender):
    """SASRec driven purely by frozen pre-trained text features (SASRec_T).

    The feature table is *not* updated during training (Sec. III-B); only the
    projection head (an MLP with two hidden layers and ReLU activations) and
    the Transformer are trained.
    """

    model_name = "sasrec_t"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 projection_hidden_layers: Optional[int] = None):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError(
                f"feature table must have num_items + 1 = {num_items + 1} rows, "
                f"got {feature_table.shape[0]}"
            )
        self.feature_dim = feature_table.shape[1]
        self.features = nn.FrozenEmbedding(feature_table, padding_idx=0)
        hidden_layers = (
            projection_hidden_layers
            if projection_hidden_layers is not None
            else self.config.projection_hidden_layers
        )
        self.projection = nn.MLPProjectionHead(
            in_dim=self.feature_dim,
            out_dim=self.hidden_dim,
            num_hidden_layers=hidden_layers,
            rng=self._rng,
        )

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.projection(self.features.all_embeddings(rows))


class SASRecTextID(SequentialRecommender):
    """SASRec using both text features and ID embeddings (SASRec_{T+ID}).

    Following UniSRec's transductive setting and the paper's Table VIII
    protocol, the two sources are combined by element-wise summation.
    """

    model_name = "sasrec_t_id"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]
        self.features = nn.FrozenEmbedding(feature_table, padding_idx=0)
        self.projection = nn.MLPProjectionHead(
            in_dim=self.feature_dim,
            out_dim=self.hidden_dim,
            num_hidden_layers=self.config.projection_hidden_layers,
            rng=self._rng,
        )
        self.item_embedding = nn.Embedding(
            num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
        )

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        text_part = self.projection(self.features.all_embeddings(rows))
        return text_part + self.item_embedding.all_embeddings(rows)
