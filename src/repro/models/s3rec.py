"""S3-Rec baseline (simplified joint-training variant).

S3-Rec [4] pre-trains a SASRec backbone with self-supervised objectives that
maximise mutual information between items, attributes, segments and
sequences.  Pre-training a separate stage is unnecessary for this
reproduction's comparison (the paper also strips pre-training from UniSRec /
VQRec for fairness), so we implement the *associated-attribute prediction*
(AAP/MIP-style) objective as an auxiliary loss trained jointly with the
next-item cross entropy:

* items are embedded by trainable ID embeddings (as in SASRec_ID);
* an auxiliary head predicts the pre-trained *text feature* of the target
  item from the sequence representation, tying the backbone to item content
  exactly the way S3-Rec's attribute objectives do.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch
from ..nn import functional as F
from ..nn.tensor import Tensor
from .base import ModelConfig, SequentialRecommender


class S3Rec(SequentialRecommender):
    """SASRec_ID with an auxiliary content (attribute) alignment objective."""

    model_name = "s3rec"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 auxiliary_weight: float = 0.2):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]
        self.item_embedding = nn.Embedding(
            num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
        )
        self.features = nn.FrozenEmbedding(feature_table, padding_idx=0)
        self.content_head = nn.Linear(self.hidden_dim, self.feature_dim, rng=self._rng)
        self.auxiliary_weight = auxiliary_weight

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.item_embedding.all_embeddings(rows)

    def auxiliary_loss(self, batch: SequenceBatch, user: Tensor) -> Tensor:
        """Content-alignment loss: predict the target item's text feature."""
        predicted = self.content_head(user)
        target_features = self.features.all_embeddings().take_rows(batch.targets)
        predicted = F.l2_normalize(predicted, axis=-1)
        target_features = F.l2_normalize(target_features, axis=-1)
        cosine = (predicted * target_features).sum(axis=-1)
        # Maximise cosine alignment == minimise (1 - cosine).
        return (1.0 - cosine).mean()

    def loss(self, batch: SequenceBatch) -> Tensor:
        item_matrix = self.item_representations()
        user = self.encode_sequence(batch, item_matrix)
        logits = user.matmul(item_matrix.T)
        ce_loss = F.cross_entropy(logits, batch.targets)
        if self.auxiliary_weight <= 0:
            return ce_loss
        return ce_loss + self.auxiliary_loss(batch, user) * self.auxiliary_weight
