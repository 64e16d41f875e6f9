"""UniSRec baseline (fine-tuning-only, as evaluated in the paper).

UniSRec [6] feeds frozen pre-trained text embeddings through a *parametric
whitening* layer followed by a Mixture-of-Experts adaptor, and encodes the
sequence with the usual Transformer.  The paper removes its pre-training
stage for a fair comparison and evaluates two settings:

* **UniSRec_T** (inductive): text representations only.
* **UniSRec_{T+ID}** (transductive): text representation plus a trainable ID
  embedding, combined by element-wise sum.

A sequence–item contrastive auxiliary loss (the core of UniSRec's fine-tuning
objective) is retained with a small weight.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch
from ..nn import functional as F
from ..nn.tensor import Tensor
from ..whitening.parametric import ParametricWhitening
from .base import ModelConfig, SequentialRecommender


class UniSRec(SequentialRecommender):
    """UniSRec with parametric whitening + MoE adaptor."""

    model_name = "unisrec_t"

    def __init__(self, num_items: int, feature_table: np.ndarray,
                 config: Optional[ModelConfig] = None,
                 num_experts: int = 4,
                 use_id_embeddings: bool = False,
                 contrastive_weight: float = 0.1,
                 temperature: float = 0.07):
        super().__init__(num_items, config)
        feature_table = np.asarray(feature_table)
        if feature_table.shape[0] != num_items + 1:
            raise ValueError("feature table rows must equal num_items + 1")
        self.feature_dim = feature_table.shape[1]
        self.features = nn.FrozenEmbedding(feature_table, padding_idx=0)
        self.parametric_whitening = ParametricWhitening(
            self.feature_dim, self.feature_dim, rng=self._rng
        )
        self.adaptor = nn.MoEProjectionHead(
            in_dim=self.feature_dim, out_dim=self.hidden_dim,
            num_experts=num_experts, rng=self._rng,
        )
        self.use_id_embeddings = use_id_embeddings
        if use_id_embeddings:
            self.model_name = "unisrec_t_id"
            self.item_embedding = nn.Embedding(
                num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
            )
        self.contrastive_weight = contrastive_weight
        self.temperature = temperature

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        whitened = self.parametric_whitening(self.features.all_embeddings(rows))
        representation = self.adaptor(whitened)
        if self.use_id_embeddings:
            representation = representation + self.item_embedding.all_embeddings(rows)
        return representation

    def loss(self, batch: SequenceBatch) -> Tensor:
        """Cross entropy plus an in-batch sequence–item contrastive loss."""
        item_matrix = self.item_representations()
        user = self.encode_sequence(batch, item_matrix)
        logits = user.matmul(item_matrix.T)
        ce_loss = F.cross_entropy(logits, batch.targets)
        if self.contrastive_weight <= 0:
            return ce_loss

        # In-batch contrastive: each user representation should be closest to
        # its own target item among the targets appearing in the batch.
        target_items = item_matrix.take_rows(batch.targets)
        user_norm = F.l2_normalize(user, axis=-1)
        item_norm = F.l2_normalize(target_items, axis=-1)
        similarity = user_norm.matmul(item_norm.T) * (1.0 / self.temperature)
        labels = np.arange(len(batch))
        contrastive = F.cross_entropy(similarity, labels)
        return ce_loss + contrastive * self.contrastive_weight
