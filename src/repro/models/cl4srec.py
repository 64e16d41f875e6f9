"""CL4SRec baseline: contrastive learning for sequential recommendation.

CL4SRec [3] augments each user sequence with item cropping, masking and
reordering, and adds an InfoNCE contrastive loss between the two augmented
views of the same sequence on top of the SASRec_ID next-item objective.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch, pad_sequences
from ..nn import functional as F
from ..nn.tensor import Tensor
from .base import ModelConfig, SequentialRecommender


def crop_sequence(sequence: List[int], rng: np.random.Generator,
                  ratio: float = 0.6) -> List[int]:
    """Keep a random contiguous crop of the sequence (item cropping)."""
    if len(sequence) <= 1:
        return list(sequence)
    length = max(1, int(round(len(sequence) * ratio)))
    start = int(rng.integers(0, len(sequence) - length + 1))
    return list(sequence[start: start + length])


def mask_sequence(sequence: List[int], rng: np.random.Generator,
                  ratio: float = 0.3, mask_item: int = 0) -> List[int]:
    """Replace a random subset of items with the padding/mask item."""
    if not sequence:
        return []
    sequence = list(sequence)
    num_to_mask = int(round(len(sequence) * ratio))
    if num_to_mask == 0:
        return sequence
    positions = rng.choice(len(sequence), size=num_to_mask, replace=False)
    for position in positions:
        sequence[position] = mask_item
    return sequence


def reorder_sequence(sequence: List[int], rng: np.random.Generator,
                     ratio: float = 0.3) -> List[int]:
    """Shuffle a random contiguous sub-segment of the sequence."""
    if len(sequence) <= 2:
        return list(sequence)
    sequence = list(sequence)
    length = max(2, int(round(len(sequence) * ratio)))
    length = min(length, len(sequence))
    start = int(rng.integers(0, len(sequence) - length + 1))
    segment = sequence[start: start + length]
    rng.shuffle(segment)
    sequence[start: start + length] = segment
    return sequence


def augment(sequence: List[int], rng: np.random.Generator) -> List[int]:
    """Apply one of the three CL4SRec augmentations chosen at random."""
    choice = int(rng.integers(3))
    if choice == 0:
        return crop_sequence(sequence, rng)
    if choice == 1:
        return mask_sequence(sequence, rng)
    return reorder_sequence(sequence, rng)


class CL4SRec(SequentialRecommender):
    """SASRec_ID plus a contrastive loss over augmented sequence views."""

    model_name = "cl4srec"

    def __init__(self, num_items: int, config: Optional[ModelConfig] = None,
                 contrastive_weight: float = 0.1, temperature: float = 0.5):
        super().__init__(num_items, config)
        self.item_embedding = nn.Embedding(
            num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
        )
        self.contrastive_weight = contrastive_weight
        self.temperature = temperature
        self._augment_rng = np.random.default_rng(self.config.seed + 17)

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.item_embedding.all_embeddings(rows)

    def _augmented_views(self, batch: SequenceBatch) -> Tuple[SequenceBatch, SequenceBatch]:
        """Create two independently augmented copies of the batch histories."""
        histories = []
        for row in range(len(batch)):
            length = int(batch.lengths[row])
            items = batch.item_ids[row, batch.item_ids.shape[1] - length:].tolist()
            histories.append(items)

        views = []
        for _ in range(2):
            augmented = [augment(history, self._augment_rng) for history in histories]
            item_ids, lengths = pad_sequences(augmented, batch.item_ids.shape[1])
            lengths = np.maximum(lengths, 1)
            views.append(
                SequenceBatch(
                    item_ids=item_ids, lengths=lengths,
                    targets=batch.targets.copy(), users=batch.users.copy(),
                )
            )
        return views[0], views[1]

    def contrastive_loss(self, batch: SequenceBatch) -> Tensor:
        """InfoNCE between two augmented views of every sequence in the batch."""
        view_a, view_b = self._augmented_views(batch)
        item_matrix = self.item_representations()
        repr_a = F.l2_normalize(self.encode_sequence(view_a, item_matrix), axis=-1)
        repr_b = F.l2_normalize(self.encode_sequence(view_b, item_matrix), axis=-1)
        logits = repr_a.matmul(repr_b.T) * (1.0 / self.temperature)
        labels = np.arange(len(batch))
        return F.cross_entropy(logits, labels)

    def loss(self, batch: SequenceBatch) -> Tensor:
        base_loss = super().loss(batch)
        if self.contrastive_weight <= 0:
            return base_loss
        return base_loss + self.contrastive_loss(batch) * self.contrastive_weight
