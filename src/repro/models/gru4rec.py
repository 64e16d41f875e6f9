"""GRU4Rec: RNN-based sequential recommender (extra baseline).

GRU4Rec [23] is the classic recurrent sequential recommender.  It is not part
of the paper's main comparison tables but is included here as an additional
reference point and as an exercise of the substrate beyond Transformers.

The GRU cell is unrolled step by step with the autograd engine; the hidden
state at the final (right-most, non-padded) position is the user
representation.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch
from ..nn.tensor import Tensor
from .base import ModelConfig, NextItemRecommender


class GRUCell(nn.Module):
    """A single Gated Recurrent Unit cell."""

    def __init__(self, input_dim: int, hidden_dim: int,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.input_dim = input_dim
        self.hidden_dim = hidden_dim
        self.reset_gate = nn.Linear(input_dim + hidden_dim, hidden_dim, rng=rng)
        self.update_gate = nn.Linear(input_dim + hidden_dim, hidden_dim, rng=rng)
        self.candidate = nn.Linear(input_dim + hidden_dim, hidden_dim, rng=rng)

    def forward(self, x: Tensor, hidden: Tensor) -> Tensor:
        combined = nn.concatenate([x, hidden], axis=-1)
        reset = self.reset_gate(combined).sigmoid()
        update = self.update_gate(combined).sigmoid()
        candidate_input = nn.concatenate([x, hidden * reset], axis=-1)
        candidate = self.candidate(candidate_input).tanh()
        one = Tensor(np.ones_like(update.data), dtype=update.data.dtype)
        return (one - update) * hidden + update * candidate


class GRU4Rec(NextItemRecommender):
    """GRU-based sequential recommender with ID embeddings."""

    model_name = "gru4rec"

    def __init__(self, num_items: int, config: Optional[ModelConfig] = None):
        super().__init__(num_items, config)
        self.item_embedding = nn.Embedding(
            num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng
        )
        self.cell = GRUCell(self.hidden_dim, self.hidden_dim, rng=self._rng)
        self.output_dropout = nn.Dropout(self.config.dropout, rng=self._rng)

    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        return self.item_embedding.all_embeddings(rows)

    def encode_sequence(self, batch: SequenceBatch,
                        item_matrix: Optional[Tensor] = None) -> Tensor:
        seq_len = self._check_sequence_length(batch)
        item_matrix = item_matrix if item_matrix is not None else self.item_representations()
        item_emb = item_matrix.take_rows(batch.item_ids)  # (batch, seq, dim)
        batch_size = len(batch.item_ids)

        dtype = item_emb.data.dtype
        hidden = Tensor(np.zeros((batch_size, self.hidden_dim), dtype=dtype),
                        dtype=dtype)
        for step in range(seq_len):
            x_t = item_emb[:, step, :]
            new_hidden = self.cell(x_t, hidden)
            # Keep the previous hidden state at padded positions so padding
            # does not overwrite real history (sequences are left-padded, so
            # this only matters for the leading positions).
            is_real = (batch.item_ids[:, step] != 0).astype(dtype)[:, None]
            gate = Tensor(is_real, dtype=dtype)
            hidden = new_hidden * gate + hidden * Tensor(1.0 - is_real, dtype=dtype)
        return self.output_dropout(hidden)
