"""Base classes shared by all recommendation models.

The paper's general framework (Fig. 1, Sec. III-A) has three parts:

* an *item encoder* ``f_theta1`` that produces the candidate-item embedding
  matrix ``V`` (from ID embeddings, text features, or whitened text features);
* a *sequence encoder* ``f_theta2`` — a causal Transformer — whose last hidden
  state is the user representation ``s``;
* a *prediction layer* scoring every candidate item by the inner product
  ``V s`` trained with full softmax cross-entropy (Eqn. 1-2).

:class:`NextItemRecommender` implements the prediction/loss layer and the
inference API once; a family supplies :meth:`item_representations` and
:meth:`encode_sequence`.  :class:`SequentialRecommender` adds the causal
Transformer sequence encoder, so the thirteen Transformer families only
override :meth:`item_representations` (and optionally add auxiliary
losses).  GRU4Rec, GRCN and BM3 derive from :class:`NextItemRecommender`
alone and build no Transformer weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from .. import nn
from ..data.dataloader import SequenceBatch
from ..nn import functional as F
from ..nn.tensor import Tensor
from ..whitening.base import WhiteningTransform
from ..whitening.group import GroupSpec

#: a whitening specification, ``(method, groups, eps)``
WhiteningSpec = Tuple[str, GroupSpec, float]
#: a fitted transform and the padded whitened table it built
FittedWhitening = Tuple[WhiteningTransform, np.ndarray]


@dataclass
class ModelConfig:
    """Hyper-parameters shared by the sequential models.

    The defaults follow the paper's implementation details (Sec. V-A4) but at
    reduced scale: 2 self-attention blocks, 2 heads, 2 MLP layers in the
    projection head; hidden size and max sequence length are scaled down so
    the CPU-only substrate stays fast.
    """

    hidden_dim: int = 64
    num_layers: int = 2
    num_heads: int = 2
    inner_dim: Optional[int] = None
    dropout: float = 0.2
    max_seq_length: int = 20
    projection_hidden_layers: int = 2
    seed: int = 0
    extra: Dict[str, float] = field(default_factory=dict)


class NextItemRecommender(nn.Module):
    """Softmax prediction layer and inference API over a family's encoders."""

    #: registry label; concrete models override it
    model_name = "base"

    def __init__(self, num_items: int, config: Optional[ModelConfig] = None):
        super().__init__()
        self.config = config or ModelConfig()
        self.num_items = num_items
        self.hidden_dim = self.config.hidden_dim
        self.max_seq_length = self.config.max_seq_length
        self._rng = np.random.default_rng(self.config.seed)

    # ------------------------------------------------------------------ #
    # Item encoder interface
    # ------------------------------------------------------------------ #
    def item_representations(self, rows: Optional[slice] = None) -> Tensor:
        """Return the candidate item matrix ``V`` of shape (num_items+1, d),
        or its row block ``rows``.

        Row 0 is the padding item.  Concrete models implement this from ID
        embeddings, (whitened) text features, or a combination; the item
        encoder is row-wise, so block ``rows`` equals ``V[rows]``.  Training
        takes the whole matrix (``rows=None``, the trainable tables
        themselves); :meth:`inference_item_matrix` evaluates it block by
        block.
        """
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # Sequence encoder interface
    # ------------------------------------------------------------------ #
    def encode_sequence(self, batch: SequenceBatch,
                        item_matrix: Optional[Tensor] = None) -> Tensor:
        """User representations ``s`` (batch, d) of left-padded histories,
        looked up in ``item_matrix`` (default :meth:`item_representations`)."""
        raise NotImplementedError

    def _check_sequence_length(self, batch: SequenceBatch) -> int:
        """The batch's window, refused when wider than ``max_seq_length``.

        Every family's graph encoder calls this, and the compiled plans of
        :mod:`repro.infer` refuse the same batches, so graph and plan agree
        on an over-long history.
        """
        seq_len = batch.item_ids.shape[1]
        if seq_len > self.max_seq_length:
            raise ValueError(
                f"batch sequence length {seq_len} exceeds max_seq_length "
                f"{self.max_seq_length}"
            )
        return seq_len

    # ------------------------------------------------------------------ #
    # Prediction & loss
    # ------------------------------------------------------------------ #
    def score_all_items(self, batch: SequenceBatch) -> Tensor:
        """Scores over the full catalogue: (batch, num_items + 1)."""
        item_matrix = self.item_representations()
        user = self.encode_sequence(batch, item_matrix)
        return user.matmul(item_matrix.T)

    def loss(self, batch: SequenceBatch) -> Tensor:
        """Full softmax cross-entropy against the ground-truth next item."""
        logits = self.score_all_items(batch)
        return F.cross_entropy(logits, batch.targets)

    def predict_scores(self, batch: SequenceBatch) -> np.ndarray:
        """Numpy scores for evaluation (padding item masked to -inf)."""
        was_training = self.training
        self.eval()
        with nn.no_grad():
            scores = self.score_all_items(batch).numpy()
        scores[:, 0] = -np.inf
        if was_training:
            self.train()
        return scores

    # ------------------------------------------------------------------ #
    # Inference API (used by repro.serving)
    # ------------------------------------------------------------------ #
    def fitted_whitenings(self) -> Dict[WhiteningSpec, FittedWhitening]:
        """Every whitening this model fitted on its feature table, by
        specification, with the padded whitened table the model holds.

        A serving store adopts these instead of refitting
        (:meth:`repro.serving.EmbeddingStore.adopt`), so a deployment has
        one fit per specification.  Families that whiten nothing have none.
        """
        return {}

    def inference_item_matrix(self, dtype=None) -> np.ndarray:
        """Candidate item matrix ``V`` computed in eval mode without autodiff.

        Whitening is pre-computed (Sec. IV-E) and the projection head is
        frozen at serving time, so this matrix can be computed once and reused
        for every request.  Returns a new ``(num_items + 1, d)`` numpy array
        (never a view of a trainable table), optionally in ``dtype`` (e.g.
        ``np.float32`` for the serving scoring path).  The item encoder runs
        over :func:`~repro.nn.functional.catalogue_row_blocks` straight into
        that one output, so no other catalogue-sized array is allocated.
        """
        matrix = np.empty((self.num_items + 1, self.hidden_dim),
                          dtype=self.dtype if dtype is None else dtype)
        was_training = self.training
        self.eval()
        with nn.no_grad():
            for rows in F.catalogue_row_blocks(self.num_items + 1):
                matrix[rows] = self.item_representations(rows).numpy()
        if was_training:
            self.train()
        return matrix

    def encode_sequences(self, item_ids: np.ndarray, lengths: np.ndarray,
                         item_matrix: Optional[np.ndarray] = None) -> np.ndarray:
        """Batched inference encoding: numpy in, numpy out, no autodiff graph.

        Parameters
        ----------
        item_ids:
            ``(batch, seq_len)`` left-padded item ids (0 = padding).
        lengths:
            True history length per row.
        item_matrix:
            Optional pre-computed ``(num_items + 1, d)`` candidate matrix from
            :meth:`inference_item_matrix`, so repeated calls skip the item
            encoder.  Cast to the model's parameter dtype for the embedding
            lookup (float64 by default, float32 for models built under
            ``autocast("float32")``).
        """
        item_ids = np.asarray(item_ids, dtype=np.int64)
        lengths = np.asarray(lengths, dtype=np.int64)
        batch = SequenceBatch(
            item_ids=item_ids,
            lengths=lengths,
            targets=np.zeros(item_ids.shape[0], dtype=np.int64),
            users=np.zeros(item_ids.shape[0], dtype=np.int64),
        )
        was_training = self.training
        self.eval()
        with nn.no_grad():
            matrix_tensor = None
            if item_matrix is not None:
                matrix = np.asarray(item_matrix)
                if matrix.dtype != self.dtype:
                    matrix = matrix.astype(self.dtype)
                matrix_tensor = Tensor(matrix, dtype=matrix.dtype)
            users = self.encode_sequence(batch, item_matrix=matrix_tensor).numpy()
        if was_training:
            self.train()
        return users

    def item_scores(self, item_ids: np.ndarray, lengths: np.ndarray,
                    item_matrix: Optional[np.ndarray] = None,
                    dtype=np.float32) -> np.ndarray:
        """Full-catalogue inference scores for padded histories.

        Combines :meth:`encode_sequences` with the single-matmul scoring of
        :func:`repro.nn.functional.catalogue_scores`; the padding item
        (column 0) is masked to ``-inf``.
        """
        if item_matrix is None:
            item_matrix = self.inference_item_matrix()
        users = self.encode_sequences(item_ids, lengths, item_matrix=item_matrix)
        scores = F.catalogue_scores(users, item_matrix, dtype=dtype)
        scores[:, 0] = -np.inf
        return scores

    # ------------------------------------------------------------------ #
    # Analysis hooks
    # ------------------------------------------------------------------ #
    def item_matrix_numpy(self) -> np.ndarray:
        """Projected item embedding matrix as numpy (excludes padding row)."""
        return self.inference_item_matrix()[1:]

    def user_matrix_numpy(self, batch: SequenceBatch) -> np.ndarray:
        """User representations for a batch as numpy."""
        was_training = self.training
        self.eval()
        users = self.encode_sequence(batch).numpy()
        if was_training:
            self.train()
        return users


class SequentialRecommender(NextItemRecommender):
    """The paper's causal Transformer sequence encoder (Fig. 1, ``f_theta2``),
    drawn from the seeded generator before the family's own weights."""

    def __init__(self, num_items: int, config: Optional[ModelConfig] = None):
        super().__init__(num_items, config)
        self.position_embedding = nn.Embedding(
            self.max_seq_length, self.hidden_dim, rng=self._rng
        )
        self.input_layernorm = nn.LayerNorm(self.hidden_dim)
        self.input_dropout = nn.Dropout(self.config.dropout, rng=self._rng)
        self.encoder = nn.TransformerEncoder(
            num_layers=self.config.num_layers,
            hidden_dim=self.hidden_dim,
            num_heads=self.config.num_heads,
            inner_dim=self.config.inner_dim,
            dropout=self.config.dropout,
            causal=True,
            rng=self._rng,
        )

    # ------------------------------------------------------------------ #
    # Sequence encoder
    # ------------------------------------------------------------------ #
    def encode_sequence(self, batch: SequenceBatch,
                        item_matrix: Optional[Tensor] = None) -> Tensor:
        """Compute user representations ``s`` for a batch of histories.

        The user representation is the hidden state at the last position
        (sequences are left-padded, so the last position is always real).
        Only the positions that hold an item are computed: they are packed
        at the embedding lookup (:class:`repro.nn.attention.PackedRows`) and
        stay packed through the input layer norm, dropout and every
        position-wise op of :meth:`TransformerEncoder.forward_last`.
        """
        item_matrix = item_matrix if item_matrix is not None else self.item_representations()
        layout = self._packed_rows(batch)
        return self._encode_rows(item_matrix, batch, layout,
                                 self.input_layernorm, self.encoder)

    def _packed_rows(self, batch: SequenceBatch) -> nn.PackedRows:
        seq_len = self._check_sequence_length(batch)
        return nn.PackedRows(batch.lengths, len(batch.item_ids), seq_len)

    def _encode_rows(self, table: Tensor, batch: SequenceBatch,
                     layout: nn.PackedRows, layernorm: nn.LayerNorm,
                     encoder: nn.TransformerEncoder) -> Tensor:
        """Look up the packed rows of ``batch`` in ``table`` and encode them."""
        hidden = (table.take_rows(batch.item_ids[layout.rows])
                  + self.position_embedding(layout.rows[1]))
        hidden = layernorm(hidden)
        hidden = self.input_dropout.forward_rows(hidden, layout)
        return encoder.forward_last(hidden, layout)
