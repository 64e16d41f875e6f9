"""Transformer building blocks: multi-head self-attention and encoder layers.

The sequence encoder ``f_theta2`` in the paper is the standard Transformer
used by SASRec: stacked blocks of (causal) multi-head self-attention and a
position-wise feed-forward network, each wrapped with residual connections,
dropout and layer normalisation.  BERT4Rec-style bidirectional attention is
obtained by simply not applying the causal mask.

Every model reads the encoder at the last position only, and a left-padded
history fills only its last ``length`` positions, so each layer here has
two entry points: ``forward`` computes every position of a padded
``(batch, seq_len, d)`` tensor, and ``forward_last`` computes what the last
position needs from the positions that hold an item.  Those are packed into
one ``(num_rows, d)`` tensor described by :class:`PackedRows`; every
position-wise op (projections, layer norms, feed-forward, dropout) runs on
the packed rows, and only attention scatters its keys and values (and a
non-final block's queries) back into the padded ``(batch, heads, seq_len,
head_dim)`` layout.  The final block computes its query, attention row,
output projection and feed-forward at the last position only.  Models call
:meth:`TransformerEncoder.forward_last`; ``forward`` is the definition it
is tested against.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import functional as F
from .functional import MIN_SCORING_ROWS
from .layers import Dropout, Linear, LayerNorm
from .module import Module
from .tensor import Tensor


class PackedRows:
    """Which positions of a left-padded ``(batch, seq_len)`` block to compute.

    A history of length ``n`` holds its items at the last ``n`` positions;
    the padding before them is never read (attention gives it weight 0 as a
    key, and only the last position's output leaves the encoder).  The
    computed positions are stacked in row-major order into one
    ``(num_rows, d)`` tensor:

    * ``rows`` is the ``(batch_index, position)`` pair of index arrays of
      each packed row; ``x[rows]`` packs a padded ``(batch, seq_len, ...)``
      array;
    * ``last`` is the packed row of each sequence's last position;
    * ``lengths`` (``None`` means full) builds the attention mask.

    A length-0 row keeps every position: all of its keys are masked, so
    attention averages over all of them, as on the padded layout.  Lengths
    above ``seq_len`` clip to it.  Fewer than
    :data:`~repro.nn.functional.MIN_SCORING_ROWS` rows are topped up with
    padding positions so no projection runs as a GEMV, whose rounding
    differs from the GEMM the compiled plans run on the padded block.
    """

    def __init__(self, lengths: Optional[np.ndarray], batch: int, seq_len: int):
        self.batch = batch
        self.seq_len = seq_len
        self.lengths = lengths
        filled = (np.full(batch, seq_len) if lengths is None
                  else np.minimum(np.asarray(lengths, dtype=np.int64), seq_len))
        filled[filled == 0] = seq_len
        kept = np.arange(seq_len)[None, :] >= (seq_len - filled)[:, None]
        missing = MIN_SCORING_ROWS - int(kept.sum())
        if missing > 0:
            kept.flat[np.flatnonzero(~kept)[:missing]] = True
        self.rows = np.nonzero(kept)
        self.last = np.cumsum(kept.sum(axis=1)) - 1

    @property
    def num_rows(self) -> int:
        return len(self.rows[0])

    def pack(self, x: Tensor) -> Tensor:
        """The packed rows of a padded ``(batch, seq_len, ...)`` tensor."""
        return F.gather_rows(x, self.rows)

    def pad(self, rows: Tensor) -> Tensor:
        """Packed ``(num_rows, k)`` rows as ``(batch, seq_len, k)``, zeros elsewhere."""
        return F.scatter_rows(rows, self.rows, (self.batch, self.seq_len, rows.shape[-1]))

    def last_rows(self, rows: Tensor) -> Tensor:
        """Each sequence's last position, ``(batch, k)``."""
        return F.gather_rows(rows, self.last)


class MultiHeadSelfAttention(Module):
    """Multi-head scaled dot-product self-attention.

    Parameters
    ----------
    hidden_dim:
        Model dimension ``d``.
    num_heads:
        Number of attention heads; must divide ``hidden_dim``.
    dropout:
        Dropout probability applied to the attention weights and the output
        projection.
    """

    def __init__(self, hidden_dim: int, num_heads: int, dropout: float = 0.0,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        if hidden_dim % num_heads != 0:
            raise ValueError(
                f"hidden_dim ({hidden_dim}) must be divisible by num_heads ({num_heads})"
            )
        rng = rng or np.random.default_rng()
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.head_dim = hidden_dim // num_heads
        self.query = Linear(hidden_dim, hidden_dim, rng=rng)
        self.key = Linear(hidden_dim, hidden_dim, rng=rng)
        self.value = Linear(hidden_dim, hidden_dim, rng=rng)
        self.output = Linear(hidden_dim, hidden_dim, rng=rng)
        self.attn_dropout = Dropout(dropout, rng=rng)
        self.out_dropout = Dropout(dropout, rng=rng)

    def _split_heads(self, x: Tensor, batch: int, seq_len: int) -> Tensor:
        # (batch, seq, hidden) -> (batch, heads, seq, head_dim)
        return x.reshape(batch, seq_len, self.num_heads, self.head_dim).transpose(0, 2, 1, 3)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        """Apply self-attention.

        Parameters
        ----------
        x:
            Input of shape ``(batch, seq_len, hidden_dim)``.
        attention_mask:
            Boolean array broadcastable to ``(batch, num_heads, seq_len,
            seq_len)``; ``True`` marks positions that must NOT be attended to.
        """
        batch, seq_len, _ = x.shape
        q = self._split_heads(self.query(x), batch, seq_len)
        k = self._split_heads(self.key(x), batch, seq_len)
        v = self._split_heads(self.value(x), batch, seq_len)

        scores = q.matmul(k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        if attention_mask is not None:
            scores = F.masked_fill(scores, attention_mask)
        weights = F.softmax(scores, axis=-1)
        weights = self.attn_dropout(weights)

        context = weights.matmul(v)  # (batch, heads, seq, head_dim)
        context = context.transpose(0, 2, 1, 3).reshape(batch, seq_len, self.hidden_dim)
        return self.out_dropout(self.output(context))

    def _padded_heads(self, projected: Tensor, layout: PackedRows) -> Tensor:
        # packed (rows, hidden) -> (batch, heads, seq, head_dim), zero padding
        return self._split_heads(layout.pad(projected), layout.batch, layout.seq_len)

    def forward_rows(self, x: Tensor, layout: PackedRows,
                     attention_mask: np.ndarray) -> Tensor:
        """``layout.pack(forward(layout.pad(x), mask))`` on packed rows.

        Queries, keys and values are projected from the ``(num_rows,
        hidden_dim)`` rows ``x`` and scattered into the padded head layout
        for the score and context matmuls; the context is packed back before
        the output projection.
        """
        q = self._padded_heads(self.query(x), layout)
        k = self._padded_heads(self.key(x), layout)
        v = self._padded_heads(self.value(x), layout)

        scores = q.matmul(k.transpose(0, 1, 3, 2)) * (1.0 / np.sqrt(self.head_dim))
        scores = F.masked_fill(scores, attention_mask)
        weights = self.attn_dropout(F.softmax(scores, axis=-1))

        context = weights.matmul(v).transpose(0, 2, 1, 3)  # (batch, seq, heads, head_dim)
        context = layout.pack(context).reshape(layout.num_rows, self.hidden_dim)
        return self.out_dropout.forward_rows(self.output(context), layout)

    def forward_last(self, x: Tensor, layout: PackedRows,
                     attention_mask: np.ndarray) -> Tensor:
        """The attention output of each sequence's last query, ``(batch, hidden_dim)``.

        Keys and values are projected from all packed rows ``x``; the query,
        the attention row and the output projection only from the last
        position.  ``attention_mask`` is the last query's row of the full
        mask, broadcastable to ``(batch, num_heads, seq_len)``.
        """
        batch, seq_len = layout.batch, layout.seq_len
        q = self.query(layout.last_rows(x)).reshape(batch, self.num_heads, 1, self.head_dim)
        k = self._padded_heads(self.key(x), layout)
        v = self._padded_heads(self.value(x), layout)

        scores = q.matmul(k.transpose(0, 1, 3, 2)).reshape(batch, self.num_heads, seq_len)
        scores = scores * (1.0 / np.sqrt(self.head_dim))
        scores = F.masked_fill(scores, attention_mask)
        weights = self.attn_dropout.forward_last(F.softmax(scores, axis=-1), seq_len)

        context = weights.reshape(batch, self.num_heads, 1, seq_len).matmul(v)
        context = context.reshape(batch, self.hidden_dim)
        return self.out_dropout.forward_last(self.output(context), seq_len)


class PositionwiseFeedForward(Module):
    """Two-layer feed-forward network applied at every position."""

    def __init__(self, hidden_dim: int, inner_dim: Optional[int] = None,
                 dropout: float = 0.0, activation: str = "gelu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        inner_dim = inner_dim or hidden_dim * 4
        self.fc1 = Linear(hidden_dim, inner_dim, rng=rng)
        self.fc2 = Linear(inner_dim, hidden_dim, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)
        self.activation = activation

    def _activate(self, hidden: Tensor) -> Tensor:
        return hidden.gelu() if self.activation == "gelu" else hidden.relu()

    def forward(self, x: Tensor) -> Tensor:
        hidden = self.dropout(self._activate(self.fc1(x)))
        return self.dropout(self.fc2(hidden))

    def forward_rows(self, x: Tensor, layout: PackedRows) -> Tensor:
        """``forward`` of the packed rows of ``layout``."""
        hidden = self.dropout.forward_rows(self._activate(self.fc1(x)), layout)
        return self.dropout.forward_rows(self.fc2(hidden), layout)

    def forward_last(self, x: Tensor, seq_len: int) -> Tensor:
        """``forward`` of the last of ``seq_len`` positions, ``(batch, hidden_dim)``."""
        hidden = self.dropout.forward_last(self._activate(self.fc1(x)), seq_len)
        return self.dropout.forward_last(self.fc2(hidden), seq_len)


class TransformerBlock(Module):
    """One Transformer encoder block (post-layer-norm, SASRec convention)."""

    def __init__(self, hidden_dim: int, num_heads: int, inner_dim: Optional[int] = None,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.attention = MultiHeadSelfAttention(hidden_dim, num_heads, dropout, rng=rng)
        self.attention_norm = LayerNorm(hidden_dim)
        self.feed_forward = PositionwiseFeedForward(hidden_dim, inner_dim, dropout, rng=rng)
        self.feed_forward_norm = LayerNorm(hidden_dim)

    def forward(self, x: Tensor, attention_mask: Optional[np.ndarray] = None) -> Tensor:
        attended = self.attention(x, attention_mask)
        x = self.attention_norm(x + attended)
        transformed = self.feed_forward(x)
        return self.feed_forward_norm(x + transformed)

    def forward_rows(self, x: Tensor, layout: PackedRows,
                     attention_mask: np.ndarray) -> Tensor:
        """``forward`` of the packed rows ``x`` of ``layout``, ``(num_rows, hidden_dim)``."""
        attended = self.attention.forward_rows(x, layout, attention_mask)
        x = self.attention_norm(x + attended)
        transformed = self.feed_forward.forward_rows(x, layout)
        return self.feed_forward_norm(x + transformed)

    def forward_last(self, x: Tensor, layout: PackedRows,
                     attention_mask: np.ndarray) -> Tensor:
        """``forward`` at each sequence's last position only, ``(batch, hidden_dim)``.

        ``x`` are the packed rows of ``layout``; ``attention_mask`` is the
        last query's row of the full mask (see
        :meth:`MultiHeadSelfAttention.forward_last`).
        """
        attended = self.attention.forward_last(x, layout, attention_mask)
        last = self.attention_norm(layout.last_rows(x) + attended)
        transformed = self.feed_forward.forward_last(last, layout.seq_len)
        return self.feed_forward_norm(last + transformed)


class TransformerEncoder(Module):
    """A stack of Transformer blocks with optional causal masking.

    This is the shared sequence encoder of every model variant in the paper
    (SASRec_ID, SASRec_T, WhitenRec, WhitenRec+, UniSRec, ...).
    """

    def __init__(self, num_layers: int, hidden_dim: int, num_heads: int,
                 inner_dim: Optional[int] = None, dropout: float = 0.0,
                 causal: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.causal = causal
        self.blocks = [
            TransformerBlock(hidden_dim, num_heads, inner_dim, dropout, rng=rng)
            for _ in range(num_layers)
        ]

    def _attention_mask(self, batch: int, seq_len: int,
                        lengths: Optional[np.ndarray]) -> np.ndarray:
        """``(batch, 1, seq_len, seq_len)``, True where attention is blocked."""
        mask = np.zeros((batch, 1, seq_len, seq_len), dtype=bool)
        if self.causal:
            mask |= F.causal_mask(seq_len)[None, None, :, :]
        if lengths is not None:
            pad = F.padding_mask(lengths, seq_len)  # (batch, seq_len)
            mask |= pad[:, None, None, :]
        return mask

    def forward(self, x: Tensor, lengths: Optional[np.ndarray] = None) -> Tensor:
        """Encode a batch of (left-padded) sequences at every position.

        Parameters
        ----------
        x:
            Input of shape ``(batch, seq_len, hidden_dim)``.
        lengths:
            True (unpadded) lengths of each sequence; padded positions are
            masked out of the attention.
        """
        mask = self._attention_mask(x.shape[0], x.shape[1], lengths)
        for block in self.blocks:
            x = block(x, mask)
        return x

    def forward_last(self, x: Tensor, layout: PackedRows) -> Tensor:
        """``forward(layout.pad(x), layout.lengths)[:, -1]``: the hidden state
        the models read.

        ``x`` holds the ``(num_rows, hidden_dim)`` packed rows of ``layout``.
        Blocks before the final one run every position-wise op on those rows
        (their queries, keys and values meet in the padded layout for
        attention only); the final block runs its query, attention row,
        output projection, both layer norms and the feed-forward network at
        the last position only.  Dropout masks are still drawn for all
        ``batch * seq_len`` positions (:func:`repro.nn.functional.dropout_rows`,
        :func:`repro.nn.functional.dropout_last`), so the generator stream is
        the one ``forward`` consumes.  Returns ``(batch, hidden_dim)``; equal
        to the slice of ``forward`` up to rounding (the GEMM row counts
        differ).
        """
        mask = self._attention_mask(layout.batch, layout.seq_len, layout.lengths)
        for block in self.blocks[:-1]:
            x = block.forward_rows(x, layout, mask)
        return self.blocks[-1].forward_last(x, layout, mask[:, :, layout.seq_len - 1, :])
