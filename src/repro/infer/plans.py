"""Compiled forward plans: trained models lowered to plain-numpy programs.

A plan is a *compiled* counterpart of one model family's ``encode_sequence``:
weights are snapshotted as contiguous arrays, every intermediate lives in a
preallocated :class:`~repro.infer.arena.BufferArena` buffer, and the forward
runs as a straight line of ``out=`` numpy calls — no :class:`~repro.nn.Tensor`
wrappers, no autodiff bookkeeping, no per-op allocation after warmup.

**Bit-identity contract.**  A plan performs *exactly* the floating-point
operations of the ``nn.no_grad`` graph path (fused kernels, eval mode), in
the same order, on the same shapes, with the same scalar dtypes — including
quirks like the float64 ``sqrt(2/pi)`` constant inside the fused GELU and the
dtype-cast attention scale.  ``plan.encode(...)`` is therefore bit-identical
(not merely close) to ``model.encode_sequences(...)`` at equal input shapes,
for both float32 and float64 models.  Tests assert this per model family.

Programs are specialised per ``(batch, seq)`` shape bucket: compiling a
bucket binds every buffer *and every reshape/transpose view* once, so the
steady-state call is pure compute.  Buckets live in a small LRU; evicting one
releases its arena buffers.

Families
--------
* :class:`TransformerPlan` — every model using the shared
  :meth:`SequentialRecommender.encode_sequence` (SASRec variants, CL4SRec,
  S3-Rec, FDSA excluded, UniSRec, VQRec, WhitenRec, WhitenRec+).
* :class:`FDSAPlan` — FDSA's two-stream encoder; the projected text-feature
  table is constant at inference time and snapshotted at compile time.
* :class:`GRUPlan` — GRU4Rec's unrolled recurrence.
* :class:`MeanPoolPlan` — the order-free mean-pooling encoders (GRCN, BM3).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from ..nn.module import export_array
from .arena import BufferArena


class UnsupportedModelError(TypeError):
    """The model's encode path cannot be compiled to a graph-free plan.

    Raised for model classes with an unrecognised ``encode_sequence``
    override; callers (e.g. :class:`repro.serving.Recommender`) fall back to
    the graph path.
    """


# --------------------------------------------------------------------- #
# Weight snapshots
# --------------------------------------------------------------------- #
def _snap_linear(linear) -> Tuple[np.ndarray, np.ndarray]:
    """(weight, bias) snapshot of an ``nn.Linear`` (bias may be None)."""
    weight = export_array(linear.weight)
    bias = export_array(linear.bias) if linear.bias is not None else None
    return weight, bias


def _snap_layernorm(norm) -> Tuple[np.ndarray, np.ndarray, float]:
    return export_array(norm.weight), export_array(norm.bias), float(norm.eps)


def _snap_block(block) -> Dict[str, object]:
    """Snapshot one ``nn.TransformerBlock``."""
    attention = block.attention
    ffn = block.feed_forward
    if ffn.activation not in ("gelu", "relu"):
        raise UnsupportedModelError(
            f"cannot compile feed-forward activation {ffn.activation!r}"
        )
    return {
        "wq": _snap_linear(attention.query), "wk": _snap_linear(attention.key),
        "wv": _snap_linear(attention.value), "wo": _snap_linear(attention.output),
        "num_heads": int(attention.num_heads), "head_dim": int(attention.head_dim),
        "ln1": _snap_layernorm(block.attention_norm),
        "fc1": _snap_linear(ffn.fc1), "fc2": _snap_linear(ffn.fc2),
        "activation": ffn.activation,
        "ln2": _snap_layernorm(block.feed_forward_norm),
    }


def _snap_encoder_stack(model, encoder, input_norm) -> Dict[str, object]:
    """Snapshot a (position table, input LN, transformer blocks) stack."""
    from ..nn.attention import TransformerBlock, TransformerEncoder

    if type(encoder) is not TransformerEncoder:
        raise UnsupportedModelError(
            f"cannot compile encoder of type {type(encoder).__name__}"
        )
    for block in encoder.blocks:
        if type(block) is not TransformerBlock:
            raise UnsupportedModelError(
                f"cannot compile encoder block of type {type(block).__name__}"
            )
    return {
        "position": export_array(model.position_embedding.weight),
        "input_ln": _snap_layernorm(input_norm),
        "blocks": [_snap_block(block) for block in encoder.blocks],
        "causal": bool(encoder.causal),
    }


# --------------------------------------------------------------------- #
# Program builders
# --------------------------------------------------------------------- #
def _make_layer_norm(x, mean_buf, var_buf, sq_buf, weights) -> Callable[[], None]:
    """In-place layer norm over the last axis of ``x`` (fused-kernel math)."""
    weight, bias, eps = weights
    inv_count = 1.0 / x.shape[-1]

    def run_layer_norm(x=x, mean_buf=mean_buf, var_buf=var_buf, sq_buf=sq_buf,
                       weight=weight, bias=bias, eps=eps, inv_count=inv_count):
        x.sum(axis=-1, keepdims=True, out=mean_buf)
        mean_buf *= inv_count
        np.subtract(x, mean_buf, out=x)
        np.multiply(x, x, out=sq_buf)
        sq_buf.sum(axis=-1, keepdims=True, out=var_buf)
        var_buf *= inv_count
        var_buf += eps
        np.sqrt(var_buf, out=var_buf)
        x /= var_buf
        x *= weight
        x += bias

    return run_layer_norm


#: the exact scalar constants of ``Tensor.gelu`` — ``_GELU_C`` is a float64
#: numpy scalar (``np.sqrt`` result) like in the graph kernel, NOT cast to the
#: model dtype: replicating the mixed-precision multiply is what keeps
#: float32 plans bit-identical to the graph.
_GELU_C = np.sqrt(2.0 / np.pi)
_GELU_CUBIC = 0.044715


def _make_masked_softmax(scores, reduce_buf, mask, head_dim: int
                         ) -> Callable[[], None]:
    """In place ``softmax(masked_fill(scores / sqrt(head_dim), mask))`` over
    the last axis, with the graph kernels' dtype-cast scalars."""
    dtype = scores.dtype
    scale = dtype.type(1.0 / np.sqrt(head_dim))
    mask_value = dtype.type(-1e9)

    def run_masked_softmax(scores=scores, reduce_buf=reduce_buf, mask=mask,
                           scale=scale, mask_value=mask_value):
        scores *= scale
        np.copyto(scores, mask_value, where=mask)
        scores.max(axis=-1, keepdims=True, out=reduce_buf)
        scores -= reduce_buf
        np.exp(scores, out=scores)
        scores.sum(axis=-1, keepdims=True, out=reduce_buf)
        scores /= reduce_buf

    return run_masked_softmax


def _make_feed_forward(arena: BufferArena, tag: str, x: np.ndarray,
                       block: Dict[str, object],
                       norm: Callable[[], None]) -> Callable[[], None]:
    """Second half of a block over the rows of ``x``, in place:
    ``x = ln2(x + fc2(act(fc1(x))))``."""
    dtype, hidden_dim = x.dtype, x.shape[-1]
    x2 = x.reshape(-1, hidden_dim)
    rows = x2.shape[0]
    inner_dim = block["fc1"][0].shape[1]
    ffn_hidden = arena.get(f"{tag}/ffn_hidden", (rows, inner_dim), dtype)
    ffn_act = arena.get(f"{tag}/ffn_act", (rows, inner_dim), dtype)
    ffn_out = arena.get(f"{tag}/ffn_out", (rows, hidden_dim), dtype)
    gelu = block["activation"] == "gelu"
    (w1, b1), (w2, b2) = block["fc1"], block["fc2"]

    def run_feed_forward(x2=x2, ffn_hidden=ffn_hidden, ffn_act=ffn_act,
                         ffn_out=ffn_out, gelu=gelu, w1=w1, b1=b1, w2=w2,
                         b2=b2, norm=norm):
        np.matmul(x2, w1, out=ffn_hidden)
        ffn_hidden += b1
        if gelu:
            # Exactly Tensor.gelu's fused chain; _GELU_C stays float64.
            np.multiply(ffn_hidden, ffn_hidden, out=ffn_act)
            ffn_act *= ffn_hidden
            ffn_act *= _GELU_CUBIC
            ffn_act += ffn_hidden
            ffn_act *= _GELU_C
            np.tanh(ffn_act, out=ffn_act)
            ffn_act += 1.0
            ffn_act *= ffn_hidden
            ffn_act *= 0.5
        else:
            # Tensor.relu: value = data * (data > 0).
            np.greater(ffn_hidden, 0, out=ffn_act)
            ffn_act *= ffn_hidden
        np.matmul(ffn_act, w2, out=ffn_out)
        ffn_out += b2
        np.add(x2, ffn_out, out=x2)
        norm()

    return run_feed_forward


def _build_stack_program(arena: BufferArena, tag: str, batch: int, seq: int,
                         dtype: np.dtype, stack: Dict[str, object],
                         mask) -> Tuple[Callable, np.ndarray]:
    """Compile one transformer stack into a ``run(table, item_ids)`` closure.

    ``mask`` is the shared ``(batch, 1, seq, seq)`` boolean attention mask,
    filled by the caller before the stack runs (FDSA's two streams share one
    mask).  Like :meth:`TransformerEncoder.forward_last`, the final block
    projects keys and values from every position of ``x`` and computes the
    rest — query, attention row, output projection, layer norms, feed-forward
    — for the last position only, in ``(batch, ...)``-row buffers.  Returns
    ``(run, last_hidden)`` where ``last_hidden`` is that block's
    ``(batch, hidden)`` output buffer.
    """
    hidden_dim = stack["position"].shape[1]
    position_slice = np.ascontiguousarray(stack["position"][:seq])
    x = arena.get(f"{tag}/x", (batch, seq, hidden_dim), dtype)
    x2 = x.reshape(batch * seq, hidden_dim)
    mean_buf = arena.get(f"{tag}/ln_mean", (batch, seq, 1), dtype)
    var_buf = arena.get(f"{tag}/ln_var", (batch, seq, 1), dtype)
    sq_buf = arena.get(f"{tag}/ln_sq", (batch, seq, hidden_dim), dtype)
    input_norm = _make_layer_norm(x, mean_buf, var_buf, sq_buf, stack["input_ln"])
    final = len(stack["blocks"]) - 1

    block_runs: List[Callable[[], None]] = []
    for index, block in enumerate(stack["blocks"]):
        block_tag = f"{tag}/block{index}"
        num_heads, head_dim = block["num_heads"], block["head_dim"]
        k = arena.get(f"{block_tag}/k", (batch * seq, hidden_dim), dtype)
        v = arena.get(f"{block_tag}/v", (batch * seq, hidden_dim), dtype)
        k_heads_t = (k.reshape(batch, seq, num_heads, head_dim)
                     .transpose(0, 2, 3, 1))
        v_heads = v.reshape(batch, seq, num_heads, head_dim).transpose(0, 2, 1, 3)
        (wq, bq), (wk, bk), (wv, bv), (wo, bo) = (
            block["wq"], block["wk"], block["wv"], block["wo"])

        if index < final:
            q = arena.get(f"{block_tag}/q", (batch * seq, hidden_dim), dtype)
            q_heads = q.reshape(batch, seq, num_heads, head_dim).transpose(0, 2, 1, 3)
            scores = arena.get(f"{block_tag}/scores", (batch, num_heads, seq, seq), dtype)
            reduce_buf = arena.get(f"{block_tag}/reduce", (batch, num_heads, seq, 1), dtype)
            softmax = _make_masked_softmax(scores, reduce_buf, mask, head_dim)
            context = arena.get(f"{block_tag}/context", (batch, num_heads, seq, head_dim), dtype)
            context_t = context.transpose(0, 2, 1, 3)
            merged = arena.get(f"{block_tag}/merged", (batch, seq, hidden_dim), dtype)
            merged_heads = merged.reshape(batch, seq, num_heads, head_dim)
            merged2 = merged.reshape(batch * seq, hidden_dim)
            attended = arena.get(f"{block_tag}/attended", (batch * seq, hidden_dim), dtype)
            norm1 = _make_layer_norm(x, mean_buf, var_buf, sq_buf, block["ln1"])
            feed_forward = _make_feed_forward(
                arena, block_tag, x, block,
                _make_layer_norm(x, mean_buf, var_buf, sq_buf, block["ln2"]))

            def run_block(x2=x2, q=q, k=k, v=v, q_heads=q_heads,
                          k_heads_t=k_heads_t, v_heads=v_heads, scores=scores,
                          softmax=softmax, context=context,
                          context_t=context_t, merged_heads=merged_heads,
                          merged2=merged2, attended=attended, norm1=norm1,
                          feed_forward=feed_forward,
                          wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, wo=wo, bo=bo):
                np.matmul(x2, wq, out=q)
                q += bq
                np.matmul(x2, wk, out=k)
                k += bk
                np.matmul(x2, wv, out=v)
                v += bv
                np.matmul(q_heads, k_heads_t, out=scores)
                softmax()
                np.matmul(scores, v_heads, out=context)
                np.copyto(merged_heads, context_t)
                np.matmul(merged2, wo, out=attended)
                attended += bo
                np.add(x2, attended, out=x2)
                norm1()
                feed_forward()

        else:
            # The final block, op for op TransformerBlock.forward_last.
            x_last = x[:, seq - 1, :]
            last_hidden = arena.get(f"{block_tag}/last", (batch, hidden_dim), dtype)
            q = arena.get(f"{block_tag}/q", (batch, hidden_dim), dtype)
            q_heads = q.reshape(batch, num_heads, 1, head_dim)
            scores = arena.get(f"{block_tag}/scores", (batch, num_heads, seq), dtype)
            scores_rows = scores.reshape(batch, num_heads, 1, seq)
            reduce_buf = arena.get(f"{block_tag}/reduce", (batch, num_heads, 1), dtype)
            softmax = _make_masked_softmax(scores, reduce_buf,
                                           mask[:, :, seq - 1, :], head_dim)
            context = arena.get(f"{block_tag}/context", (batch, num_heads, 1, head_dim), dtype)
            merged2 = context.reshape(batch, hidden_dim)
            last_mean = arena.get(f"{block_tag}/ln_mean", (batch, 1), dtype)
            last_var = arena.get(f"{block_tag}/ln_var", (batch, 1), dtype)
            last_sq = arena.get(f"{block_tag}/ln_sq", (batch, hidden_dim), dtype)
            norm1 = _make_layer_norm(last_hidden, last_mean, last_var, last_sq,
                                     block["ln1"])
            feed_forward = _make_feed_forward(
                arena, block_tag, last_hidden, block,
                _make_layer_norm(last_hidden, last_mean, last_var, last_sq,
                                 block["ln2"]))

            def run_block(x2=x2, x_last=x_last, last=last_hidden, q=q, k=k,
                          v=v, q_heads=q_heads, k_heads_t=k_heads_t,
                          v_heads=v_heads, scores_rows=scores_rows,
                          softmax=softmax, context=context, merged2=merged2,
                          norm1=norm1, feed_forward=feed_forward,
                          wq=wq, bq=bq, wk=wk, bk=bk, wv=wv, bv=bv, wo=wo, bo=bo):
                np.matmul(x_last, wq, out=q)
                q += bq
                np.matmul(x2, wk, out=k)
                k += bk
                np.matmul(x2, wv, out=v)
                v += bv
                np.matmul(q_heads, k_heads_t, out=scores_rows)
                softmax()
                np.matmul(scores_rows, v_heads, out=context)
                np.matmul(merged2, wo, out=last)
                last += bo
                np.add(x_last, last, out=last)
                norm1()
                feed_forward()

        block_runs.append(run_block)

    def run_stack(table, item_ids, x=x, position_slice=position_slice,
                  input_norm=input_norm, block_runs=block_runs):
        np.take(table, item_ids, axis=0, out=x)
        np.add(x, position_slice, out=x)
        input_norm()
        for run_block in block_runs:
            run_block()

    return run_stack, last_hidden


def _make_mask_fill(arena: BufferArena, tag: str, batch: int, seq: int,
                    causal: bool):
    """Compile the (causal | padding) attention-mask fill for one shape.

    Returns ``(fill, mask)``: calling ``fill(lengths)`` rewrites the
    persistent ``mask`` buffer with exactly the values
    ``TransformerEncoder.forward`` derives per call.
    """
    mask = arena.get(f"{tag}/mask", (batch, 1, seq, seq), np.bool_)
    mask_rows = mask.reshape(batch, seq, seq)
    pad_row = arena.get(f"{tag}/mask_pad", (batch, 1, seq), np.bool_)
    pad_flat = pad_row.reshape(batch, seq)
    causal_slice = np.triu(np.ones((seq, seq), dtype=bool), k=1)
    positions = np.arange(seq)[None, :]
    starts = arena.get(f"{tag}/mask_starts", (batch, 1), np.int64)

    def fill(lengths, mask_rows=mask_rows, pad_row=pad_row, pad_flat=pad_flat,
             causal_slice=causal_slice, positions=positions, starts=starts):
        if causal:
            np.copyto(mask_rows, causal_slice)
        else:
            mask_rows[...] = False
        np.subtract(seq, lengths[:, None], out=starts)
        np.less(positions, starts, out=pad_flat)
        np.logical_or(mask_rows, pad_row, out=mask_rows)

    return fill, mask


# --------------------------------------------------------------------- #
# Plan base class
# --------------------------------------------------------------------- #
class InferencePlan:
    """A model compiled into shape-specialised numpy forward programs.

    Sub-classes snapshot family-specific weights in ``_snapshot`` and build a
    ``run(item_ids, lengths, item_matrix) -> (batch, hidden)`` program per
    ``(batch, seq)`` bucket in ``_build_program``.  The public
    :meth:`encode` mirrors ``NextItemRecommender.encode_sequences`` and is
    bit-identical to it at equal dtype.
    """

    family = "base"

    def __init__(self, model, max_programs: int = 8,
                 arena: Optional[BufferArena] = None):
        self.dtype = np.dtype(model.dtype)
        self.hidden_dim = int(model.hidden_dim)
        self.max_seq_length = int(model.max_seq_length)
        self.model_name = getattr(model, "model_name", type(model).__name__)
        self.arena = arena if arena is not None else BufferArena()
        self.max_programs = max(1, int(max_programs))
        self._programs: "OrderedDict[Tuple[int, int], Callable]" = OrderedDict()
        self._snapshot(model)

    # -- compilation ---------------------------------------------------- #
    def _snapshot(self, model) -> None:
        raise NotImplementedError

    def _build_program(self, batch: int, seq: int) -> Callable:
        raise NotImplementedError

    def _bucket_tag(self, batch: int, seq: int) -> str:
        return f"{self.family}/b{batch}s{seq}"

    def _program(self, batch: int, seq: int) -> Callable:
        key = (batch, seq)
        program = self._programs.get(key)
        if program is not None:
            self._programs.move_to_end(key)
            return program
        while len(self._programs) >= self.max_programs:
            evicted, _ = self._programs.popitem(last=False)
            # Trailing "/" keeps the match to this bucket's own namespace:
            # "…/b1s2" is a string prefix of "…/b1s20/x" but not of its tag.
            self.arena.release_prefix(self._bucket_tag(*evicted) + "/")
        program = self._build_program(batch, seq)
        self._programs[key] = program
        return program

    @property
    def num_programs(self) -> int:
        return len(self._programs)

    # -- execution ------------------------------------------------------ #
    def _prepare(self, item_ids, lengths, item_matrix):
        item_ids = np.ascontiguousarray(np.asarray(item_ids, dtype=np.int64))
        lengths = np.asarray(lengths, dtype=np.int64)
        seq = item_ids.shape[1]
        if seq > self.max_seq_length:
            # Mirror the graph path (NextItemRecommender._check_sequence_length).
            raise ValueError(
                f"batch sequence length {seq} exceeds max_seq_length "
                f"{self.max_seq_length}"
            )
        matrix = np.asarray(item_matrix)
        if matrix.dtype != self.dtype:
            matrix = matrix.astype(self.dtype)
        return item_ids, lengths, matrix

    def encode(self, item_ids: np.ndarray, lengths: np.ndarray,
               item_matrix: np.ndarray) -> np.ndarray:
        """User representations, bit-identical to the graph inference path.

        Returns a fresh array (the internal output buffer is reused across
        calls and never escapes).
        """
        item_ids, lengths, matrix = self._prepare(item_ids, lengths, item_matrix)
        program = self._program(*item_ids.shape)
        return program(item_ids, lengths, matrix).copy()

    def describe(self) -> Dict[str, object]:
        """JSON-serialisable summary for stats endpoints."""
        return {
            "family": self.family,
            "model": self.model_name,
            "dtype": self.dtype.name,
            "programs": self.num_programs,
            "arena": self.arena.stats(),
        }


# --------------------------------------------------------------------- #
# Transformer family (the shared SequentialRecommender encoder)
# --------------------------------------------------------------------- #
class TransformerPlan(InferencePlan):
    """Compiled form of ``SequentialRecommender.encode_sequence``."""

    family = "transformer"

    def _snapshot(self, model) -> None:
        self._stack = _snap_encoder_stack(model, model.encoder,
                                          model.input_layernorm)

    def _build_program(self, batch: int, seq: int) -> Callable:
        tag = self._bucket_tag(batch, seq)
        stack = self._stack
        fill_mask, mask = _make_mask_fill(self.arena, tag, batch, seq,
                                          stack["causal"])
        run_stack, last_hidden = _build_stack_program(
            self.arena, tag, batch, seq, self.dtype, stack, mask)

        def run(item_ids, lengths, matrix):
            fill_mask(lengths)
            run_stack(matrix, item_ids)
            return last_hidden

        return run


# --------------------------------------------------------------------- #
# FDSA: two-stream encoder with a constant projected feature table
# --------------------------------------------------------------------- #
class FDSAPlan(InferencePlan):
    """Compiled FDSA forward: item stream + feature stream + fusion.

    The feature stream reads ``feature_projection(features)``, which is
    deterministic at inference time (frozen table, eval-mode MLP), so the
    projected table is computed once through the graph at compile time and
    snapshotted — precisely the values the graph recomputes per call.
    """

    family = "fdsa"

    def _snapshot(self, model) -> None:
        from .. import nn

        self._item_stack = _snap_encoder_stack(model, model.encoder,
                                               model.input_layernorm)
        self._feature_stack = _snap_encoder_stack(model, model.feature_encoder,
                                                  model.feature_layernorm)
        was_training = model.training
        model.eval()
        with nn.no_grad():
            projected = model.feature_projection(model.features.all_embeddings())
        if was_training:
            model.train()
        self._projected_features = export_array(projected)
        self._fusion = _snap_linear(model.fusion)

    def _build_program(self, batch: int, seq: int) -> Callable:
        tag = self._bucket_tag(batch, seq)
        dtype, hidden_dim = self.dtype, self.hidden_dim
        item_stack, feature_stack = self._item_stack, self._feature_stack
        fill_mask, mask = _make_mask_fill(self.arena, tag, batch, seq,
                                          item_stack["causal"])
        run_item, item_last = _build_stack_program(
            self.arena, f"{tag}/item", batch, seq, dtype, item_stack, mask)
        run_feature, feature_last = _build_stack_program(
            self.arena, f"{tag}/feature", batch, seq, dtype,
            feature_stack, mask)
        concat = self.arena.get(f"{tag}/concat", (batch, 2 * hidden_dim), dtype)
        fusion_out = self.arena.get(f"{tag}/fused", (batch, hidden_dim), dtype)
        weight, bias = self._fusion
        projected = self._projected_features

        def run(item_ids, lengths, matrix, fill_mask=fill_mask,
                run_item=run_item, run_feature=run_feature,
                projected=projected, concat=concat, fusion_out=fusion_out,
                item_last=item_last, feature_last=feature_last,
                weight=weight, bias=bias, hidden_dim=hidden_dim):
            fill_mask(lengths)
            run_item(matrix, item_ids)
            run_feature(projected, item_ids)
            np.copyto(concat[:, :hidden_dim], item_last)
            np.copyto(concat[:, hidden_dim:], feature_last)
            np.matmul(concat, weight, out=fusion_out)
            fusion_out += bias
            return fusion_out

        return run


# --------------------------------------------------------------------- #
# GRU4Rec: unrolled recurrence
# --------------------------------------------------------------------- #
class GRUPlan(InferencePlan):
    """Compiled GRU4Rec forward.

    The hidden state after the last step *is* the user representation
    (output dropout is a no-op in eval mode).
    """

    family = "gru"

    def _snapshot(self, model) -> None:
        cell = model.cell
        self._reset = _snap_linear(cell.reset_gate)
        self._update = _snap_linear(cell.update_gate)
        self._candidate = _snap_linear(cell.candidate)

    def _build_step(self, tag: str, rows: int
                    ) -> Tuple[Callable, np.ndarray]:
        """``(step, hidden)``: the closure for one GRU step over ``rows``
        concurrent rows and the hidden-state buffer it advances."""
        dtype, hidden_dim = self.dtype, self.hidden_dim
        arena = self.arena
        combined = arena.get(f"{tag}/combined", (rows, 2 * hidden_dim), dtype)
        gated = arena.get(f"{tag}/gated", (rows, 2 * hidden_dim), dtype)
        reset = arena.get(f"{tag}/reset", (rows, hidden_dim), dtype)
        update = arena.get(f"{tag}/update", (rows, hidden_dim), dtype)
        candidate = arena.get(f"{tag}/candidate", (rows, hidden_dim), dtype)
        blended = arena.get(f"{tag}/blended", (rows, hidden_dim), dtype)
        scratch = arena.get(f"{tag}/scratch", (rows, hidden_dim), dtype)
        real_bool = arena.get(f"{tag}/real_bool", (rows, 1), np.bool_)
        real = arena.get(f"{tag}/real", (rows, 1), dtype)
        real_inv = arena.get(f"{tag}/real_inv", (rows, 1), dtype)
        hidden = arena.get(f"{tag}/hidden", (rows, hidden_dim), dtype)
        (wr, br), (wu, bu), (wc, bc) = (self._reset, self._update,
                                        self._candidate)

        def sigmoid(buf):
            # Tensor.sigmoid: 1.0 / (1.0 + exp(-x)), op for op.
            np.negative(buf, out=buf)
            np.exp(buf, out=buf)
            buf += 1.0
            np.divide(1.0, buf, out=buf)

        def step(item_emb_step, step_ids, combined=combined, gated=gated,
                 reset=reset, update=update, candidate=candidate,
                 blended=blended, scratch=scratch, real_bool=real_bool,
                 real=real, real_inv=real_inv, hidden=hidden,
                 wr=wr, br=br, wu=wu, bu=bu, wc=wc, bc=bc,
                 hidden_dim=hidden_dim, sigmoid=sigmoid):
            """One recurrence step; ``step_ids`` drives the padding gate."""
            np.copyto(combined[:, :hidden_dim], item_emb_step)
            np.copyto(combined[:, hidden_dim:], hidden)
            np.matmul(combined, wr, out=reset)
            reset += br
            sigmoid(reset)
            np.matmul(combined, wu, out=update)
            update += bu
            sigmoid(update)
            np.copyto(gated[:, :hidden_dim], item_emb_step)
            np.multiply(hidden, reset, out=gated[:, hidden_dim:])
            np.matmul(gated, wc, out=candidate)
            candidate += bc
            np.tanh(candidate, out=candidate)
            # (1 - update) * hidden + update * candidate
            np.subtract(1.0, update, out=blended)
            blended *= hidden
            np.multiply(update, candidate, out=scratch)
            blended += scratch
            # Padding gate: hidden = new * real + hidden * (1 - real),
            # replicated even for all-real steps (bitwise faithfulness).
            np.not_equal(step_ids[:, None], 0, out=real_bool)
            np.copyto(real, real_bool)
            np.subtract(1.0, real, out=real_inv)
            blended *= real
            np.multiply(hidden, real_inv, out=scratch)
            scratch += blended
            np.copyto(hidden, scratch)

        return step, hidden

    def _build_program(self, batch: int, seq: int) -> Callable:
        tag = self._bucket_tag(batch, seq)
        dtype, hidden_dim = self.dtype, self.hidden_dim
        item_emb = self.arena.get(f"{tag}/item_emb", (batch, seq, hidden_dim), dtype)
        emb_steps = [item_emb[:, position, :] for position in range(seq)]
        step, hidden = self._build_step(tag, batch)

        def run(item_ids, lengths, matrix):
            np.take(matrix, item_ids, axis=0, out=item_emb)
            hidden[...] = 0.0
            for position, emb_view in enumerate(emb_steps):
                step(emb_view, item_ids[:, position])
            return hidden

        return run


# --------------------------------------------------------------------- #
# Mean pooling (GRCN / BM3): order-free
# --------------------------------------------------------------------- #
class MeanPoolPlan(InferencePlan):
    """Compiled ``_MeanPoolingRecommender.encode_sequence``."""

    family = "meanpool"

    def _snapshot(self, model) -> None:
        pass  # pooling has no weights; items come from the provided matrix

    def _build_program(self, batch: int, seq: int) -> Callable:
        tag = self._bucket_tag(batch, seq)
        dtype, hidden_dim = self.dtype, self.hidden_dim
        arena = self.arena
        item_emb = arena.get(f"{tag}/item_emb", (batch, seq, hidden_dim), dtype)
        mask_bool = arena.get(f"{tag}/mask_bool", (batch, seq), np.bool_)
        mask = arena.get(f"{tag}/mask", (batch, seq, 1), dtype)
        summed = arena.get(f"{tag}/summed", (batch, hidden_dim), dtype)
        lengths_i = arena.get(f"{tag}/lengths_i", (batch, 1), np.int64)
        inv_lengths = arena.get(f"{tag}/inv_lengths", (batch, 1), dtype)
        users = arena.get(f"{tag}/users", (batch, hidden_dim), dtype)

        def run(item_ids, lengths, matrix, item_emb=item_emb,
                mask_bool=mask_bool, mask=mask, summed=summed,
                lengths_i=lengths_i, inv_lengths=inv_lengths, users=users):
            np.take(matrix, item_ids, axis=0, out=item_emb)
            np.not_equal(item_ids, 0, out=mask_bool)
            np.copyto(mask[:, :, 0], mask_bool)
            item_emb *= mask
            item_emb.sum(axis=1, out=summed)
            np.maximum(lengths[:, None], 1, out=lengths_i)
            np.copyto(inv_lengths, lengths_i)  # int -> dtype cast
            np.divide(1.0, inv_lengths, out=inv_lengths)
            np.multiply(summed, inv_lengths, out=users)
            return users

        return run


# --------------------------------------------------------------------- #
# Dispatch
# --------------------------------------------------------------------- #
def compile_plan(model, max_programs: int = 8,
                 arena: Optional[BufferArena] = None) -> InferencePlan:
    """Compile a trained model into the graph-free plan for its family.

    Dispatch is by encode implementation, not by name: a subclass that
    overrides ``encode_sequence`` in an unrecognised way raises
    :class:`UnsupportedModelError` instead of silently compiling the wrong
    forward.
    """
    from ..models.base import SequentialRecommender
    from ..models.fdsa import FDSA
    from ..models.general import _MeanPoolingRecommender
    from ..models.gru4rec import GRU4Rec

    encode = type(model).encode_sequence
    kwargs = dict(max_programs=max_programs, arena=arena)
    if isinstance(model, GRU4Rec):
        if encode is not GRU4Rec.encode_sequence:
            raise UnsupportedModelError(
                f"{type(model).__name__} overrides GRU4Rec.encode_sequence")
        return GRUPlan(model, **kwargs)
    if isinstance(model, FDSA):
        if encode is not FDSA.encode_sequence:
            raise UnsupportedModelError(
                f"{type(model).__name__} overrides FDSA.encode_sequence")
        return FDSAPlan(model, **kwargs)
    if isinstance(model, _MeanPoolingRecommender):
        if encode is not _MeanPoolingRecommender.encode_sequence:
            raise UnsupportedModelError(
                f"{type(model).__name__} overrides the mean-pooling encoder")
        return MeanPoolPlan(model, **kwargs)
    if isinstance(model, SequentialRecommender):
        if encode is not SequentialRecommender.encode_sequence:
            raise UnsupportedModelError(
                f"{type(model).__name__} overrides encode_sequence; no "
                f"compiled plan matches its forward")
        return TransformerPlan(model, **kwargs)
    raise UnsupportedModelError(
        f"cannot compile {type(model).__name__}: no plan matches its encoder")
