"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

These free functions mirror the parts of ``torch.nn.functional`` that the
models in this reproduction need: softmax, cross entropy over
the full item catalogue, layer normalisation, dropout and masking utilities
for causal self-attention.

Each op has one implementation.  The training hot-path ops (softmax,
cross entropy, linear, layer norm, dropout, masked fill) are
fused kernels: the forward value is computed with ``out=`` ufuncs and the
gradient is evaluated from its closed form in one or two allocations,
reusing saved forward intermediates.  ``tests/`` checks every op's forward
against a closed-form numpy expression and its gradient against float64
central differences.
"""

from __future__ import annotations

import math
from typing import Iterator, Optional

import numpy as np

from .tensor import Tensor, _unbroadcast, is_grad_enabled

# A large negative value used to mask attention logits.  Using an actual
# ``-inf`` would produce NaNs when an entire row is masked, so we follow the
# common practice of a large finite constant.
MASK_VALUE = -1e9


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    value = shifted
    out = x._make_child(value, (x,))

    def _backward(grad: np.ndarray) -> None:
        # dx = p * (g - sum(g * p)); two temporaries.
        inner = grad * value
        dx = grad - inner.sum(axis=axis, keepdims=True)
        dx *= value
        x._accumulate_owned(dx)

    out._backward = _backward if out.requires_grad else None
    return out


def cross_entropy(logits: Tensor, targets: np.ndarray,
                  ignore_index: Optional[int] = None,
                  reduction: str = "mean") -> Tensor:
    """Cross-entropy loss between ``logits`` and integer ``targets``.

    Parameters
    ----------
    logits:
        Tensor of shape ``(batch, num_classes)``.
    targets:
        Integer array of shape ``(batch,)``.
    ignore_index:
        Optional target value whose rows are excluded from the loss (used for
        padded positions).
    reduction:
        ``"mean"``, ``"sum"`` or ``"none"``.
    """
    targets = np.asarray(targets, dtype=np.int64)
    if logits.ndim != 2:
        raise ValueError("cross_entropy expects 2-D logits (batch, num_classes)")
    if targets.ndim != 1 or targets.shape[0] != logits.shape[0]:
        raise ValueError("targets must be 1-D and aligned with logits rows")
    if reduction not in ("none", "sum", "mean"):
        raise ValueError(f"unknown reduction: {reduction!r}")

    batch = logits.shape[0]
    rows = np.arange(batch)
    if ignore_index is not None:
        keep = targets != ignore_index
        safe_targets = np.where(keep, targets, 0)
    else:
        keep = np.ones(batch, dtype=bool)
        safe_targets = targets

    # The loss over the full catalogue is the single largest training
    # allocation site (batch x num_items logits), so the backward
    # writes (softmax - onehot) * scale into one reused buffer instead of
    # chaining log-softmax / gather / mask primitives.
    x = logits.data
    shifted = x - x.max(axis=-1, keepdims=True)
    exps = np.exp(shifted)
    sum_exp = exps.sum(axis=-1, keepdims=True)
    log_norm = np.log(sum_exp)
    keep_f = keep.astype(x.dtype)
    picked = (shifted[rows, safe_targets] - log_norm[:, 0])
    losses_arr = -picked * keep_f
    denom = max(int(keep.sum()), 1)

    if reduction == "none":
        value = losses_arr
    elif reduction == "sum":
        value = losses_arr.sum()
    else:
        value = losses_arr.sum() * (1.0 / denom)
    out = logits._make_child(np.asarray(value), (logits,))

    def _backward(grad: np.ndarray) -> None:
        # dlogits = scale_i * (softmax_ij - 1[j == t_i]); ``exps`` is turned
        # into the softmax in place and then scaled row-wise, so the whole
        # backward costs one extra allocation at most (the copy inside
        # _accumulate is skipped because we own the buffer).
        np.divide(exps, sum_exp, out=exps)
        exps[rows, safe_targets] -= 1.0
        if reduction == "none":
            scale = grad * keep_f
        elif reduction == "sum":
            scale = float(grad) * keep_f
        else:
            scale = (float(grad) / denom) * keep_f
        np.multiply(exps, scale[:, None], out=exps)
        logits._accumulate_owned(exps)

    out._backward = _backward if out.requires_grad else None
    return out


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight + bias`` with a fused flattened-GEMM kernel.

    For batched inputs (e.g. ``(batch, seq, d)``) numpy's ``matmul`` loops
    one small GEMM per leading index; the fused kernel reshapes to a single
    ``(batch * seq, d)`` GEMM — much better BLAS utilisation — adds the bias
    in place, and computes ``dW = x²ᵀ g²`` / ``db = Σ g²`` as single GEMM /
    reduction calls in the backward.
    """
    xd = x.data
    in_dim = xd.shape[-1]
    out_dim = weight.data.shape[-1]
    x2 = xd.reshape(-1, in_dim)
    value2 = x2 @ weight.data
    if bias is not None:
        value2 += bias.data
    value = value2.reshape(xd.shape[:-1] + (out_dim,))

    parents = (x, weight) if bias is None else (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(value, requires_grad=requires, dtype=value.dtype)
    if not requires:
        return out
    out._prev = parents

    def _backward(grad: np.ndarray) -> None:
        g2 = grad.reshape(-1, out_dim)
        if x.requires_grad:
            x._accumulate_owned((g2 @ weight.data.T).reshape(xd.shape))
        if weight.requires_grad:
            weight._accumulate_owned(x2.T @ g2)
        if bias is not None and bias.requires_grad:
            bias._accumulate_owned(g2.sum(axis=0))

    out._backward = _backward
    return out


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-12) -> Tensor:
    """Layer normalisation over the last dimension."""
    xd = x.data
    inv_count = 1.0 / xd.shape[-1]
    # sum * (1/n), not np.mean: the same rounding as Tensor.mean and as the
    # compiled inference plans.
    mean = xd.sum(axis=-1, keepdims=True) * inv_count
    centered = xd - mean
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    std = np.sqrt(var + eps)
    # Normalise in place: ``centered`` is not needed past this point.
    centered /= std
    normed = centered
    value = normed * weight.data
    value += bias.data

    parents = (x, weight, bias)
    requires = is_grad_enabled() and any(p.requires_grad for p in parents)
    out = Tensor(value, requires_grad=requires, dtype=value.dtype)
    if not requires:
        return out
    out._prev = parents

    def _backward(grad: np.ndarray) -> None:
        lead_axes = tuple(range(grad.ndim - 1))
        if bias.requires_grad:
            bias._accumulate(grad.sum(axis=lead_axes) if lead_axes else grad)
        if weight.requires_grad:
            gn = grad * normed
            weight._accumulate(gn.sum(axis=lead_axes) if lead_axes else gn)
        if x.requires_grad:
            # dx = (ghat - mean(ghat) - normed * mean(ghat * normed)) / std,
            # evaluated with two full-size temporaries (ghat, gy).
            ghat = grad * weight.data
            gy = ghat * normed
            ghat -= ghat.sum(axis=-1, keepdims=True) * inv_count
            np.multiply(normed, gy.sum(axis=-1, keepdims=True) * inv_count, out=gy)
            ghat -= gy
            ghat /= std
            x._accumulate_owned(ghat)

    out._backward = _backward
    return out


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout: at train time zero entries with probability ``p``."""
    if not training or p <= 0.0:
        return x
    return _dropout(x, p, rng, x.shape, Ellipsis)


def dropout_last(x: Tensor, p: float, training: bool,
                 rng: Optional[np.random.Generator], seq_len: int) -> Tensor:
    """Dropout of the last of ``seq_len`` rows, on the all-rows stream.

    ``x`` holds row ``seq_len - 1`` along axis -2 of a tensor of shape
    ``x.shape[:-1] + (seq_len, x.shape[-1])`` whose other rows were never
    computed.  The mask is still drawn for that full shape and its last row
    applied, so values and generator state afterwards equal
    ``dropout(full)[..., seq_len - 1, :]``: pruning a forward pass never
    re-rolls the seeds of a training run.
    """
    if not training or p <= 0.0:
        return x
    shape = x.shape[:-1] + (seq_len, x.shape[-1])
    return _dropout(x, p, rng, shape, (Ellipsis, seq_len - 1, slice(None)))


def dropout_rows(x: Tensor, p: float, training: bool,
                 rng: Optional[np.random.Generator], shape, index) -> Tensor:
    """Dropout of the rows ``index`` of a tensor of ``shape``, on its stream.

    ``x`` holds the rows ``index`` selects from a tensor of ``shape`` (with
    ``x.shape[-1] == shape[-1]``) whose other rows were never computed.  The
    mask is drawn for all of ``shape``, so values and generator state
    afterwards equal ``dropout(full)[index]``.
    """
    if not training or p <= 0.0:
        return x
    return _dropout(x, p, rng, shape, index)


def _dropout(x: Tensor, p: float, rng: Optional[np.random.Generator],
             shape, index) -> Tensor:
    """Apply to ``x`` the entries ``index`` of a mask drawn for ``shape``."""
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    keep = _keep_mask(rng, p, shape, x.data.dtype)[index]
    scale = 1.0 / (1.0 - p)
    value = x.data * keep
    value *= scale
    out = x._make_child(value, (x,))

    def _backward(grad: np.ndarray) -> None:
        dx = grad * keep
        dx *= scale
        x._accumulate_owned(dx)

    out._backward = _backward if out.requires_grad else None
    return out


def _keep_mask(rng: np.random.Generator, p: float, shape,
               dtype) -> np.ndarray:
    """``rng.random(shape, dtype) >= p``, compared on the generator's words.

    ``Generator.random`` spends most of its time turning words into floats.
    A float64 draw is ``(word >> 11) * 2**-53`` and a float32 draw
    ``(half >> 8) * 2**-24``, where the halves of each 64-bit word are read
    low first and the high one waits in PCG64's ``has_uint32``/``uinteger``
    buffer.  So the mask compares the raw words against an integer threshold,
    and leaves the generator's state exactly as ``rng.random`` would.
    """
    bit_generator = rng.bit_generator
    if not isinstance(bit_generator, np.random.PCG64):
        raise TypeError("dropout draws its masks from a PCG64 generator, "
                        f"got {type(bit_generator).__name__}")
    float32 = np.dtype(dtype) == np.float32
    bits = 24 if float32 else 53
    # The smallest draw that passes is ceil(p * 2**bits) * 2**-bits, or the
    # one below it where numpy's comparison rounds p to float32 (a Python
    # float p against float32 draws): ask numpy's own array comparison.
    ceiling = math.ceil(float(p) * 2.0 ** bits)
    candidates = (np.array([ceiling - 1, ceiling], dtype=dtype)
                  * np.dtype(dtype).type(2.0 ** -bits))
    threshold = ceiling - 1 if (candidates >= p)[0] else ceiling
    count = math.prod(shape)
    if not float32:
        words = bit_generator.random_raw(count)
        return (words > np.uint64((threshold << 11) - 1)).reshape(shape)
    state = bit_generator.state
    buffered = 1 if state["has_uint32"] and count else 0
    fresh = count - buffered
    words = bit_generator.random_raw((fresh + 1) // 2)
    halves = words.astype("<u8", copy=False).view("<u4")
    limit = np.uint32((threshold << 8) - 1)
    keep = np.empty(count, dtype=bool)
    if buffered:
        keep[0] = state["uinteger"] > limit
    np.greater(halves[:fresh], limit, out=keep[buffered:])
    if buffered or words.size:
        state = bit_generator.state
        state["has_uint32"] = fresh % 2
        if words.size:
            state["uinteger"] = int(words[-1] >> 32)
        bit_generator.state = state
    return keep.reshape(shape)


def gather_rows(x: Tensor, index) -> Tensor:
    """``x[index]`` for an ``index`` that selects no row twice.

    ``index`` is an integer array (rows of axis 0) or a tuple of them (rows
    of the leading axes).  Unlike :meth:`Tensor.take_rows`, the backward is a
    plain assignment instead of a scatter-add.
    """
    out = x._make_child(x.data[index], (x,))

    def _backward(grad: np.ndarray) -> None:
        full = np.zeros_like(x.data)
        full[index] = grad
        x._accumulate_owned(full)

    out._backward = _backward if out.requires_grad else None
    return out


def scatter_rows(x: Tensor, index, shape) -> Tensor:
    """Zeros of ``shape`` with ``x`` written at the rows ``index``.

    The inverse of :func:`gather_rows`: ``gather_rows(scatter_rows(x, index,
    shape), index)`` is ``x``.
    """
    data = np.zeros(shape, dtype=x.data.dtype)
    data[index] = x.data
    out = x._make_child(data, (x,))

    def _backward(grad: np.ndarray) -> None:
        x._accumulate_owned(grad[index])

    out._backward = _backward if out.requires_grad else None
    return out


def masked_fill(x: Tensor, mask: np.ndarray, value: float = MASK_VALUE) -> Tensor:
    """Replace entries where ``mask`` is True with ``value``."""
    mask = np.asarray(mask, dtype=bool)
    data = np.where(mask, x.data.dtype.type(value), x.data)
    out = x._make_child(data, (x,))

    def _backward(grad: np.ndarray) -> None:
        dx = grad * ~mask
        x._accumulate_owned(_unbroadcast(dx, x.data.shape))

    out._backward = _backward if out.requires_grad else None
    return out


def causal_mask(seq_len: int) -> np.ndarray:
    """Boolean mask of shape (seq_len, seq_len), True where attention is *blocked*."""
    return np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)


def padding_mask(lengths: np.ndarray, seq_len: int) -> np.ndarray:
    """Boolean mask of shape (batch, seq_len), True at padded positions.

    Sequences are assumed right-aligned is *not* required; the models in this
    repository left-pad, so padding occupies the first ``seq_len - length``
    positions of each row.
    """
    lengths = np.asarray(lengths, dtype=np.int64)
    positions = np.arange(seq_len)[None, :]
    starts = (seq_len - lengths)[:, None]
    return positions < starts


def l2_normalize(x: Tensor, axis: int = -1, eps: float = 1e-12) -> Tensor:
    """L2-normalise ``x`` along ``axis``."""
    norm = (x * x).sum(axis=axis, keepdims=True)
    return x / (norm + eps).sqrt()


#: minimum row count for the GEMMs whose rows must not depend on their
#: batchmates.  BLAS routes very small ``m`` through different kernels
#: (``m == 1`` is a GEMV; some shapes special-case ``m == 2``) whose
#: accumulation order differs from the blocked kernels used for real
#: batches, so without a floor a request's float32 scores would depend on
#: how many other requests it was batched with.  Padding tiny batches up to 4
#: rows keeps every batch composition on the same kernel family — the
#: contract the dynamic micro-batcher's bit-identity guarantee rests on, and
#: the floor :class:`repro.nn.attention.PackedRows` keeps under the packed
#: sequence rows.  (float64 GEMMs are not row-stable across batch sizes in
#: general; bit-identical coalescing is a float32-path property.)
MIN_SCORING_ROWS = 4

#: rows per block of every full-catalogue derivation (the whitened feature
#: table, the inference item matrix): each is filled block by block into
#: one preallocated output, so its temporaries are a few blocks (~1 MiB
#: each at d = 32, float64), never a catalogue-sized copy.
CATALOGUE_BLOCK_ROWS = 4096


def catalogue_row_blocks(num_rows: int) -> Iterator[slice]:
    """Consecutive row slices of :data:`CATALOGUE_BLOCK_ROWS` covering
    ``range(num_rows)``.

    A tail shorter than :data:`MIN_SCORING_ROWS` joins the block before it,
    so no block's GEMM drops to the small-``m`` kernels; the per-row results
    then equal those of one full-table GEMM (``tests/`` checks every family
    bit for bit).
    """
    starts = list(range(0, num_rows, CATALOGUE_BLOCK_ROWS))
    if len(starts) > 1 and num_rows - starts[-1] < MIN_SCORING_ROWS:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [num_rows]):
        yield slice(start, stop)


def catalogue_scores(users, item_matrix, dtype=np.float32) -> np.ndarray:
    """Inference-only full-catalogue scores ``U Vᵀ`` as a plain numpy array.

    This is the serving fast path for the paper's prediction layer (Eqn. 1):
    both operands are detached from any autodiff graph, cast to ``dtype``
    (float32 by default, halving the memory traffic of the matmul) and scored
    with a single BLAS call.  Pass ``dtype=None`` to keep the operands'
    native precision.

    Parameters
    ----------
    users:
        ``(batch, d)`` user representations — a :class:`Tensor` or ndarray.
    item_matrix:
        ``(num_items + 1, d)`` candidate item matrix — a :class:`Tensor` or
        ndarray.
    """
    users_arr = users.data if isinstance(users, Tensor) else np.asarray(users)
    items_arr = item_matrix.data if isinstance(item_matrix, Tensor) else np.asarray(item_matrix)
    if dtype is not None:
        users_arr = users_arr.astype(dtype, copy=False)
        items_arr = items_arr.astype(dtype, copy=False)
    return users_arr @ items_arr.T


def pad_scoring_rows(rows: np.ndarray) -> np.ndarray:
    """``rows`` topped up to :data:`MIN_SCORING_ROWS` by repeating its last
    row, so a tiny batch's GEMM stays off the GEMV kernels; callers trim the
    scores back to ``rows.shape[0]``.  An empty batch is returned as is.
    Every catalogue scan pads here: the dense path, the shard partitions and
    the int8 re-rank."""
    if rows.ndim != 2:
        raise ValueError(f"queries must be 2-D (batch, dim), got shape "
                         f"{rows.shape}")
    padding = MIN_SCORING_ROWS - rows.shape[0]
    if padding > 0 and rows.shape[0] > 0:
        rows = np.concatenate([rows, np.repeat(rows[-1:], padding, axis=0)])
    return rows


def padded_catalogue_scores(users: np.ndarray, scoring_matrix: np.ndarray,
                            score_dtype=np.float32) -> np.ndarray:
    """``users @ scoring_matrix.T`` in ``score_dtype`` through
    :func:`pad_scoring_rows` — the one full-catalogue scoring call
    evaluation and serving share, so a row's scores never depend on its
    batchmates."""
    scores = catalogue_scores(pad_scoring_rows(users), scoring_matrix,
                              dtype=score_dtype)
    return scores[:users.shape[0]]
