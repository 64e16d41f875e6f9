"""Exact top-K over an int8-quantized catalogue partition.

The scan phase runs the catalogue GEMM against the int8 codes (cast to fp32
chunk-by-chunk into one preallocated buffer, so the working set stays a few
hundred KB regardless of catalogue size) and maintains *sound* score
intervals: for every row, ``|dense_score - approx_score|`` is bounded by
``a_q * scale_i + b_q * scaled_norm_i`` where ``a_q`` / ``b_q`` are two
per-query scalars derived below.  The bound covers

* the item quantization residual (``||x_i - s_i c_i||_2 <= HALFQ * sqrt(d) * s_i``
  by construction of the symmetric codes),
* the query quantization residual (measured exactly in fp64 — the bound
  holds even for adversarial queries because it never assumes the codes are
  good, only measures how far the scaled query codes actually landed),
* the fp32 rounding of the int8-GEMM accumulation *and* of the dense GEMM
  itself (the standard ``gamma_d`` term through Cauchy-Schwarz), and
* the final fp32 multiply by the item scale.

A running threshold (the ``m``-th best *lower* bound seen so far, with
``m = refine_factor * k``) prunes rows whose upper bound cannot reach the
top ``m``; the survivors' covering ``block_rows``-aligned blocks are then
re-scored with the *same* absolute-grid fp32 GEMM calls as
:func:`repro.shard.scoring.partition_scores`, so the returned top-K ids and
scores are bit-identical to the dense exact path — the shortlist only
decides *which* blocks get the exact treatment, never what a score is.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from ..index.base import topk_best_first
from ..nn.functional import pad_scoring_rows
from ..shard.partition import DEFAULT_BLOCK_ROWS
from ..shard.scoring import _mask_excluded
from .codec import INT8_LEVELS, QuantizedMatrix

# Shortlist over-fetch: the scan keeps the top ``refine_factor * k`` score
# intervals, which (empirically, and harmlessly — parity never depends on
# it) covers ties and near-boundary intervals with slack.
DEFAULT_REFINE_FACTOR = 2

# Rows cast + scored per scan chunk.  Small enough that the cast buffer and
# the approximate-score panel stay cache-friendly, large enough that the
# int8 GEMM amortises its launch overhead.
SCAN_CHUNK_ROWS = 16384

# Survivor count that triggers re-tightening of the running threshold with
# precise per-row bounds (keeps survivor gathers bounded on huge shards).
_TIGHTEN_AT = 4096

# Half a quantization step, inflated for the fp32 rounding of the scale
# division: ||x_i - s_i c_i||_inf <= HALFQ * s_i.
_HALFQ = np.float32(0.5 * (1.0 + 2.0 ** -11))

# Relative bound on fp32 rounding of the approx score and the interval
# arithmetic around it (generous: actual per-op error is ~2^-24).
_FPREL = np.float32(2.0 ** -19)

# Global inflation mopping up the fp32 rounding of the bound arithmetic
# itself (a handful of multiplies and adds, each ~2^-24 relative).
_INFL = np.float32(1.0001)

# Inflation for the fp64-measured query norms (fp64 measurement error is
# ~2^-53 relative per element; 1e-7 dominates it by a wide margin).
_NORM_INFL = 1.0 + 1e-7


def _gamma(dim: int) -> np.float32:
    """Upper bound on the relative fp32 GEMM accumulation error for
    length-``dim`` dot products, valid for any summation order/FMA use."""
    return np.float32((dim + 4) * 2.0 ** -23)


def _query_bounds(queries: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Quantize the query batch and derive the two bound coefficients.

    Returns ``(scaled_codes, a, b)`` where ``scaled_codes`` is the fp32
    matrix actually fed to the scan GEMM (query codes pre-multiplied by the
    query scales) and, for every catalogue row ``i``,

        ``|dense_score[q, i] - approx[q, i]| <= a[q] * scale_i + b[q] * scaled_norm_i``.
    """
    queries = np.ascontiguousarray(queries, dtype=np.float32)
    dim = queries.shape[1]
    gamma = _gamma(dim)
    sqrt_d = np.float32(np.sqrt(dim))

    amax = np.max(np.abs(queries), axis=1) if dim else np.zeros(queries.shape[0])
    qscale = (amax / np.float32(INT8_LEVELS)).astype(np.float32)
    qinv = np.zeros_like(qscale)
    nonzero = qscale > 0
    qinv[nonzero] = np.float32(1.0) / qscale[nonzero]
    codes = np.clip(np.rint(queries * qinv[:, None]),
                    -INT8_LEVELS, INT8_LEVELS).astype(np.float32)
    scaled = codes * qscale[:, None]

    # Exact fp64 measurement of the decomposition q = scaled + residual.
    q64 = queries.astype(np.float64)
    s64 = scaled.astype(np.float64)
    v_l2 = (np.sqrt((s64 ** 2).sum(axis=1)) * _NORM_INFL).astype(np.float32)
    u_l2 = (np.sqrt((q64 ** 2).sum(axis=1)) * _NORM_INFL).astype(np.float32)
    du_l2 = (np.sqrt(((q64 - s64) ** 2).sum(axis=1)) * _NORM_INFL).astype(np.float32)

    a = _INFL * _HALFQ * sqrt_d * (v_l2 + du_l2 + gamma * u_l2)
    b = _INFL * (du_l2 + gamma * (v_l2 + u_l2)
                 + _FPREL * np.float32(1.01) * v_l2)
    return scaled, a, b


def quantized_topk(queries: np.ndarray, matrix: np.ndarray,
                   quantized: QuantizedMatrix,
                   lo: int, hi: int, k: int,
                   exclude: Optional[Sequence[Sequence[int]]] = None,
                   refine_factor: int = DEFAULT_REFINE_FACTOR,
                   block_rows: int = DEFAULT_BLOCK_ROWS,
                   chunk_rows: int = SCAN_CHUNK_ROWS
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact top-K over rows ``[lo, hi)`` via int8 scan + fp32 block re-rank.

    Drop-in for :func:`repro.shard.scoring.exact_shard_topk` — same masking
    semantics, same ``(batch, min(k, hi - lo))`` result shape, bit-identical
    ids *and* scores — but touches the fp32 rows of only the shortlisted
    ``block_rows``-aligned blocks.  ``matrix`` may be a read-only memmap:
    the scan never reads it, the re-rank faults in only the winning blocks.
    """
    if matrix.dtype != np.float32:
        raise ValueError(
            f"int8 catalogue scoring requires float32 scoring "
            f"(got matrix dtype {matrix.dtype}); use the fp32 codec for "
            f"float64 requests")
    if quantized.num_rows != matrix.shape[0] or quantized.dim != matrix.shape[1]:
        raise ValueError(
            f"quantized shape ({quantized.num_rows}, {quantized.dim}) does "
            f"not match matrix shape {matrix.shape}")
    if not 0 <= lo <= hi <= matrix.shape[0]:
        raise ValueError(f"invalid partition [{lo}, {hi}) for "
                         f"{matrix.shape[0]} rows")
    if lo % block_rows != 0:
        raise ValueError(f"partition start {lo} is not aligned to "
                         f"block_rows={block_rows}")
    if int(refine_factor) < 1:
        raise ValueError(f"refine_factor must be >= 1, got {refine_factor}")

    batch = np.asarray(queries).shape[0]
    if lo == hi or k == 0:
        return (np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=matrix.dtype))
    padded = pad_scoring_rows(np.asarray(queries).astype(matrix.dtype,
                                                         copy=False))
    kk = min(int(k), hi - lo)
    if batch == 0:
        return (np.empty((0, kk), dtype=np.int64),
                np.empty((0, kk), dtype=matrix.dtype))

    scales = quantized.scales
    scaled_norms = quantized.scaled_norms
    codes = quantized.codes
    dim = quantized.dim
    m = int(refine_factor) * int(k)

    scaled_q, coeff_a, coeff_b = _query_bounds(padded[:batch])

    cast_buf = np.empty((min(chunk_rows, hi - lo), dim), dtype=np.float32)
    survivor_rows = []
    survivor_approx = []
    survivor_count = 0
    trun = None

    def _interval_radius(rows: np.ndarray) -> np.ndarray:
        return (coeff_a[:, None] * scales[rows]
                + coeff_b[:, None] * scaled_norms[rows])

    for start in range(lo, hi, chunk_rows):
        stop = min(start + chunk_rows, hi)
        width = stop - start
        chunk = cast_buf[:width]
        chunk[...] = codes[start:stop]
        approx = scaled_q @ chunk.T
        np.multiply(approx, scales[start:stop], out=approx)
        _mask_excluded(approx, start, stop, exclude)
        radius_max = (coeff_a * scales[start:stop].max()
                      + coeff_b * scaled_norms[start:stop].max())
        if trun is None:
            # Seed the running threshold from the first chunk's top-m
            # surrogate lower bounds (approx - radius_max <= true LB).
            kth = width - m
            top = (np.partition(approx, kth, axis=1)[:, kth:]
                   if kth > 0 else approx)
            if top.shape[1] >= m:
                trun = top.min(axis=1) - radius_max
            else:
                trun = np.full(batch, -np.inf, dtype=np.float32)
        keep = (approx >= (trun - radius_max)[:, None]).any(axis=0)
        kept = np.nonzero(keep)[0]
        if kept.size:
            survivor_rows.append(kept + start)
            survivor_approx.append(approx[:, kept])
            survivor_count += kept.size
            if survivor_count >= _TIGHTEN_AT:
                rows = np.concatenate(survivor_rows)
                approx_cols = np.concatenate(survivor_approx, axis=1)
                radius = _interval_radius(rows)
                lower = approx_cols - radius
                if lower.shape[1] >= m:
                    kth = lower.shape[1] - m
                    tightened = np.partition(lower, kth, axis=1)[:, kth:]
                    trun = np.maximum(trun, tightened.min(axis=1))
                    upper = approx_cols + radius
                    live = (upper >= trun[:, None]).any(axis=0)
                    survivor_rows = [rows[live]]
                    survivor_approx = [approx_cols[:, live]]
                    survivor_count = int(live.sum())

    rows = np.concatenate(survivor_rows) if survivor_rows else \
        np.empty(0, dtype=np.int64)
    if rows.size:
        approx_cols = np.concatenate(survivor_approx, axis=1)
        radius = _interval_radius(rows)
        lower = approx_cols - radius
        upper = approx_cols + radius
        if lower.shape[1] >= m:
            kth = lower.shape[1] - m
            final_t = np.maximum(
                trun, np.partition(lower, kth, axis=1)[:, kth:].min(axis=1))
        else:
            final_t = np.full(batch, -np.inf, dtype=np.float32)
        candidates = rows[(upper >= final_t[:, None]).any(axis=0)]
    else:
        candidates = rows

    if candidates.size:
        blocks = np.unique(candidates // block_rows)
    else:  # unreachable in practice; fall back to an exhaustive re-rank
        blocks = np.arange(lo // block_rows,
                           (hi + block_rows - 1) // block_rows, dtype=np.int64)

    starts = blocks * block_rows
    stops = np.minimum(starts + block_rows, hi)
    widths = stops - starts
    total = int(widths.sum())
    panel = np.empty((padded.shape[0], total), dtype=matrix.dtype)
    panel_ids = np.empty(total, dtype=np.int64)
    offset = 0
    for block_start, block_stop, width in zip(starts, stops, widths):
        block_start = int(block_start)
        block_stop = int(block_stop)
        # The exact same GEMM call, on the exact same absolute block, as
        # partition_scores() — this is what makes the re-ranked scores
        # bit-identical to the dense path.
        np.matmul(padded, matrix[block_start:block_stop].T,
                  out=panel[:, offset:offset + width])
        panel_ids[offset:offset + width] = np.arange(
            block_start, block_stop, dtype=np.int64)
        _mask_excluded(panel[:batch, offset:offset + width],
                       block_start, block_stop, exclude)
        offset += width

    ids = np.broadcast_to(panel_ids, (batch, total))
    return topk_best_first(ids, panel[:batch], kk)
