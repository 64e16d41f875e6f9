"""The blocked shard scoring kernel and per-shard top-K searches.

Scores here are the serving layer's plain inner products ``q · v`` (Eqn. 1)
computed in fixed ``block_rows``-aligned GEMMs.  The block grid is absolute
(multiples of ``block_rows`` from row 0), shard boundaries are aligned to it
(:func:`repro.shard.partition.partition_ranges`), and the query batch is
padded by :func:`repro.nn.functional.pad_scoring_rows` exactly like the
dense serving path — so every sharding of a given layout executes the
identical sequence of BLAS calls per block and the resulting scores are
bit-identical for *every* shard count, on any BLAS, by construction rather
than by vendor luck.  (Narrow row-slices of a catalogue GEMM really do
change low-order bits on OpenBLAS; the aligned grid is what removes that
freedom.)

Both the in-process :class:`~repro.shard.client.LocalShardClient` and the
worker processes of :class:`~repro.shard.pool.ShardPool` call these
functions, which is what makes "local" and "process" shard backends
bitwise interchangeable.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..index.base import ItemIndex, topk_best_first
from ..nn.functional import pad_scoring_rows
from .partition import DEFAULT_BLOCK_ROWS


def partition_scores(queries: np.ndarray, matrix: np.ndarray,
                     lo: int, hi: int,
                     block_rows: int = DEFAULT_BLOCK_ROWS) -> np.ndarray:
    """``(batch, hi - lo)`` inner-product scores against rows ``[lo, hi)``.

    ``matrix`` is the *full* item matrix (an ndarray or a read-only memmap);
    the partition is scored one absolute-aligned block at a time.  ``lo``
    must sit on the block grid (``hi`` may be the ragged final row count).
    """
    if not 0 <= lo <= hi <= matrix.shape[0]:
        raise ValueError(f"invalid partition [{lo}, {hi}) for "
                         f"{matrix.shape[0]} rows")
    if lo % block_rows != 0:
        raise ValueError(f"partition start {lo} is not aligned to "
                         f"block_rows={block_rows}")
    queries = np.asarray(queries).astype(matrix.dtype, copy=False)
    padded = pad_scoring_rows(queries)
    real = queries.shape[0]
    if real == 0 or lo == hi:
        return np.empty((real, hi - lo), dtype=matrix.dtype)
    scores = np.empty((padded.shape[0], hi - lo), dtype=matrix.dtype)
    for start in range(lo, hi, block_rows):
        stop = min(start + block_rows, hi)
        np.matmul(padded, matrix[start:stop].T,
                  out=scores[:, start - lo:stop - lo])
    return scores[:real]


def _mask_excluded(scores: np.ndarray, lo: int, hi: int,
                   exclude: Optional[Sequence[Sequence[int]]]) -> None:
    """Set the scores of per-row excluded ids falling in ``[lo, hi)`` to -inf."""
    if exclude is None:
        return
    if len(exclude) != scores.shape[0]:
        raise ValueError(f"exclude has {len(exclude)} rows for a batch of "
                         f"{scores.shape[0]}")
    for row, excluded in enumerate(exclude):
        if excluded is None or len(excluded) == 0:
            continue
        ids = np.asarray(excluded, dtype=np.int64)
        local = ids[(ids >= lo) & (ids < hi)] - lo
        if local.size:
            scores[row, local] = -np.inf


def exact_shard_topk(queries: np.ndarray, matrix: np.ndarray,
                     lo: int, hi: int, k: int,
                     exclude: Optional[Sequence[Sequence[int]]] = None,
                     block_rows: int = DEFAULT_BLOCK_ROWS
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """Exact per-shard top-K over rows ``[lo, hi)`` of the item matrix.

    Excluded ids keep their slots but score ``-inf`` (masking, not
    filtering) — the same semantics as the dense serving path, so the merged
    result is bit-identical to single-process scoring even when ``k``
    exceeds the number of unmasked candidates.  Returns
    ``(batch, min(k, hi - lo))`` best-first arrays.
    """
    batch = np.asarray(queries).shape[0]
    if lo == hi or k == 0:
        return (np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=matrix.dtype))
    scores = partition_scores(queries, matrix, lo, hi, block_rows)
    _mask_excluded(scores, lo, hi, exclude)
    ids = np.broadcast_to(np.arange(lo, hi, dtype=np.int64), scores.shape)
    return topk_best_first(ids, scores, k)


def ann_shard_topk(index: ItemIndex, queries: np.ndarray, k: int,
                   exclude: Optional[Sequence[Sequence[int]]] = None
                   ) -> Tuple[np.ndarray, np.ndarray]:
    """Approximate per-shard top-K through a pre-built per-shard ANN index.

    Excluded ids are *filtered* (dropped from the candidates, matching the
    single-process ANN path); rows the over-fetch cannot fill keep ``-1`` /
    ``-inf`` padding so the caller can fall back to the exact path for them.
    """
    queries = np.asarray(queries)
    batch = queries.shape[0]
    ids = np.full((batch, k), -1, dtype=np.int64)
    scores = np.full((batch, k), -np.inf,
                     dtype=queries.dtype if queries.dtype.kind == "f"
                     else np.float32)
    if len(index) == 0 or batch == 0 or k == 0:
        return ids, scores
    longest = max((len(row) for row in exclude), default=0) if exclude else 0
    fetch = min(len(index), k + longest)
    candidate_ids, candidate_scores = index.search(queries, fetch)
    scores = scores.astype(candidate_scores.dtype, copy=False)
    for row in range(batch):
        row_ids = candidate_ids[row]
        keep = row_ids >= 0
        if exclude is not None and len(exclude[row]):
            keep &= ~np.isin(row_ids, np.asarray(exclude[row], dtype=np.int64))
        chosen = np.flatnonzero(keep)[:k]
        ids[row, : chosen.size] = row_ids[chosen]
        scores[row, : chosen.size] = candidate_scores[row, chosen]
        scores[row, chosen.size:] = -np.inf
    return ids, scores


def searchable_rows(lo: int, hi: int) -> Tuple[int, int]:
    """The ANN-indexable sub-range of a shard: row 0 (the padding item) is
    never indexed, matching :meth:`repro.serving.Recommender.item_index`."""
    return max(lo, 1), hi


def split_exclude(exclude: Optional[Sequence[Sequence[int]]],
                  batch: int) -> List[List[int]]:
    """Normalise an exclude spec to one list of ints per batch row."""
    if exclude is None:
        return [[] for _ in range(batch)]
    if len(exclude) != batch:
        raise ValueError(f"exclude has {len(exclude)} rows for a batch of "
                         f"{batch}")
    return [[int(item) for item in (row if row is not None else [])]
            for row in exclude]
