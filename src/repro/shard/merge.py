"""Exact merge of per-shard top-K candidate blocks.

The merge contract is the distributed-serving invariant everything else
rests on: for any partition of a candidate set into shards,

    ``merge_topk([topk(shard_i, k) for i in shards], k)
      == topk(concat(shards), k)``

bit-for-bit, ids *and* scores — including ``(-score, smaller id)``
tie-breaking and ``-1`` / ``-inf`` padding — because the global top K under
a total order is always contained in the union of the per-shard top Ks.
Both sides reuse :func:`repro.index.base.topk_best_first`, so there is one
ordering convention in the codebase, not two.
"""

from __future__ import annotations

from typing import Iterable, Tuple

import numpy as np

from ..index.base import topk_best_first


def merge_topk(parts: Iterable[Tuple[np.ndarray, np.ndarray]],
               k: int) -> Tuple[np.ndarray, np.ndarray]:
    """Merge per-shard ``(ids, scores)`` candidate blocks into one top-K.

    Every part is a ``(batch, width_i)`` pair, best-first per row, with
    ``-1`` ids / ``-inf`` scores in unused slots (widths may differ per
    shard; zero-width parts from empty shards are fine).  Returns
    ``(batch, min(k, sum(width_i)))`` arrays obeying the
    :func:`~repro.index.base.topk_best_first` contract.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("merge_topk needs at least one candidate block")
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    batch_sizes = {ids.shape[0] for ids, _ in parts}
    if len(batch_sizes) != 1:
        raise ValueError(f"candidate blocks disagree on batch size: "
                         f"{sorted(batch_sizes)}")
    for ids, scores in parts:
        if ids.shape != scores.shape:
            raise ValueError(f"ids/scores shape mismatch: "
                             f"{ids.shape} vs {scores.shape}")
    ids = np.concatenate([np.asarray(ids, dtype=np.int64) for ids, _ in parts],
                         axis=1)
    scores = np.concatenate([scores for _, scores in parts], axis=1)
    if ids.shape[1] == 0 or k == 0:
        batch = ids.shape[0]
        return (np.empty((batch, 0), dtype=np.int64),
                np.empty((batch, 0), dtype=scores.dtype))
    return topk_best_first(ids, scores, k)
