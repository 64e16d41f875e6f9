"""The ``ShardClient`` interface and its in-process reference implementation.

A :class:`ShardClient` answers batched top-K searches over a fixed item
matrix partitioned into contiguous shards.  The serving layer talks to this
interface only, so the in-process scorer (:class:`LocalShardClient`) and the
multi-process pool (:class:`repro.shard.pool.ShardPool`) are drop-in
replacements for one another — and the single-process exact scorer is
literally the 1-shard :class:`LocalShardClient`.

:func:`single_shard_search` is the one per-shard search routine; the local
client calls it in-process, the pool's workers call it across a pipe.  One
code path is what makes ``local`` and ``process`` shard backends bitwise
interchangeable.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..index.base import ItemIndex, build_index
from .merge import merge_topk
from .partition import DEFAULT_BLOCK_ROWS, partition_ranges
from .scoring import (ann_shard_topk, exact_shard_topk, searchable_rows,
                      split_exclude)


def single_shard_search(matrix: np.ndarray, lo: int, hi: int,
                        queries: np.ndarray, k: int,
                        exclude: Optional[Sequence[Sequence[int]]],
                        backend: str, block_rows: int,
                        index_params: Optional[Dict],
                        index_cache: Dict[str, ItemIndex],
                        quantized=None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Answer one shard's part of a search: the shared worker kernel.

    ``backend="exact"`` scores rows ``[lo, hi)`` of ``matrix`` with the
    blocked kernel; any other backend lazily builds a per-shard ANN index
    (cached per backend in ``index_cache``, covering
    :func:`~repro.shard.scoring.searchable_rows` of the range) and searches
    it.  Returns a best-first ``(ids, scores)`` candidate block ready for
    :func:`~repro.shard.merge.merge_topk`.

    ``quantized`` (a :class:`~repro.quant.codec.QuantizedMatrix` over the
    full matrix, or ``None``) switches the exact path to the int8 scan +
    fp32 block re-rank of :func:`repro.quant.scorer.quantized_topk` — the
    returned ids and scores stay bit-identical to the dense kernel, so the
    codec is invisible to the merge.  ANN backends ignore it (they score
    through their own compressed structures already).
    """
    if backend == "exact":
        if quantized is not None:
            from ..quant.scorer import quantized_topk

            return quantized_topk(queries, matrix, quantized, lo, hi, k,
                                  exclude, block_rows=block_rows)
        return exact_shard_topk(queries, matrix, lo, hi, k, exclude,
                                block_rows)
    if backend not in index_cache:
        first, last = searchable_rows(lo, hi)
        index = build_index(backend, **(index_params or {}))
        if last > first:
            index.build(np.asarray(matrix[first:last]),
                        ids=np.arange(first, last, dtype=np.int64))
        index_cache[backend] = index
    index = index_cache[backend]
    queries = np.asarray(queries)
    if len(index) == 0:
        return (np.empty((queries.shape[0], 0), dtype=np.int64),
                np.empty((queries.shape[0], 0), dtype=matrix.dtype))
    return ann_shard_topk(index, queries.astype(matrix.dtype, copy=False),
                          k, exclude)


class ShardClient:
    """Abstract batched top-K search over a sharded item matrix.

    ``search`` semantics (shared by every implementation):

    * ``backend="exact"`` — every row of the matrix is a candidate; excluded
      ids keep their slot but score ``-inf`` (masking).  The result is
      bit-identical (ids and scores) for every shard count of the same
      layout; see :mod:`repro.shard.scoring` for why.
    * ``backend="ivf"`` — candidates come from per-shard ANN indexes over
      rows ``1..num_rows-1`` (row 0, the padding item, is never indexed);
      excluded ids are dropped, and rows the over-fetch cannot fill carry
      ``-1`` / ``-inf`` padding for the caller to fall back on.
    """

    #: (lo, hi) row ranges, one per shard
    ranges: List[Tuple[int, int]]

    @property
    def num_shards(self) -> int:
        return len(self.ranges)

    @property
    def num_rows(self) -> int:
        raise NotImplementedError

    @property
    def dim(self) -> int:
        raise NotImplementedError

    def search(self, queries: np.ndarray, k: int, *,
               exclude: Optional[Sequence[Sequence[int]]] = None,
               backend: str = "exact",
               timeout: Optional[float] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        """``timeout`` (seconds) is the caller's remaining deadline budget;
        clients with a remote hop clamp their per-search timeout to it, an
        in-process scan cannot be interrupted and ignores it."""
        raise NotImplementedError

    def search_ex(self, queries: np.ndarray, k: int, *,
                  exclude: Optional[Sequence[Sequence[int]]] = None,
                  backend: str = "exact",
                  timeout: Optional[float] = None
                  ) -> Tuple[np.ndarray, np.ndarray, Dict[str, Any]]:
        """:meth:`search` plus a per-call info dict.  Empty here: only the
        resilience layer has a degraded mode or retries to report."""
        ids, scores = self.search(queries, k, exclude=exclude,
                                  backend=backend, timeout=timeout)
        return ids, scores, {}

    def close(self) -> None:  # pragma: no cover - trivial default
        pass

    def __enter__(self) -> "ShardClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class LocalShardClient(ShardClient):
    """In-process :class:`ShardClient`: the 1-shard case *is* the
    single-process scorer, and any N-shard instance reproduces its bits.

    Holds the matrix (an ndarray or a read-only memmap) and runs
    :func:`single_shard_search` — the same kernel the pool's workers run —
    shard after shard, merging with the exact-merge contract.  The parity
    tests lean on this: :class:`~repro.shard.pool.ShardPool` results must
    equal this client's results bitwise, shard count by shard count.
    """

    def __init__(self, matrix: np.ndarray, num_shards: int = 1,
                 block_rows: int = DEFAULT_BLOCK_ROWS,
                 index_params: Optional[Dict] = None,
                 codec: str = "fp32", quantized=None):
        matrix = matrix if matrix.ndim == 2 else np.atleast_2d(matrix)
        self._matrix = matrix
        self.block_rows = int(block_rows)
        self.ranges = partition_ranges(matrix.shape[0], num_shards,
                                       self.block_rows)
        self.index_params = dict(index_params or {})
        self._index_caches: List[Dict[str, ItemIndex]] = [
            {} for _ in self.ranges]
        if codec not in ("fp32", "int8"):
            raise ValueError(f"codec must be 'fp32' or 'int8', got {codec!r}")
        self.codec = codec
        if codec == "int8" and quantized is None:
            from ..quant.codec import quantize_matrix

            quantized = quantize_matrix(np.asarray(matrix))
        self._quantized = quantized if codec == "int8" else None

    @classmethod
    def from_layout(cls, layout, num_shards: int = 1,
                    index_params: Optional[Dict] = None,
                    codec: str = "fp32") -> "LocalShardClient":
        quantized = None
        if codec == "int8":
            layout.ensure_int8_sidecar()
            quantized = layout.quantized()
        return cls(layout.matrix(), num_shards=num_shards,
                   block_rows=layout.block_rows, index_params=index_params,
                   codec=codec, quantized=quantized)

    @property
    def num_rows(self) -> int:
        return self._matrix.shape[0]

    @property
    def dim(self) -> int:
        return self._matrix.shape[1]

    def search(self, queries: np.ndarray, k: int, *,
               exclude: Optional[Sequence[Sequence[int]]] = None,
               backend: str = "exact",
               timeout: Optional[float] = None
               ) -> Tuple[np.ndarray, np.ndarray]:
        queries = np.asarray(queries)
        exclude = split_exclude(exclude, queries.shape[0])
        parts = [
            single_shard_search(self._matrix, lo, hi, queries, k, exclude,
                                backend, self.block_rows,
                                self.index_params, self._index_caches[shard],
                                self._quantized)
            for shard, (lo, hi) in enumerate(self.ranges)
        ]
        return merge_topk(parts, k)

    def stats(self) -> Dict[str, object]:
        """Health counters, shape-compatible with :meth:`ShardPool.stats`
        (an in-process client has no workers to restart or time out)."""
        return {
            "num_shards": self.num_shards,
            "num_rows": self.num_rows,
            "ranges": list(self.ranges),
            "block_rows": self.block_rows,
            "transport": "local",
            "codec": self.codec,
            "restarts": 0,
            "timeouts": 0,
        }
