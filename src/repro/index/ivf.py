"""IVF-Flat: inverted-file index with exact scoring inside the probed lists.

A coarse k-means quantizer partitions the catalogue into ``n_lists`` inverted
lists.  A query scores the ``n_lists`` centroids (one tiny matmul), probes
the ``nprobe`` best lists, and scores the vectors in those lists *exactly* —
so the only approximation is the pruning: items living in un-probed lists
are invisible to that query.  On whitened (isotropic) embedding spaces the
lists are well balanced and directions dominate the inner product, which is
what keeps recall high at small scan fractions (Jégou et al., 2011).

``search`` is batched cluster-major: instead of walking lists per query, the
(query, probed-list) pairs are grouped by list, every list's vectors are
scored against all the queries probing it in one matmul, and the scores are
scattered into a padded per-query candidate matrix for a single vectorised
top-K extraction.  This keeps the work proportional to the scanned fraction
while staying BLAS-shaped, which is where the latency win over the dense
full-catalogue matmul comes from.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional

import numpy as np

from .base import ItemIndex, register_index, topk_best_first
from .kmeans import assign_clusters, minibatch_kmeans


def default_n_lists(num_vectors: int) -> int:
    """The usual ``sqrt(n)`` rule of thumb for the coarse quantizer size."""
    return max(1, min(num_vectors, int(round(math.sqrt(num_vectors)))))


class _CoarseQuantizer:
    """Coarse-quantizer plumbing of :class:`IVFFlatIndex`."""

    def __init__(self, n_lists: Optional[int], nprobe: Optional[int],
                 seed: int, kmeans_iters: int, kmeans_batch: int):
        self.n_lists = n_lists
        self.nprobe = nprobe
        self.seed = int(seed)
        self.kmeans_iters = int(kmeans_iters)
        self.kmeans_batch = int(kmeans_batch)
        self._centroids: Optional[np.ndarray] = None

    @property
    def centroids(self) -> Optional[np.ndarray]:
        return self._centroids

    def train(self, vectors: np.ndarray) -> np.ndarray:
        """Fit the quantizer; returns the list assignment of every vector."""
        n_lists = self.n_lists or default_n_lists(vectors.shape[0])
        result = minibatch_kmeans(
            vectors, n_lists, seed=self.seed, max_iter=self.kmeans_iters,
            batch_size=self.kmeans_batch,
        )
        self._centroids = result.centroids.astype(vectors.dtype, copy=False)
        return result.assignments

    @property
    def num_lists(self) -> int:
        return 0 if self._centroids is None else self._centroids.shape[0]

    def resolve_nprobe(self, nprobe: Optional[int]) -> int:
        """Clamp a requested probe count to ``[1, num_lists]``.

        The default probes ~1/8 of the lists — a scan fraction comfortably
        under the 25% budget the recall benchmark enforces.
        """
        if nprobe is None:
            nprobe = self.nprobe
        if nprobe is None:
            nprobe = max(1, int(math.ceil(self.num_lists / 8)))
        return max(1, min(int(nprobe), self.num_lists))

    def assign(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid list for each vector (always by L2, as in build)."""
        labels, _ = assign_clusters(np.asarray(vectors, dtype=np.float64),
                                    np.asarray(self._centroids, dtype=np.float64))
        return labels

    def probe(self, affinity: np.ndarray, nprobe: int) -> np.ndarray:
        """``(batch, nprobe)`` best lists per query given centroid affinities."""
        if nprobe >= affinity.shape[1]:
            return np.broadcast_to(np.arange(affinity.shape[1]),
                                   (affinity.shape[0], affinity.shape[1]))
        return np.argpartition(affinity, -nprobe, axis=1)[:, -nprobe:]


def _group_by_list(probe: np.ndarray):
    """Iterate ``(list_id, query_rows, probe_slots)`` grouped by probed list.

    ``probe`` is ``(batch, nprobe)`` list ids; ``probe_slots`` reports which
    of a query's ``nprobe`` reserved slot blocks each pair occupies.
    """
    batch, nprobe = probe.shape
    flat_lists = probe.ravel()
    flat_queries = np.repeat(np.arange(batch), nprobe)
    flat_slots = np.tile(np.arange(nprobe), batch)
    order = np.argsort(flat_lists, kind="stable")
    flat_lists = flat_lists[order]
    flat_queries = flat_queries[order]
    flat_slots = flat_slots[order]
    starts = np.flatnonzero(np.r_[True, flat_lists[1:] != flat_lists[:-1]])
    ends = np.r_[starts[1:], flat_lists.size]
    for start, end in zip(starts, ends):
        yield (int(flat_lists[start]), flat_queries[start:end],
               flat_slots[start:end])


@register_index
class IVFFlatIndex(ItemIndex):
    """Inverted-file index with per-list exact (flat) scoring.

    Parameters
    ----------
    n_lists:
        Number of inverted lists (coarse clusters); default ``sqrt(n)``.
    nprobe:
        Default number of lists scanned per query (default ``n_lists / 8``,
        rounded up); every :meth:`search` call can override it.
    metric:
        ``"ip"`` (inner product, the serving metric) or ``"l2"``.
    seed / kmeans_iters / kmeans_batch:
        Coarse-quantizer training knobs (deterministic under ``seed``).
    """

    kind = "ivf"

    def __init__(self, n_lists: Optional[int] = None, nprobe: Optional[int] = None,
                 metric: str = "ip", seed: int = 0, kmeans_iters: int = 25,
                 kmeans_batch: int = 1024):
        super().__init__(metric=metric)
        self._coarse = _CoarseQuantizer(n_lists, nprobe, seed, kmeans_iters,
                                        kmeans_batch)
        self._list_ids: List[np.ndarray] = []
        self._list_vectors: List[np.ndarray] = []
        self._list_sizes: Optional[np.ndarray] = None
        self._num_vectors = 0
        self._last_scan_counts: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def is_built(self) -> bool:
        return self._coarse.centroids is not None

    def __len__(self) -> int:
        return self._num_vectors

    @property
    def dim(self) -> int:
        self._check_built()
        return self._coarse.centroids.shape[1]

    @property
    def num_lists(self) -> int:
        return self._coarse.num_lists

    @property
    def nprobe(self) -> int:
        """The default probe count used when ``search`` is not told otherwise."""
        self._check_built()
        return self._coarse.resolve_nprobe(None)

    @property
    def last_scan_counts(self) -> Optional[np.ndarray]:
        return self._last_scan_counts

    @property
    def list_sizes(self) -> np.ndarray:
        self._check_built()
        return self._list_sizes.copy()

    # ------------------------------------------------------------------ #
    # Build / add
    # ------------------------------------------------------------------ #
    def build(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> "IVFFlatIndex":
        vectors = self._validate_vectors(vectors)
        ids = self._resolve_ids(ids, vectors.shape[0])
        labels = self._coarse.train(vectors)
        self._list_ids = []
        self._list_vectors = []
        for list_id in range(self._coarse.num_lists):
            members = np.flatnonzero(labels == list_id)
            self._list_ids.append(ids[members])
            # Contiguous copies: every search matmuls straight off these blocks.
            self._list_vectors.append(np.ascontiguousarray(vectors[members]))
        self._list_sizes = np.array([len(block) for block in self._list_ids],
                                    dtype=np.int64)
        self._num_vectors = int(self._list_sizes.sum())
        return self

    def add(self, vectors: np.ndarray, ids: Optional[np.ndarray] = None) -> np.ndarray:
        self._check_built()
        vectors = self._validate_vectors(vectors)
        if vectors.shape[1] != self.dim:
            raise ValueError(f"new vectors must have dimension {self.dim}")
        start = 0
        if self._num_vectors:
            start = max(int(block.max()) for block in self._list_ids
                        if block.size) + 1
        ids = self._resolve_ids(ids, vectors.shape[0], start=start)
        labels = self._coarse.assign(vectors)
        dtype = self._list_vectors[0].dtype if self._list_vectors else vectors.dtype
        for list_id in np.unique(labels):
            members = np.flatnonzero(labels == list_id)
            self._list_ids[list_id] = np.concatenate(
                [self._list_ids[list_id], ids[members]]
            )
            self._list_vectors[list_id] = np.concatenate(
                [self._list_vectors[list_id],
                 vectors[members].astype(dtype, copy=False)]
            )
        self._list_sizes = np.array([len(block) for block in self._list_ids],
                                    dtype=np.int64)
        self._num_vectors = int(self._list_sizes.sum())
        return ids

    # ------------------------------------------------------------------ #
    # Search
    # ------------------------------------------------------------------ #
    def search(self, queries: np.ndarray, k: int,
               nprobe: Optional[int] = None, **kwargs):
        self._check_built()
        queries = self._validate_queries(queries)
        queries = queries.astype(self._coarse.centroids.dtype, copy=False)
        nprobe = self._coarse.resolve_nprobe(nprobe)
        k = max(1, min(int(k), max(self._num_vectors, 1)))

        centroid_affinity = self._affinity(queries, self._coarse.centroids)
        probe = self._coarse.probe(centroid_affinity, nprobe)

        # Every (query, probed list) pair gets k reserved slots: each list's
        # scores are pruned to its per-query top k before scattering, so the
        # final extraction runs over nprobe*k candidates instead of the full
        # scanned width (which list-size skew would otherwise inflate).
        buffer_scores = np.full((queries.shape[0], nprobe * k), -np.inf,
                                dtype=np.result_type(queries.dtype, np.float32))
        buffer_ids = np.full((queries.shape[0], nprobe * k), -1, dtype=np.int64)
        for list_id, query_rows, probe_slots in _group_by_list(probe):
            block = self._list_vectors[list_id]
            if block.shape[0] == 0:
                continue
            scores = self._affinity(queries[query_rows], block)
            list_ids = self._list_ids[list_id]
            if block.shape[0] > k:
                keep = np.argpartition(scores, -k, axis=1)[:, -k:]
                scores = np.take_along_axis(scores, keep, axis=1)
                ids = list_ids[keep]
            else:
                ids = np.broadcast_to(list_ids, scores.shape)
            columns = probe_slots[:, None] * k + np.arange(scores.shape[1])
            buffer_scores[query_rows[:, None], columns] = scores
            buffer_ids[query_rows[:, None], columns] = ids

        self._last_scan_counts = self._list_sizes[probe].sum(axis=1)
        return topk_best_first(buffer_ids, buffer_scores, k)

    # ------------------------------------------------------------------ #
    # Persistence
    # ------------------------------------------------------------------ #
    def _state_arrays(self) -> Dict[str, np.ndarray]:
        boundaries = np.zeros(self.num_lists + 1, dtype=np.int64)
        np.cumsum(self._list_sizes, out=boundaries[1:])
        return {
            "centroids": self._coarse.centroids,
            "boundaries": boundaries,
            "ids": np.concatenate(self._list_ids) if self._num_vectors
            else np.zeros(0, dtype=np.int64),
            "vectors": np.concatenate(self._list_vectors) if self._num_vectors
            else np.zeros((0, self.dim)),
        }

    def _metadata(self) -> Dict[str, Any]:
        return {
            "n_lists": self.num_lists,
            "nprobe": self._coarse.resolve_nprobe(None),
            "seed": self._coarse.seed,
            "num_vectors": self._num_vectors,
        }

    def _restore(self, arrays: Dict[str, np.ndarray], metadata: Dict[str, Any]) -> None:
        self._coarse.n_lists = int(metadata["n_lists"])
        self._coarse.nprobe = int(metadata["nprobe"])
        self._coarse.seed = int(metadata.get("seed", 0))
        self._coarse._centroids = arrays["centroids"]
        boundaries = arrays["boundaries"].astype(np.int64)
        ids, vectors = arrays["ids"], arrays["vectors"]
        self._list_ids = []
        self._list_vectors = []
        for start, end in zip(boundaries[:-1], boundaries[1:]):
            self._list_ids.append(ids[start:end].astype(np.int64))
            self._list_vectors.append(np.ascontiguousarray(vectors[start:end]))
        self._list_sizes = np.diff(boundaries)
        self._num_vectors = int(self._list_sizes.sum())
