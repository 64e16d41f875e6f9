"""Approximate nearest-neighbour retrieval over item embeddings.

The serving layer's dense path scores every request against the *entire*
catalogue — exact, but O(catalogue) per query.  This package provides the
classic inverted-file index (Jégou et al., 2011) behind one
:class:`ItemIndex` API, so retrieval cost scales with the *scanned* fraction
instead:

* :mod:`repro.index.kmeans` — minibatch Lloyd's k-means (k-means++ seeding,
  empty-cluster re-seeding), the quantizer everything else trains with;
* :class:`FlatIndex`   — exact brute force, the reference implementation;
* :class:`IVFFlatIndex` — inverted lists + per-list exact scoring
  (``nprobe`` controls the recall/latency trade-off).

The paper's whitened embedding spaces (Sec. IV-E) are isotropic and
well-conditioned — the geometry in which k-means partitions stay balanced —
which is what lets the IVF index retain high recall at small scan fractions.
Indexes persist to single ``.npz`` files (same conventions as
``repro.models.checkpoint``) and are constructible by name
through :func:`build_index`.
"""

from .base import (
    FlatIndex,
    ItemIndex,
    available_indexes,
    build_index,
    register_index,
    topk_best_first,
)
from .ivf import IVFFlatIndex, default_n_lists
from .kmeans import (
    KMeansResult,
    assign_clusters,
    kmeans_plus_plus,
    minibatch_kmeans,
    pairwise_sq_distances,
)

__all__ = [
    "FlatIndex",
    "IVFFlatIndex",
    "ItemIndex",
    "KMeansResult",
    "assign_clusters",
    "available_indexes",
    "build_index",
    "default_n_lists",
    "kmeans_plus_plus",
    "minibatch_kmeans",
    "pairwise_sq_distances",
    "register_index",
    "topk_best_first",
]
