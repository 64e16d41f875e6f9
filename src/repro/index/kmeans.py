"""Minibatch Lloyd's k-means with k-means++ seeding and empty-cluster re-seeding.

This is the coarse quantizer used by the IVF index.  It follows the
web-scale minibatch scheme of Sculley ("Web-scale k-means clustering", WWW
2010): each iteration samples a batch,
assigns it to the nearest centroids, and moves every touched centroid towards
its batch mean with a per-centre learning rate that decays as the centre
accumulates points.

Everything is deterministic under a fixed ``seed``: the k-means++ draws, the
batch sampling, and the empty-cluster re-seeding (which snaps an empty
centroid to the point currently farthest from its assigned centroid, ties
broken towards the smaller point index).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class KMeansResult:
    """Outcome of one :func:`minibatch_kmeans` run.

    Attributes
    ----------
    centroids:
        ``(k, d)`` cluster centres (``k`` may be smaller than requested when
        the data has fewer points than clusters).
    assignments:
        ``(n,)`` index of the nearest centroid for every input point, from a
        final full-data assignment pass.
    inertia:
        Sum of squared distances between each point and its centroid.
    n_iter:
        Number of minibatch update iterations performed.
    n_reseeds:
        Total number of empty-centroid re-seeds applied after the minibatch
        phase.
    """

    centroids: np.ndarray
    assignments: np.ndarray
    inertia: float
    n_iter: int
    n_reseeds: int

    @property
    def num_clusters(self) -> int:
        return self.centroids.shape[0]


def pairwise_sq_distances(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """``(n, k)`` squared euclidean distances via the expanded-norm identity."""
    point_norms = np.einsum("nd,nd->n", points, points)[:, None]
    centroid_norms = np.einsum("kd,kd->k", centroids, centroids)[None, :]
    distances = point_norms + centroid_norms - 2.0 * (points @ centroids.T)
    # The expansion can go slightly negative through rounding.
    return np.maximum(distances, 0.0)


def assign_clusters(points: np.ndarray, centroids: np.ndarray):
    """Nearest-centroid labels and the squared distance to that centroid."""
    distances = pairwise_sq_distances(points, centroids)
    labels = np.argmin(distances, axis=1)
    return labels, distances[np.arange(points.shape[0]), labels]


def kmeans_plus_plus(points: np.ndarray, k: int,
                     rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding (Arthur & Vassilvitskii, 2007).

    Each subsequent seed is drawn with probability proportional to the
    squared distance to the nearest already-chosen seed.  When every
    remaining distance is zero (duplicate points), the draw degrades to
    uniform instead of dividing by zero.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]), dtype=np.float64)
    centroids[0] = points[int(rng.integers(n))]
    closest = np.full(n, np.inf)
    for i in range(1, k):
        newest = pairwise_sq_distances(points, centroids[i - 1:i])[:, 0]
        np.minimum(closest, newest, out=closest)
        total = float(closest.sum())
        if total > 0.0:
            chosen = int(rng.choice(n, p=closest / total))
        else:
            chosen = int(rng.integers(n))
        centroids[i] = points[chosen]
    return centroids


def _reseed_empty(points: np.ndarray, centroids: np.ndarray,
                  max_rounds: int = 3):
    """Snap empty centroids onto the points farthest from their centroids.

    Deterministic: the replacement points are the globally farthest ones
    (stable sort, so ties resolve towards the smaller point index).  With
    heavily duplicated data a cluster can stay empty no matter where its
    centroid sits; after ``max_rounds`` the remaining empties are accepted.
    """
    n_reseeds = 0
    for _ in range(max_rounds):
        labels, sq_distances = assign_clusters(points, centroids)
        occupancy = np.bincount(labels, minlength=centroids.shape[0])
        empty = np.flatnonzero(occupancy == 0)
        if empty.size == 0:
            break
        farthest = np.argsort(-sq_distances, kind="stable")[: empty.size]
        centroids[empty] = points[farthest]
        n_reseeds += int(empty.size)
    else:
        labels, sq_distances = assign_clusters(points, centroids)
    return labels, sq_distances, n_reseeds


def minibatch_kmeans(points: np.ndarray, k: int, *, batch_size: int = 1024,
                     max_iter: int = 25, seed: int = 0,
                     reseed_empty: bool = True) -> KMeansResult:
    """Cluster ``points`` into at most ``k`` groups.

    ``k`` is clamped to the number of points: asking for more clusters than
    points would leave the surplus centroids permanently empty, so the
    surplus is dropped instead (``result.num_clusters`` reports the
    effective count).
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise ValueError("points must be a 2-D (n, d) array")
    n = points.shape[0]
    if n == 0:
        raise ValueError("cannot cluster an empty point set")
    if k < 1:
        raise ValueError("k must be >= 1")
    k = min(int(k), n)

    rng = np.random.default_rng(seed)
    centroids = kmeans_plus_plus(points, k, rng)
    accumulated = np.zeros(k, dtype=np.float64)
    batch_size = min(int(batch_size), n)

    n_iter = 0
    for _ in range(max_iter):
        batch = points[rng.integers(0, n, size=batch_size)]
        labels, _ = assign_clusters(batch, centroids)
        batch_counts = np.bincount(labels, minlength=k).astype(np.float64)
        sums = np.zeros_like(centroids)
        np.add.at(sums, labels, batch)
        touched = batch_counts > 0
        accumulated[touched] += batch_counts[touched]
        rate = batch_counts[touched] / accumulated[touched]
        batch_means = sums[touched] / batch_counts[touched, None]
        centroids[touched] += rate[:, None] * (batch_means - centroids[touched])
        n_iter += 1

    if reseed_empty:
        labels, sq_distances, n_reseeds = _reseed_empty(points, centroids)
    else:
        labels, sq_distances = assign_clusters(points, centroids)
        n_reseeds = 0
    return KMeansResult(
        centroids=centroids,
        assignments=labels,
        inertia=float(sq_distances.sum()),
        n_iter=n_iter,
        n_reseeds=n_reseeds,
    )
