"""Benchmark: ANN retrieval — recall and latency of repro.index vs the dense scan.

Like the serving-throughput benchmark this guards an engineering layer rather
than regenerating a paper artefact: the IVF index must retrieve almost
exactly what the exact full-catalogue inner-product scan retrieves while
*scanning only a fraction of the catalogue*.

The substrate mirrors the geometry the serving layer actually indexes: item
embeddings with semantic cluster structure (the synthetic text encoder's
manifold property), mixed anisotropically and then ZCA-whitened (Sec. IV-E —
the transform is pre-computable, so the indexed space is frozen), with user
queries drawn *in distribution* — a trained user representation scores high
against the items it is about to be matched with, so queries live near the
item manifold, exactly like ``Recommender.topk``'s encoded histories.

Assertions:

* IVF-Flat recall@10 >= 0.9 against the exact top-10 while its mean scan
  fraction stays below 25% of the catalogue;
* the IVF-Flat search is faster than the dense full-catalogue scan at
  catalogue size >= 10k.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once

from repro.index import FlatIndex, IVFFlatIndex
from repro.whitening import ZCAWhitening

K = 10


def _whitened_catalogue(num_items: int, dim: int, num_categories: int,
                        seed: int):
    """Clustered -> anisotropic -> ZCA-whitened item embeddings (float32)."""
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_categories, dim))
    categories = rng.integers(0, num_categories, num_items)
    raw = centers[categories] + 0.45 * rng.standard_normal((num_items, dim))
    # Anisotropic mixing + common bias, as the frozen text encoder produces.
    raw = raw * np.linspace(2.5, 0.3, dim) + 3.0 * rng.standard_normal(dim)
    whitener = ZCAWhitening()
    whitener.fit(raw)
    return whitener.transform(raw).astype(np.float32), categories


def _in_distribution_queries(table: np.ndarray, categories: np.ndarray,
                             num_queries: int, seed: int) -> np.ndarray:
    """User-representation surrogates: same-category item mixtures + noise."""
    rng = np.random.default_rng(seed)
    dim = table.shape[1]
    queries = np.empty((num_queries, dim), dtype=np.float32)
    num_categories = int(categories.max()) + 1
    for row in range(num_queries):
        members = np.flatnonzero(categories == rng.integers(0, num_categories))
        queries[row] = (table[rng.choice(members, size=3)].mean(axis=0)
                        + 0.3 * rng.standard_normal(dim))
    return queries


def _recall(approx_ids: np.ndarray, exact_ids: np.ndarray) -> float:
    return float(np.mean([
        len(set(row) & set(reference)) / exact_ids.shape[1]
        for row, reference in zip(approx_ids.tolist(), exact_ids.tolist())
    ]))


def _best_of(func, repeats: int = 5) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def run_index_recall(scale: str = "bench") -> dict:
    num_items = 24_000 if scale == "full" else 12_000
    num_queries = 384 if scale == "full" else 256

    table, categories = _whitened_catalogue(num_items, dim=32,
                                            num_categories=60, seed=0)
    queries = _in_distribution_queries(table, categories, num_queries, seed=1)
    ids = np.arange(1, num_items + 1, dtype=np.int64)

    exact = FlatIndex().build(table, ids=ids)
    exact_ids, _ = exact.search(queries, K)

    ivf = IVFFlatIndex(n_lists=64, nprobe=5, seed=0).build(table, ids=ids)
    ivf_ids, _ = ivf.search(queries, K)
    ivf_recall = _recall(ivf_ids, exact_ids)
    ivf_scan = float(ivf.last_scan_counts.mean()) / num_items

    dense_seconds = _best_of(lambda: exact.search(queries, K))
    ivf_seconds = _best_of(lambda: ivf.search(queries, K))

    return {
        "num_items": num_items,
        "num_queries": num_queries,
        "ivf_recall": ivf_recall,
        "ivf_scan_fraction": ivf_scan,
        "dense_ms": dense_seconds * 1e3,
        "ivf_ms": ivf_seconds * 1e3,
        "ivf_speedup": dense_seconds / ivf_seconds,
    }


def test_index_recall(benchmark, scale):
    result = run_once(benchmark, run_index_recall, scale=scale)
    print(
        f"\nANN retrieval ({result['num_items']} items, "
        f"{result['num_queries']} queries): "
        f"ivf recall@{K}={result['ivf_recall']:.3f} "
        f"(scan {result['ivf_scan_fraction']:.1%}, "
        f"{result['ivf_ms']:.1f}ms vs dense {result['dense_ms']:.1f}ms, "
        f"{result['ivf_speedup']:.1f}x)"
    )
    assert result["num_items"] >= 10_000
    assert result["ivf_recall"] >= 0.9, (
        f"IVF recall@{K} {result['ivf_recall']:.3f} < 0.9 vs exact"
    )
    assert result["ivf_scan_fraction"] < 0.25
    assert result["ivf_speedup"] > 1.0, (
        f"IVF search ({result['ivf_ms']:.1f}ms) not faster than the dense "
        f"scan ({result['dense_ms']:.1f}ms) at {result['num_items']} items"
    )
