"""Batched recommendation serving on top of trained models.

This package turns a trained :class:`repro.models.base.NextItemRecommender`
into a cache-backed top-K service:

* :class:`EmbeddingStore` — fits each whitening specification at most once,
  or adopts the model's fit, and memoises the resulting whitened item tables
  (Sec. IV-E: whitening is a pre-computable pre-processing step);
* :class:`Recommender`   — vectorised ``topk(user_sequences, k)``: one
  matmul scores a whole batch against the full catalogue, ``argpartition``
  extracts the top K, seen items are masked, and histories the sequence
  encoder cannot use fall back to whitened-text content scoring.  A
  ``backend`` knob swaps the dense scan for ANN retrieval through
  :mod:`repro.index` (``"ivf"``) with the masking preserved;
* :mod:`repro.serving.throughput` — sequences/second measurement used by the
  ``repro serve`` CLI and the serving micro-benchmark.
"""

from .config import (CATALOGUE_CODECS, SERVING_BACKENDS, SHARD_BACKENDS,
                     STRUCTURAL_FIELDS, ServingConfig)
from .generations import GenerationClock, GenerationalCache
from .recommender import Recommender, TopKResult, full_sort_topk
from .store import EmbeddingStore
from .throughput import ThroughputReport, measure_throughput

__all__ = [
    "CATALOGUE_CODECS",
    "EmbeddingStore",
    "GenerationClock",
    "GenerationalCache",
    "Recommender",
    "SERVING_BACKENDS",
    "SHARD_BACKENDS",
    "STRUCTURAL_FIELDS",
    "ServingConfig",
    "ThroughputReport",
    "TopKResult",
    "full_sort_topk",
    "measure_throughput",
]
