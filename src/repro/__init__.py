"""Reproduction of "Are ID Embeddings Necessary? Whitening Pre-trained Text
Embeddings for Effective Sequential Recommendation" (ICDE 2024).

Public surface (``import repro`` loads none of these; each is imported on
first use, so a process pays only for the subpackages it touches):

* :mod:`repro.nn`         — numpy autograd + Transformer substrate (PyTorch stand-in)
* :mod:`repro.text`       — synthetic item texts + anisotropic "pre-trained" encoder
* :mod:`repro.data`       — synthetic datasets, splits, batching (RecBole stand-in)
* :mod:`repro.whitening`  — ZCA/PCA/CD/BN/group/flow whitening + geometry metrics
* :mod:`repro.index`      — IVF / product-quantization ANN retrieval over item embeddings
* :mod:`repro.models`     — WhitenRec, WhitenRec+ and every compared baseline
* :mod:`repro.training`   — trainer, early stopping, Recall@K / NDCG@K evaluation
* :mod:`repro.analysis`   — anisotropy, alignment/uniformity, conditioning, t-SNE
* :mod:`repro.experiments`— one runner per paper table/figure
* :mod:`repro.infer`      — graph-free compiled inference engine (buffer-arena
  forward plans bit-identical to the graph, incremental session cache)
* :mod:`repro.serving`    — batched, cache-backed top-K recommendation serving
* :mod:`repro.service`    — multi-model serving API (typed requests, deployment
  registry, dynamic micro-batching, JSONL/HTTP front-ends)
"""

__version__ = "1.0.0"
