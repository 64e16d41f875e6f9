"""Reference implementations that tests compare the production code against.

Each one is the slow, obvious form of something ``src/`` does fast or
leaves implicit; nothing outside ``tests/`` calls them.  Test modules under
``tests/`` import them as ``from oracles import ...``, like
``gradcheck.py`` beside them.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.data.dataloader import make_batch
from repro.quant import QuantizedMatrix
from repro.whitening.metrics import singular_values


def per_sequence_topk(model, sequences: Sequence[Sequence[int]],
                      k: int) -> List[np.ndarray]:
    """Evaluation-loop baseline: score one sequence at a time via the model.

    This is how the training/evaluation stack ranks items — one
    :meth:`predict_scores` call (a full float64 forward pass) per history,
    followed by a full argsort.  Histories are padded to the model's
    ``max_seq_length`` window, exactly like evaluation batches, so the
    resulting rankings are comparable with the batched fast path.
    """
    results: List[np.ndarray] = []
    for sequence in sequences:
        history = [int(i) for i in sequence if 0 < int(i) <= model.num_items]
        history = history[-model.max_seq_length:]
        batch = make_batch([(0, history, 0)], model.max_seq_length)
        scores = model.predict_scores(batch)[0]
        results.append(np.argsort(-scores, kind="stable")[:k])
    return results


def dequantize(quantized: QuantizedMatrix) -> np.ndarray:
    """Reconstruct the fp32 approximation ``scales[:, None] * codes``.

    This is *not* the original matrix — the scorer never uses it for returned
    scores — but it is what the int8 GEMM effectively scores against, which
    makes it the right reference for error-bound tests.
    """
    return quantized.codes.astype(np.float32) * quantized.scales[:, None]


def _covariance(embeddings: np.ndarray) -> np.ndarray:
    embeddings = np.asarray(embeddings, dtype=np.float64)
    centered = embeddings - embeddings.mean(axis=0)
    return centered.T @ centered / embeddings.shape[0]


def spectral_decay_ratio(embeddings: np.ndarray, top_k: int = 1) -> float:
    """Fraction of spectral energy captured by the top-``k`` singular values."""
    values = singular_values(embeddings, center=False)
    energy = values ** 2
    return float(energy[:top_k].sum() / energy.sum())


def covariance_off_diagonal_ratio(embeddings: np.ndarray) -> float:
    """Mean absolute off-diagonal correlation (0 for perfectly whitened data)."""
    covariance = _covariance(embeddings)
    std = np.sqrt(np.clip(np.diag(covariance), 1e-12, None))
    correlation = covariance / np.outer(std, std)
    dim = correlation.shape[0]
    off_diagonal = correlation[~np.eye(dim, dtype=bool)]
    return float(np.abs(off_diagonal).mean())


def isotropy_score(embeddings: np.ndarray) -> float:
    """Isotropy in [0, 1]: ratio of min to max covariance eigenvalue.

    1.0 means perfectly isotropic (whitened); values near 0 indicate a
    dominant direction (anisotropy).
    """
    eigenvalues = np.clip(np.linalg.eigvalsh(_covariance(embeddings)), 0.0, None)
    if eigenvalues[-1] <= 0:
        return 0.0
    return float(eigenvalues[0] / eigenvalues[-1])


def whitening_error(embeddings: np.ndarray) -> float:
    """Frobenius distance between the covariance of ``embeddings`` and identity."""
    covariance = _covariance(embeddings)
    identity = np.eye(covariance.shape[0])
    return float(np.linalg.norm(covariance - identity, ord="fro"))
