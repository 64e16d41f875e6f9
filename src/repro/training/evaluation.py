"""Full-ranking evaluation: Recall@K and NDCG@K.

The paper evaluates every method on the *entire* item set without negative
sampling (Sec. V-A3, citing Krichene & Rendle's critique of sampled metrics)
and reports Recall@K and NDCG@K for K in {20, 50}.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..data.dataloader import evaluation_batches
from ..data.splits import EvaluationCase
from ..nn.functional import padded_catalogue_scores


def inference_catalogue_scores(model, item_ids: np.ndarray, lengths: np.ndarray,
                               item_matrix: Optional[np.ndarray] = None,
                               scoring_matrix: Optional[np.ndarray] = None,
                               score_dtype=np.float32,
                               encoder=None) -> np.ndarray:
    """Shared inference scoring entry point (evaluation *and* serving).

    Encodes a left-padded history batch through the model's inference API and
    scores it against the full catalogue with one matmul in ``score_dtype``
    (``None`` keeps the model's native precision); the padding column is
    masked to ``-inf``.  The full-ranking evaluator scores through this
    function and :class:`repro.serving.Recommender` scores warm requests
    through the same :func:`~repro.nn.functional.padded_catalogue_scores`,
    so an evaluation rank and a served recommendation can never disagree
    about how a history is scored.

    ``item_matrix`` (model precision, for the embedding lookups) and
    ``scoring_matrix`` (cast to ``score_dtype``, for the matmul) let callers
    with per-batch loops hoist the item-matrix computation and the cast out
    of the loop; both default to being derived on the fly.

    ``encoder`` swaps the sequence encoder: any callable with the
    ``model.encode_sequences(item_ids, lengths, item_matrix=...)`` contract,
    e.g. the compiled graph-free engine
    (:meth:`repro.infer.InferenceEngine.encode_sequences`, bit-identical to
    the default graph path at equal dtype).
    """
    if item_matrix is None:
        item_matrix = model.inference_item_matrix()
    if scoring_matrix is None:
        scoring_matrix = (item_matrix if score_dtype is None
                          else item_matrix.astype(score_dtype, copy=False))
    encode = model.encode_sequences if encoder is None else encoder
    users = encode(item_ids, lengths, item_matrix=item_matrix)
    scores = padded_catalogue_scores(users, scoring_matrix, score_dtype)
    scores[:, 0] = -np.inf
    return scores


def recall_at_k(ranks: np.ndarray, k: int) -> float:
    """Fraction of cases whose ground-truth item ranks within the top ``k``.

    With a single relevant item per case (leave-one-out), Recall@K equals
    HitRate@K.
    """
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    return float((ranks <= k).mean())


def ndcg_at_k(ranks: np.ndarray, k: int) -> float:
    """NDCG@K with one relevant item per case: 1/log2(rank+1) if rank <= k."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    gains = np.where(ranks <= k, 1.0 / np.log2(ranks + 1.0), 0.0)
    return float(gains.mean())


def mrr_at_k(ranks: np.ndarray, k: int) -> float:
    """Mean reciprocal rank truncated at ``k`` (not reported in the paper, but
    a common companion metric exposed for downstream users)."""
    ranks = np.asarray(ranks)
    if ranks.size == 0:
        return 0.0
    reciprocal = np.where(ranks <= k, 1.0 / ranks, 0.0)
    return float(reciprocal.mean())


def target_ranks(scores: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Compute the 1-based rank of each target item in its score row.

    Compares in the scores' own dtype: every comparison is exact there, so a
    float64 copy would only cost time.
    """
    scores = np.asarray(scores)
    targets = np.asarray(targets, dtype=np.int64)
    target_scores = scores[np.arange(len(targets)), targets]
    # Rank = 1 + number of items scored strictly higher than the target.
    higher = (scores > target_scores[:, None]).sum(axis=1)
    return higher + 1


def compute_metrics(ranks: np.ndarray, ks: Sequence[int],
                    include_mrr: bool = False) -> Dict[str, float]:
    """Recall@K / NDCG@K (and optionally MRR@K) keyed like ``"recall@20"``."""
    metrics: Dict[str, float] = {}
    for k in ks:
        metrics[f"recall@{k}"] = recall_at_k(ranks, k)
        metrics[f"ndcg@{k}"] = ndcg_at_k(ranks, k)
        if include_mrr:
            metrics[f"mrr@{k}"] = mrr_at_k(ranks, k)
    return metrics


def evaluate_model(model, cases: Sequence[EvaluationCase],
                   ks: Sequence[int] = (20, 50), batch_size: int = 512,
                   max_sequence_length: int = 20,
                   candidate_items: Optional[Iterable[int]] = None,
                   score_dtype=np.float32) -> Dict[str, float]:
    """Evaluate a model on evaluation cases with full (unsampled) ranking.

    Scoring goes through the inference fast path when the model provides one
    (:meth:`item_scores` + :meth:`inference_item_matrix`): the candidate item
    matrix is computed **once** for all batches and the full-catalogue matmul
    runs in ``score_dtype`` (float32 by default, halving the memory traffic),
    instead of re-deriving the item matrix and scoring in float64 inside the
    autodiff graph for every batch.  ``score_dtype=None`` keeps the model's
    native precision; models without the inference API fall back to
    :meth:`predict_scores`.

    Parameters
    ----------
    model:
        Any :class:`repro.models.base.NextItemRecommender`.
    cases:
        Evaluation cases (history + ground-truth target).
    ks:
        Cut-offs for Recall/NDCG.
    candidate_items:
        Optional restriction of the candidate set (unused by default: the
        paper ranks against the whole catalogue).
    score_dtype:
        dtype of the full-catalogue scoring matmul on the fast path.
    """
    if not cases:
        return {f"{metric}@{k}": 0.0 for k in ks for metric in ("recall", "ndcg")}

    all_ranks: List[np.ndarray] = []
    candidate_mask = None
    if candidate_items is not None:
        candidate_mask = np.zeros(model.num_items + 1, dtype=bool)
        candidate_mask[list(candidate_items)] = True

    fast_path = hasattr(model, "encode_sequences") and hasattr(model, "inference_item_matrix")
    item_matrix = scoring_matrix = None
    if fast_path:
        # Model-precision matrix for the embedding lookups, cast ONCE to the
        # scoring dtype for the per-batch full-catalogue matmuls.
        item_matrix = model.inference_item_matrix()
        scoring_matrix = (item_matrix if score_dtype is None
                          else item_matrix.astype(score_dtype, copy=False))

    for batch in evaluation_batches(list(cases), batch_size, max_sequence_length):
        if fast_path:
            scores = inference_catalogue_scores(
                model, batch.item_ids, batch.lengths,
                item_matrix=item_matrix, scoring_matrix=scoring_matrix,
                score_dtype=score_dtype,
            )
        else:
            scores = model.predict_scores(batch)
        if candidate_mask is not None:
            # Each row's own target stays scoreable even if the caller forgot
            # it; a batchmate's target does not, or ranks would depend on
            # the batch size.
            rows = np.arange(len(batch.targets))
            target_scores = scores[rows, batch.targets]
            scores[:, ~candidate_mask] = -np.inf
            scores[rows, batch.targets] = target_scores
        all_ranks.append(target_ranks(scores, batch.targets))

    ranks = np.concatenate(all_ranks)
    return compute_metrics(ranks, ks)


def evaluate_model_sampled(model, cases: Sequence[EvaluationCase],
                           num_negatives: int = 100,
                           ks: Sequence[int] = (20, 50),
                           batch_size: int = 512,
                           max_sequence_length: int = 20,
                           seed: int = 0) -> Dict[str, float]:
    """Sampled-negative evaluation (the protocol the paper deliberately avoids).

    Each ground-truth item is ranked against ``num_negatives`` uniformly
    sampled negative items instead of the full catalogue.  The paper follows
    Krichene & Rendle's recommendation and evaluates on the entire item set;
    this function exists so that the inconsistency of sampled metrics can be
    demonstrated (and for downstream users with very large catalogues).
    """
    if not cases:
        return {f"{metric}@{k}": 0.0 for k in ks for metric in ("recall", "ndcg")}
    rng = np.random.default_rng(seed)
    all_ranks: List[int] = []
    catalogue = np.arange(1, model.num_items + 1)
    for batch in evaluation_batches(list(cases), batch_size, max_sequence_length):
        scores = model.predict_scores(batch)
        for row, target in enumerate(batch.targets):
            pool = catalogue[catalogue != target]
            sample_size = min(num_negatives, pool.size)
            negatives = rng.choice(pool, size=sample_size, replace=False)
            candidate_scores = np.concatenate(
                ([scores[row, target]], scores[row, negatives])
            )
            rank = 1 + int((candidate_scores[1:] > candidate_scores[0]).sum())
            all_ranks.append(rank)
    return compute_metrics(np.asarray(all_ranks), ks)
