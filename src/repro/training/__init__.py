"""Training & evaluation harness (the RecBole-trainer substitute)."""

from .config import TrainingConfig
from .evaluation import (
    compute_metrics,
    evaluate_model,
    inference_catalogue_scores,
    mrr_at_k,
    ndcg_at_k,
    recall_at_k,
    target_ranks,
)
from .trainer import EpochRecord, Trainer, TrainingResult, quick_train

__all__ = [
    "EpochRecord",
    "Trainer",
    "TrainingConfig",
    "TrainingResult",
    "compute_metrics",
    "evaluate_model",
    "inference_catalogue_scores",
    "mrr_at_k",
    "ndcg_at_k",
    "quick_train",
    "recall_at_k",
    "target_ranks",
]
