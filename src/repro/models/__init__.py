"""Recommendation models: the paper's proposals and every compared baseline."""

from .base import ModelConfig, NextItemRecommender, SequentialRecommender
from .cl4srec import CL4SRec
from .fdsa import FDSA
from .general import BM3, GRCN
from .gru4rec import GRU4Rec, GRUCell
from .registry import (
    DISPLAY_LABELS,
    PAPER_MODEL_ORDER,
    available_models,
    build_model,
    canonical_name,
    display_label,
)
from .s3rec import S3Rec
from .sasrec import SASRecID, SASRecText, SASRecTextID
from .unisrec import UniSRec
from .vqrec import VQRec, product_quantize
from .whitenrec import AttentionCombiner, WhitenRec, WhitenRecPlus

__all__ = [
    "AttentionCombiner",
    "BM3",
    "CL4SRec",
    "DISPLAY_LABELS",
    "FDSA",
    "GRCN",
    "GRU4Rec",
    "GRUCell",
    "ModelConfig",
    "NextItemRecommender",
    "PAPER_MODEL_ORDER",
    "S3Rec",
    "SASRecID",
    "SASRecText",
    "SASRecTextID",
    "SequentialRecommender",
    "UniSRec",
    "VQRec",
    "WhitenRec",
    "WhitenRecPlus",
    "available_models",
    "build_model",
    "canonical_name",
    "display_label",
    "product_quantize",
]
