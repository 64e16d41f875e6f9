"""Model registry: build any paper model by its Table III label.

The experiment runners (and the README quickstart) construct models through
:func:`build_model`, which hides the per-model constructor differences (some
models need the pre-trained feature table, GRCN needs the training sequences
to build its co-occurrence graph, the ID-only models need neither).
"""

from __future__ import annotations

import inspect
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from .base import ModelConfig, NextItemRecommender
from .cl4srec import CL4SRec
from .fdsa import FDSA
from .general import BM3, GRCN
from .gru4rec import GRU4Rec
from .s3rec import S3Rec
from .sasrec import SASRecID, SASRecText, SASRecTextID
from .unisrec import UniSRec
from .vqrec import VQRec
from .whitenrec import WhitenRec, WhitenRecPlus

# Canonical model names (keys) and the aliases used in the paper's tables.
_ALIASES: Dict[str, str] = {
    "grcn": "grcn",
    "bm3": "bm3",
    "sasrec_id": "sasrec_id",
    "sasrec(id)": "sasrec_id",
    "cl4srec": "cl4srec",
    "sasrec_t": "sasrec_t",
    "sasrec(t)": "sasrec_t",
    "sasrec_t_id": "sasrec_t_id",
    "sasrec(t+id)": "sasrec_t_id",
    "s3rec": "s3rec",
    "s3-rec": "s3rec",
    "fdsa": "fdsa",
    "unisrec_t": "unisrec_t",
    "unisrec(t)": "unisrec_t",
    "unisrec_t_id": "unisrec_t_id",
    "unisrec(t+id)": "unisrec_t_id",
    "vqrec": "vqrec",
    "gru4rec": "gru4rec",
    "whitenrec": "whitenrec",
    "whitenrec_id": "whitenrec_id",
    "whitenrec+": "whitenrec_plus",
    "whitenrec_plus": "whitenrec_plus",
    "whitenrec_plus_id": "whitenrec_plus_id",
}

#: model names that require the pre-trained text feature table
TEXT_MODELS = {
    "grcn", "bm3", "sasrec_t", "sasrec_t_id", "s3rec", "fdsa",
    "unisrec_t", "unisrec_t_id", "vqrec", "whitenrec", "whitenrec_id",
    "whitenrec_plus", "whitenrec_plus_id",
}

#: Table III column labels, in the paper's order
PAPER_MODEL_ORDER: List[str] = [
    "grcn", "bm3", "sasrec_id", "cl4srec", "sasrec_t", "sasrec_t_id",
    "s3rec", "fdsa", "unisrec_t", "unisrec_t_id", "vqrec",
    "whitenrec", "whitenrec_plus",
]

#: display labels matching the paper's tables
DISPLAY_LABELS: Dict[str, str] = {
    "grcn": "GRCN (T+ID)",
    "bm3": "BM3 (T+ID)",
    "sasrec_id": "SASRec (ID)",
    "cl4srec": "CL4SRec (ID)",
    "sasrec_t": "SASRec (T)",
    "sasrec_t_id": "SASRec (T+ID)",
    "s3rec": "S3-Rec (T+ID)",
    "fdsa": "FDSA (T+ID)",
    "unisrec_t": "UniSRec (T)",
    "unisrec_t_id": "UniSRec (T+ID)",
    "vqrec": "VQRec (T)",
    "gru4rec": "GRU4Rec (ID)",
    "whitenrec": "WhitenRec (T)",
    "whitenrec_id": "WhitenRec (T+ID)",
    "whitenrec_plus": "WhitenRec+ (T)",
    "whitenrec_plus_id": "WhitenRec+ (T+ID)",
}


#: canonical name -> (constructor, kwargs the name pre-fills).  The *_id
#: aliases pre-fill use_id_embeddings but let an explicit kwarg win, so
#: checkpoint-introspected kwargs never collide with the alias.  Text models
#: take the feature table as their second positional argument.
_CONSTRUCTORS: Dict[str, Tuple[type, Dict[str, Any]]] = {
    "sasrec_id": (SASRecID, {}),
    "cl4srec": (CL4SRec, {}),
    "gru4rec": (GRU4Rec, {}),
    "sasrec_t": (SASRecText, {}),
    "sasrec_t_id": (SASRecTextID, {}),
    "s3rec": (S3Rec, {}),
    "fdsa": (FDSA, {}),
    "unisrec_t": (UniSRec, {"use_id_embeddings": False}),
    "unisrec_t_id": (UniSRec, {"use_id_embeddings": True}),
    "vqrec": (VQRec, {}),
    "grcn": (GRCN, {}),
    "bm3": (BM3, {}),
    "whitenrec": (WhitenRec, {}),
    "whitenrec_id": (WhitenRec, {"use_id_embeddings": True}),
    "whitenrec_plus": (WhitenRecPlus, {}),
    "whitenrec_plus_id": (WhitenRecPlus, {"use_id_embeddings": True}),
}


def canonical_name(name: str) -> str:
    """Resolve a model name or alias to its canonical registry key."""
    key = name.strip().lower().replace(" ", "")
    if key not in _ALIASES:
        raise KeyError(f"unknown model {name!r}; known: {available_models()}")
    return _ALIASES[key]


def available_models() -> List[str]:
    return sorted(set(_ALIASES.values()))


def display_label(name: str) -> str:
    return DISPLAY_LABELS.get(canonical_name(name), name)


def constructor_defaults(name: str) -> Dict[str, Any]:
    """The keyword values :func:`build_model` uses for ``name`` when a kwarg
    is omitted: the constructor's signature defaults, then the name's
    pre-filled kwargs."""
    constructor, prefilled = _CONSTRUCTORS[canonical_name(name)]
    parameters = inspect.signature(constructor.__init__).parameters.values()
    defaults = {p.name: p.default for p in parameters if p.default is not p.empty}
    return {**defaults, **prefilled}


def build_model(name: str, num_items: int,
                feature_table: Optional[np.ndarray] = None,
                train_sequences: Optional[Dict[int, List[int]]] = None,
                config: Optional[ModelConfig] = None,
                **kwargs) -> NextItemRecommender:
    """Construct a model by (alias) name.

    Parameters
    ----------
    name:
        Any alias accepted by :func:`canonical_name`.
    num_items:
        Catalogue size.
    feature_table:
        Padded pre-trained text feature table; required by text models.
    train_sequences:
        Training sequences (only needed by GRCN's co-occurrence graph).
    config:
        Shared :class:`ModelConfig`.
    kwargs:
        Forwarded to the model constructor (e.g. ``relaxed_groups`` or
        ``ensemble`` for WhitenRec+).
    """
    key = canonical_name(name)
    if key in TEXT_MODELS and feature_table is None:
        raise ValueError(f"model {key!r} requires a pre-trained feature table")
    constructor, prefilled = _CONSTRUCTORS[key]
    kwargs = {**prefilled, **kwargs}
    if key == "grcn":
        kwargs["train_sequences"] = train_sequences
    if key in TEXT_MODELS:
        return constructor(num_items, feature_table, config=config, **kwargs)
    return constructor(num_items, config=config, **kwargs)
