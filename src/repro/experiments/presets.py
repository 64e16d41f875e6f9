"""Scaled-down experiment presets shared by the benchmark harness.

Every experiment needs the same ingredients: a synthetic dataset, its
warm-start (or cold-start) split, the pre-trained text feature table, and
model / training configurations.  :func:`prepare_experiment` builds all of
them from a small set of knobs and caches the result per
``(dataset, scale, cold_start, seed)`` for the rest of the process; the
trained cells of :func:`repro.experiments.runners.train_model` are cached
beside it in ``_CELL_CACHE``.

Two scales are provided:

* ``"bench"`` (default) — tiny datasets, few epochs; a full table regenerates
  in seconds to a couple of minutes on CPU.  Used by the pytest benchmarks.
* ``"full"`` — the "small" dataset preset with more epochs; closer to the
  paper's protocol while still CPU-feasible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..data.splits import DatasetSplit, cold_start_split, leave_one_out_split
from ..data.synthetic import SyntheticDataset, load_dataset
from ..models.base import ModelConfig
from ..text.features import encode_items
from ..training.config import TrainingConfig


@dataclass
class ExperimentScale:
    """Scale knobs for one experiment run."""

    dataset_scale: str = "tiny"
    feature_dim: int = 32
    hidden_dim: int = 32
    num_layers: int = 2
    num_heads: int = 2
    dropout: float = 0.2
    max_seq_length: int = 20
    num_epochs: int = 7
    batch_size: int = 256
    learning_rate: float = 3e-3
    early_stopping_patience: int = 12
    seed: int = 7


_SCALES: Dict[str, ExperimentScale] = {
    "bench": ExperimentScale(),
    "full": ExperimentScale(
        dataset_scale="small", feature_dim=64, hidden_dim=64,
        num_epochs=15, learning_rate=3e-3, seed=7,
    ),
}


def get_scale(name: str = "bench") -> ExperimentScale:
    if name not in _SCALES:
        raise KeyError(f"unknown scale {name!r}; available: {sorted(_SCALES)}")
    return _SCALES[name]


@dataclass
class ExperimentSetup:
    """Everything a runner needs for one (dataset, scale) combination."""

    dataset: SyntheticDataset
    split: DatasetSplit
    feature_table: np.ndarray
    model_config: ModelConfig
    training_config: TrainingConfig
    scale: ExperimentScale = field(default_factory=ExperimentScale)

    @property
    def num_items(self) -> int:
        return self.dataset.num_items


# A tiny in-process cache: several tables reuse the same dataset + features.
_SETUP_CACHE: Dict[Tuple, ExperimentSetup] = {}
# Trained cells keyed by (setup key, model, kwargs, overrides): several tables
# read the same trained model (filled by runners.train_model).
_CELL_CACHE: Dict[Tuple, Any] = {}


def prepare_experiment(dataset_name: str, scale: str = "bench",
                       cold_start: bool = False,
                       seed: Optional[int] = None) -> ExperimentSetup:
    """Generate the dataset, split, features and configs for one experiment."""
    scale_config = get_scale(scale)
    seed = scale_config.seed if seed is None else seed
    cache_key = (dataset_name, scale, cold_start, seed)
    if cache_key in _SETUP_CACHE:
        return _SETUP_CACHE[cache_key]

    dataset = load_dataset(dataset_name, scale=scale_config.dataset_scale, seed=seed)
    if cold_start:
        split = cold_start_split(dataset.interactions, cold_fraction=0.15, seed=seed)
    else:
        split = leave_one_out_split(dataset.interactions)

    feature_table = encode_items(
        dataset.items, embedding_dim=scale_config.feature_dim, seed=seed
    )

    model_config = ModelConfig(
        hidden_dim=scale_config.hidden_dim,
        num_layers=scale_config.num_layers,
        num_heads=scale_config.num_heads,
        dropout=scale_config.dropout,
        max_seq_length=scale_config.max_seq_length,
        seed=seed,
    )
    training_config = TrainingConfig(
        num_epochs=scale_config.num_epochs,
        batch_size=scale_config.batch_size,
        learning_rate=scale_config.learning_rate,
        max_sequence_length=scale_config.max_seq_length,
        early_stopping_patience=scale_config.early_stopping_patience,
        seed=seed,
        # One small covariance per epoch; lets Fig. 7 read Table III's cells.
        track_condition_number=True,
    )
    setup = ExperimentSetup(
        dataset=dataset,
        split=split,
        feature_table=feature_table,
        model_config=model_config,
        training_config=training_config,
        scale=scale_config,
    )
    _SETUP_CACHE[cache_key] = setup
    return setup


def setup_key(setup: ExperimentSetup) -> Tuple:
    """The ``(dataset, scale, cold_start, seed)`` a cached setup was built for."""
    for key, cached in _SETUP_CACHE.items():
        if cached is setup:
            return key
    raise ValueError("setup was not built by prepare_experiment (or was cleared)")
