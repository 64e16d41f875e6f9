"""Training loop with early stopping and per-epoch diagnostics.

The :class:`Trainer` reproduces the RecBole-style loop the paper uses: Adam,
full-softmax cross entropy, early stopping when validation NDCG@20 stops
improving, and (optionally) per-epoch tracking of the item-matrix condition
number and alignment/uniformity statistics used by Fig. 6 and Fig. 7.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..data.dataloader import SequenceDataLoader
from ..data.splits import DatasetSplit, EvaluationCase, training_examples
from ..nn.optim import Adam, clip_grad_norm
from ..whitening.metrics import covariance_condition_number
from .config import TrainingConfig
from .evaluation import evaluate_model


@dataclass
class EpochRecord:
    """Diagnostics recorded after each training epoch."""

    epoch: int
    train_loss: float
    validation_metrics: Dict[str, float]
    condition_number: Optional[float] = None
    alignment: Optional[float] = None
    user_uniformity: Optional[float] = None
    item_uniformity: Optional[float] = None
    seconds: float = 0.0


@dataclass
class TrainingResult:
    """Outcome of a full training run."""

    best_epoch: int
    best_validation: Dict[str, float]
    test_metrics: Dict[str, float]
    history: List[EpochRecord] = field(default_factory=list)
    total_seconds: float = 0.0
    num_parameters: int = 0

    @property
    def seconds_per_epoch(self) -> float:
        """Mean training + validation time of an epoch; the per-epoch
        diagnostics and the final test pass are not charged to it."""
        if not self.history:
            return 0.0
        return sum(record.seconds for record in self.history) / len(self.history)


class Trainer:
    """Train and evaluate a sequential recommender on a dataset split."""

    def __init__(self, model, split: DatasetSplit,
                 config: Optional[TrainingConfig] = None):
        self.model = model
        self.split = split
        self.config = config or TrainingConfig()
        self.optimizer = Adam(
            model.parameters(),
            lr=self.config.learning_rate,
            weight_decay=self.config.weight_decay,
        )
        examples = training_examples(
            split,
            max_sequence_length=self.config.max_sequence_length,
            augment_prefixes=self.config.augment_prefixes,
        )
        self.loader = SequenceDataLoader(
            examples,
            batch_size=self.config.batch_size,
            max_length=self.config.max_sequence_length,
            shuffle=True,
            seed=self.config.seed,
        )

    # ------------------------------------------------------------------ #
    # Diagnostics
    # ------------------------------------------------------------------ #
    def _alignment_uniformity(self) -> Dict[str, float]:
        from ..analysis.alignment import alignment_and_uniformity

        sample = self.split.validation[: min(len(self.split.validation), 512)]
        return alignment_and_uniformity(
            self.model, sample, max_sequence_length=self.config.max_sequence_length
        )

    def _epoch_diagnostics(self, record: EpochRecord) -> None:
        if self.config.track_condition_number:
            item_matrix = self.model.item_matrix_numpy()
            record.condition_number = covariance_condition_number(item_matrix)
        if self.config.track_alignment_uniformity and self.split.validation:
            stats = self._alignment_uniformity()
            record.alignment = stats["alignment"]
            record.user_uniformity = stats["user_uniformity"]
            record.item_uniformity = stats["item_uniformity"]

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def train_one_epoch(self) -> float:
        """Run one optimisation epoch, returning the summed training loss."""
        self.model.train()
        total_loss = 0.0
        for batch in self.loader:
            self.optimizer.zero_grad()
            loss = self.model.loss(batch)
            loss.backward()
            if self.config.grad_clip_norm is not None:
                clip_grad_norm(self.model.parameters(), self.config.grad_clip_norm)
            self.optimizer.step()
            total_loss += float(loss.item()) * len(batch)
        return total_loss

    def evaluate(self, cases: Sequence[EvaluationCase]) -> Dict[str, float]:
        score_dtype = self.config.eval_score_dtype
        return evaluate_model(
            self.model, cases,
            ks=self.config.metric_ks,
            batch_size=self.config.eval_batch_size,
            max_sequence_length=self.config.max_sequence_length,
            score_dtype=None if score_dtype is None else np.dtype(score_dtype),
        )

    def fit(self) -> TrainingResult:
        """Train until ``num_epochs`` or early stopping, then test."""
        history: List[EpochRecord] = []
        best_metric = -np.inf
        best_epoch = -1
        best_state = None
        best_validation: Dict[str, float] = {}
        patience_counter = 0
        start = time.perf_counter()
        metric_key = self.config.early_stopping_metric

        for epoch in range(1, self.config.num_epochs + 1):
            epoch_start = time.perf_counter()
            train_loss = self.train_one_epoch()
            validation_metrics = self.evaluate(self.split.validation)
            record = EpochRecord(
                epoch=epoch,
                train_loss=train_loss,
                validation_metrics=validation_metrics,
                seconds=time.perf_counter() - epoch_start,
            )
            self._epoch_diagnostics(record)
            history.append(record)
            if self.config.verbose:  # pragma: no cover - console logging
                print(
                    f"epoch {epoch:3d} loss {train_loss:10.2f} "
                    f"{metric_key} {validation_metrics.get(metric_key, 0.0):.4f}"
                )

            current = validation_metrics.get(metric_key, 0.0)
            if current > best_metric:
                best_metric = current
                best_epoch = epoch
                best_validation = dict(validation_metrics)
                best_state = self.model.state_dict()
                patience_counter = 0
            else:
                patience_counter += 1
                if patience_counter >= self.config.early_stopping_patience:
                    break

        if best_state is not None:
            self.model.load_state_dict(best_state)
        test_metrics = self.evaluate(self.split.test)
        total_seconds = time.perf_counter() - start
        return TrainingResult(
            best_epoch=best_epoch,
            best_validation=best_validation,
            test_metrics=test_metrics,
            history=history,
            total_seconds=total_seconds,
            num_parameters=self.model.num_parameters(),
        )


def quick_train(model, split: DatasetSplit, num_epochs: int = 5,
                **config_overrides) -> TrainingResult:
    """Convenience helper used by examples and benchmarks."""
    config = TrainingConfig(num_epochs=num_epochs, **config_overrides)
    return Trainer(model, split, config).fit()
