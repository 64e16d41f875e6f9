"""Conditioning analysis (Fig. 7): condition number and loss trajectories.

The trainer records the condition number of the projected item embedding
matrix and the training loss per epoch when asked to
(``TrainingConfig.track_condition_number``).  This module extracts those
series from a training result for Fig. 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..training.trainer import TrainingResult


@dataclass
class ConditioningTrace:
    """Per-epoch conditioning diagnostics for a single model."""

    model_name: str
    condition_numbers: List[float] = field(default_factory=list)
    training_losses: List[float] = field(default_factory=list)

    @property
    def final_condition_number(self) -> Optional[float]:
        return self.condition_numbers[-1] if self.condition_numbers else None

    @property
    def final_loss(self) -> Optional[float]:
        return self.training_losses[-1] if self.training_losses else None


def trace_from_result(model_name: str, result: TrainingResult) -> ConditioningTrace:
    """Build a :class:`ConditioningTrace` from a recorded training run."""
    condition_numbers = [
        record.condition_number
        for record in result.history
        if record.condition_number is not None
    ]
    losses = [record.train_loss for record in result.history]
    return ConditioningTrace(
        model_name=model_name,
        condition_numbers=[float(value) for value in condition_numbers],
        training_losses=[float(value) for value in losses],
    )

