"""Experiment runners and registry reproducing every table/figure of the paper."""

from . import runners
from .persistence import save_result
from .presets import (
    ExperimentScale,
    ExperimentSetup,
    get_scale,
    prepare_experiment,
)
from .registry import ExperimentSpec, get_experiment, list_experiments
from .runners import ModelRunRecord, train_model

__all__ = [
    "ExperimentScale",
    "ExperimentSetup",
    "ExperimentSpec",
    "ModelRunRecord",
    "get_experiment",
    "get_scale",
    "list_experiments",
    "prepare_experiment",
    "runners",
    "save_result",
    "train_model",
]
