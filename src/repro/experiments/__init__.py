"""Experiment runners and registry reproducing every table/figure of the paper."""

from . import runners
from .persistence import load_result, save_result
from .presets import (
    ExperimentScale,
    ExperimentSetup,
    clear_setup_cache,
    get_scale,
    prepare_experiment,
)
from .registry import ExperimentSpec, get_experiment, list_experiments, run_experiment
from .runners import ModelRunRecord, train_model

__all__ = [
    "ExperimentScale",
    "ExperimentSetup",
    "ExperimentSpec",
    "ModelRunRecord",
    "clear_setup_cache",
    "get_experiment",
    "get_scale",
    "list_experiments",
    "load_result",
    "prepare_experiment",
    "run_experiment",
    "runners",
    "save_result",
    "train_model",
]
