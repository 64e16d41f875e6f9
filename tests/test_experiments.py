"""Tests for the experiments package: presets, registry and cheap runners.

Runners that train models are exercised end-to-end in the benchmark harness;
here we test the registry completeness, the preset machinery, and the cheap
(analysis-only) runners, plus the training grid (one fit per cell) with
1-epoch overrides to keep the suite fast.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.experiments import (
    get_experiment,
    get_scale,
    list_experiments,
    prepare_experiment,
    train_model,
)
from repro.experiments import presets
from repro.experiments.registry import ExperimentSpec
from repro.experiments.runners import (
    run_ablation_zca_epsilon,
    run_fig2_singular_values,
    run_fig3_tsne,
    run_fig4_cosine_cdf,
    run_fig5_group_sweep,
    run_fig8_whitenrec_plus_groups,
    run_table2_dataset_statistics,
)
from repro.training.trainer import Trainer

REPO_ROOT = Path(__file__).resolve().parents[1]
ONE_EPOCH = {"num_epochs": 1, "early_stopping_patience": 1}


def clear_setup_cache() -> None:
    """Drop the process's cached setups and trained cells."""
    presets._SETUP_CACHE.clear()
    presets._CELL_CACHE.clear()


class TestPresets:
    def test_get_scale(self):
        assert get_scale("bench").dataset_scale == "tiny"
        assert get_scale("full").dataset_scale == "small"
        with pytest.raises(KeyError):
            get_scale("galactic")

    def test_prepare_experiment_structure(self):
        setup = prepare_experiment("arts", scale="bench")
        assert setup.num_items == setup.dataset.num_items
        assert setup.feature_table.shape[0] == setup.num_items + 1
        assert setup.feature_table.shape[1] == get_scale("bench").feature_dim
        assert setup.split.test and setup.split.validation

    def test_prepare_experiment_cached(self):
        first = prepare_experiment("arts", scale="bench")
        second = prepare_experiment("arts", scale="bench")
        assert first is second
        clear_setup_cache()
        third = prepare_experiment("arts", scale="bench")
        assert third is not first

    def test_prepare_experiment_cold_start(self):
        setup = prepare_experiment("arts", scale="bench", cold_start=True)
        assert setup.split.cold_items
        for case in setup.split.test:
            assert case.target in setup.split.cold_items


class TestRegistry:
    def test_all_paper_artefacts_registered(self):
        ids = {spec.experiment_id for spec in list_experiments()}
        expected = {"fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
                    "tab1", "tab2", "tab3", "tab4", "tab5", "tab6", "tab7",
                    "tab8", "tab9"}
        assert expected.issubset(ids)

    def test_specs_are_complete(self):
        for spec in list_experiments():
            assert isinstance(spec, ExperimentSpec)
            assert spec.kind in {"table", "figure"}
            assert spec.description
            assert callable(spec.runner)
            assert spec.benchmark.startswith("benchmarks/")
            assert (REPO_ROOT / spec.benchmark).is_file(), spec.benchmark

    def test_get_experiment_unknown(self):
        with pytest.raises(KeyError):
            get_experiment("tab99")

    def test_registered_runner_runs(self):
        result = get_experiment("fig2").runner(dataset="arts", scale="bench")
        assert "singular_values" in result


class TestCheapRunners:
    def test_fig2_runner(self):
        result = run_fig2_singular_values(dataset="arts", scale="bench")
        assert result["mean_pairwise_cosine"] > 0.3
        assert result["singular_values"][0] == pytest.approx(1.0)

    def test_fig4_runner(self):
        result = run_fig4_cosine_cdf(dataset="arts", scale="bench", groups=("raw", 1))
        assert set(result["cdfs"]) == {"Raw", "1"}

    def test_fig3_runner_pca_mode(self):
        result = run_fig3_tsne(dataset="arts", scale="bench", groups=("raw", 1),
                               max_points=80, use_tsne=False)
        assert set(result["projections"]) == {"Raw", "G=1"}
        for coords in result["projections"].values():
            assert coords.shape[1] == 2
            assert np.isfinite(coords).all()

    def test_table2_runner(self):
        result = run_table2_dataset_statistics(datasets=("arts", "food"), scale="bench")
        assert set(result["statistics"]) == {"arts", "food"}
        assert "Table II" in result["table"]


class TestTrainModelHelper:
    def test_train_model_minimal(self):
        setup = prepare_experiment("arts", scale="bench")
        record = train_model(setup, "sasrec_id", training_overrides=ONE_EPOCH)
        assert record.dataset == "arts"
        assert set(record.test_metrics) >= {"recall@20", "ndcg@20"}
        assert record.num_parameters > 0

    def test_train_model_keeps_artifacts_when_asked(self):
        setup = prepare_experiment("arts", scale="bench")
        record = train_model(setup, "whitenrec", training_overrides=ONE_EPOCH)
        assert record.result is not None and record.result.history
        assert record.model is not None
        assert record.model.item_matrix_numpy().shape[0] == setup.num_items


@pytest.fixture
def fit_calls(monkeypatch):
    """Empty the cell cache and record every ``Trainer.fit`` call."""
    clear_setup_cache()
    calls = []
    fit = Trainer.fit

    def counting_fit(self):
        calls.append(self)
        return fit(self)

    monkeypatch.setattr(Trainer, "fit", counting_fit)
    return calls


class TestTrainingGrid:
    def test_views_sharing_a_cell_fit_it_once(self, fit_calls):
        fig5 = run_fig5_group_sweep(groups=(1,), epochs=1)
        ablation = run_ablation_zca_epsilon(epsilons=(1e-5,), epochs=1)
        fig8 = run_fig8_whitenrec_plus_groups(groups=(), epochs=1)
        assert len(fit_calls) == 1
        assert fig5["series"][1] == ablation["results"]["eps=1e-05"]
        assert fig5["series"][1] == fig8["whitenrec_reference"]

    def test_default_kwargs_name_the_same_cell(self, fit_calls):
        setup = prepare_experiment("arts", scale="bench")
        explicit = train_model(setup, "whitenrec", {"num_groups": 1}, ONE_EPOCH)
        explicit.test_metrics["recall@20"] = -1.0
        implicit = train_model(setup, "whitenrec", {}, ONE_EPOCH)
        assert len(fit_calls) == 1
        assert implicit.model is explicit.model
        assert implicit.test_metrics["recall@20"] >= 0.0  # views get copies

    def test_cell_metrics_do_not_depend_on_training_order(self):
        def whitenrec_after(*others):
            clear_setup_cache()
            setup = prepare_experiment("arts", scale="bench")
            for other in others:
                train_model(setup, other, training_overrides=ONE_EPOCH)
            return train_model(setup, "whitenrec", training_overrides=ONE_EPOCH).test_metrics

        assert whitenrec_after() == whitenrec_after("sasrec_id")

    def test_condition_number_tracking_changes_no_number(self, fit_calls):
        setup = prepare_experiment("arts", scale="bench")
        two_epochs = {"num_epochs": 2, "early_stopping_patience": 2}
        tracked = train_model(setup, "whitenrec", training_overrides=two_epochs)
        untracked = train_model(setup, "whitenrec", training_overrides={
            **two_epochs, "track_condition_number": False})
        assert len(fit_calls) == 2
        assert tracked.test_metrics == untracked.test_metrics
        assert ([epoch.train_loss for epoch in tracked.result.history]
                == [epoch.train_loss for epoch in untracked.result.history])
        assert all(epoch.condition_number for epoch in tracked.result.history)
        assert all(epoch.condition_number is None for epoch in untracked.result.history)
