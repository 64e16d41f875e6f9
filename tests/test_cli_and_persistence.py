"""Tests for the CLI, result persistence, sampled evaluation and ASCII plots."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.plots import histogram, line_plot, sparkline
from repro.cli import main as cli_main
from repro.data.splits import EvaluationCase
from repro.experiments.persistence import (load_result, result_to_json,
                                           save_result)
from repro.models import GRU4Rec, ModelConfig, SASRecID
from repro.models.checkpoint import Checkpoint, load_model, save_checkpoint
from repro.training import evaluate_model, evaluate_model_sampled, mrr_at_k


class TestPersistence:
    def test_result_to_json_handles_numpy(self):
        result = {
            "values": np.arange(3, dtype=np.float64),
            "score": np.float64(0.5),
            "count": np.int64(7),
            "nested": {"flag": True, "none": None, "inf": float("inf")},
        }
        payload = json.loads(result_to_json(result))
        assert payload["values"] == [0.0, 1.0, 2.0]
        assert payload["score"] == 0.5
        assert payload["count"] == 7
        assert payload["nested"]["inf"] is None  # non-finite floats become null

    def test_save_and_load_roundtrip(self, tmp_path):
        result = {"table": "demo", "metrics": {"recall@20": 0.25}}
        path = save_result(result, tmp_path / "out" / "tab1.json", experiment_id="tab1")
        assert path.exists()
        loaded = load_result(path)
        assert loaded["experiment_id"] == "tab1"
        assert loaded["result"]["metrics"]["recall@20"] == 0.25

    def test_load_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text(json.dumps({"something": 1}))
        with pytest.raises(ValueError):
            load_result(path)

    def test_unserialisable_objects_become_repr(self):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        payload = json.loads(result_to_json({"model": Opaque()}))
        assert payload["model"] == "<opaque>"

    def test_gru4rec_checkpoint_with_transformer_weights_is_refused(
            self, tmp_path):
        """A GRU4Rec checkpoint saved while every family still built the
        Transformer sequence encoder carries its weights; loading names them."""
        config = ModelConfig(hidden_dim=8, num_layers=1, num_heads=2,
                             max_seq_length=6, seed=0)
        checkpoint = Checkpoint.snapshot(GRU4Rec(20, config))
        transformer_state = {
            name: values for name, values in SASRecID(20, config).state_dict().items()
            if name.startswith(("position_embedding.", "input_layernorm.", "encoder."))}
        assert len(transformer_state) > 3
        checkpoint.state.update(transformer_state)
        path = save_checkpoint(checkpoint, tmp_path / "gru4rec-old.npz")
        with pytest.raises(KeyError) as refused:
            load_model(path)
        message = str(refused.value)
        assert "missing=[]" in message
        for name in transformer_state:
            assert repr(name) in message


class TestPlots:
    def test_sparkline_length_and_range(self):
        line = sparkline([1, 2, 3, 4, 5])
        assert len(line) == 5
        assert line[0] == "▁" and line[-1] == "█"

    def test_sparkline_downsamples(self):
        line = sparkline(list(range(500)), width=40)
        assert len(line) == 40

    def test_sparkline_empty(self):
        assert sparkline([]) == ""

    def test_line_plot_contains_series_markers(self):
        chart = line_plot({"a": [1, 2, 3], "b": [3, 2, 1]}, title="demo")
        assert "demo" in chart
        assert "*" in chart and "o" in chart
        assert "a" in chart and "b" in chart

    def test_line_plot_empty(self):
        assert line_plot({}, title="empty") == "empty"

    def test_histogram(self):
        chart = histogram([0.1, 0.2, 0.2, 0.9], bins=4, title="h")
        assert chart.splitlines()[0] == "h"
        assert "█" in chart

    def test_histogram_empty(self):
        assert "(no data)" in histogram([])


class TestExtraMetrics:
    def test_mrr_at_k(self):
        ranks = np.array([1, 2, 50])
        assert mrr_at_k(ranks, 20) == pytest.approx((1.0 + 0.5 + 0.0) / 3)
        assert mrr_at_k(np.array([]), 20) == 0.0

    def test_sampled_evaluation_close_to_full_for_small_catalogue(self):
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             max_seq_length=8, dropout=0.0, seed=0)
        model = SASRecID(25, config)
        rng = np.random.default_rng(0)
        cases = [
            EvaluationCase(user_id=u, history=list(rng.integers(1, 26, size=4)),
                           target=int(rng.integers(1, 26)))
            for u in range(30)
        ]
        full = evaluate_model(model, cases, ks=(20,), max_sequence_length=8)
        sampled = evaluate_model_sampled(model, cases, num_negatives=200, ks=(20,),
                                         max_sequence_length=8, seed=0)
        # With more negatives than the catalogue, sampled evaluation ranks the
        # target against (almost) everything, so the metrics should be close.
        assert abs(full["recall@20"] - sampled["recall@20"]) < 0.15

    def test_sampled_evaluation_empty_cases(self):
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             max_seq_length=8, seed=0)
        model = SASRecID(10, config)
        metrics = evaluate_model_sampled(model, [], ks=(20,))
        assert metrics["recall@20"] == 0.0


class TestCLI:
    def test_list_command(self, capsys):
        assert cli_main(["list"]) == 0
        output = capsys.readouterr().out
        assert "tab1" in output and "fig5" in output

    def test_stats_command(self, capsys):
        assert cli_main(["stats", "arts", "--scale", "tiny", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "#Users" in output

    def test_anisotropy_command(self, capsys):
        assert cli_main(["anisotropy", "food", "--dim", "16", "--seed", "3"]) == 0
        output = capsys.readouterr().out
        assert "mean pairwise cosine" in output

    def test_run_command_cheap_experiment(self, tmp_path, capsys):
        assert cli_main(["run", "tab2", "--scale", "bench",
                         "--output", str(tmp_path)]) == 0
        output = capsys.readouterr().out
        assert "Table II" in output
        assert (tmp_path / "tab2.json").exists()

    def test_unknown_experiment_raises(self):
        with pytest.raises(KeyError):
            cli_main(["run", "tab99"])
