"""Tests for the CLI, result persistence, extra metrics and ASCII plots."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.analysis.plots import histogram, sparkline
from repro.cli import main as cli_main
from repro.experiments.persistence import save_result
from repro.models import GRU4Rec, ModelConfig, SASRecID
from repro.models.checkpoint import Checkpoint, load_model, save_checkpoint
from repro.training import mrr_at_k


class TestPersistence:
    def test_saved_result_handles_numpy(self, tmp_path):
        result = {
            "values": np.arange(3, dtype=np.float64),
            "score": np.float64(0.5),
            "count": np.int64(7),
            "nested": {"flag": True, "none": None, "inf": float("inf")},
        }
        path = save_result(result, tmp_path / "numpy.json")
        payload = json.loads(path.read_text())["result"]
        assert payload["values"] == [0.0, 1.0, 2.0]
        assert payload["score"] == 0.5
        assert payload["count"] == 7
        assert payload["nested"]["inf"] is None  # non-finite floats become null

    def test_save_and_load_roundtrip(self, tmp_path):
        result = {"table": "demo", "metrics": {"recall@20": 0.25}}
        path = save_result(result, tmp_path / "out" / "tab1.json", experiment_id="tab1")
        assert path.exists()
        loaded = json.loads(path.read_text())
        assert loaded["experiment_id"] == "tab1"
        assert loaded["result"]["metrics"]["recall@20"] == 0.25

    def test_unserialisable_objects_become_repr(self, tmp_path):
        class Opaque:
            def __repr__(self):
                return "<opaque>"

        path = save_result({"model": Opaque()}, tmp_path / "opaque.json")
        payload = json.loads(path.read_text())["result"]
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
