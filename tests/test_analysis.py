"""Tests for the analysis package: anisotropy, alignment, conditioning, t-SNE, reporting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis import (
    alignment_and_uniformity,
    alignment_loss,
    analyze_embeddings,
    cosine_cdf_by_group,
    format_metric_table,
    format_table,
    format_value,
    mean_cosine_by_group,
    pca_projection,
    relative_improvement,
    singular_value_spectrum,
    trace_from_result,
    tsne,
    uniformity_loss,
)
from repro.models import SASRecID
from repro.training.trainer import EpochRecord, TrainingResult


class TestAnisotropyAnalysis:
    def test_analyze_embeddings_report(self, anisotropic_embeddings):
        report = analyze_embeddings(anisotropic_embeddings)
        assert 0.0 < report.mean_cosine <= 1.0
        assert 0.0 < report.top1_spectral_energy <= 1.0
        assert report.is_anisotropic()
        assert report.singular_values[0] == pytest.approx(1.0)

    def test_isotropic_data_not_flagged(self, rng):
        isotropic = rng.standard_normal((500, 8))
        report = analyze_embeddings(isotropic)
        assert not report.is_anisotropic()

    def test_singular_value_spectrum_shape(self, anisotropic_embeddings):
        spectrum = singular_value_spectrum(anisotropic_embeddings)
        assert spectrum.shape == (anisotropic_embeddings.shape[1],)

    def test_cosine_cdf_by_group_labels(self, anisotropic_embeddings):
        cdfs = cosine_cdf_by_group(anisotropic_embeddings, ["raw", 1, 3])
        assert set(cdfs) == {"Raw", "1", "3"}
        for grid, cdf in cdfs.values():
            assert grid.shape == cdf.shape
            assert cdf[-1] == pytest.approx(1.0, abs=1e-9)

    def test_whitening_shifts_cdf_left(self, anisotropic_embeddings):
        """Fig. 4: full whitening concentrates cosine similarities near zero."""
        cdfs = cosine_cdf_by_group(anisotropic_embeddings, ["raw", 1])
        grid, raw_cdf = cdfs["Raw"]
        _, white_cdf = cdfs["1"]
        mid = np.searchsorted(grid, 0.5)
        # After whitening, a much larger fraction of pairs has cosine <= 0.5.
        assert white_cdf[mid] > raw_cdf[mid]

    def test_mean_cosine_by_group_ordering(self, anisotropic_embeddings):
        means = mean_cosine_by_group(anisotropic_embeddings, ["raw", 1])
        assert means["1"] < means["Raw"]


class TestAlignmentUniformity:
    def test_alignment_loss_zero_for_identical(self, rng):
        users = rng.standard_normal((20, 8))
        assert alignment_loss(users, users) == pytest.approx(0.0, abs=1e-12)

    def test_alignment_loss_positive_for_different(self, rng):
        users = rng.standard_normal((20, 8))
        items = rng.standard_normal((20, 8))
        assert alignment_loss(users, items) > 0.0

    def test_alignment_requires_matching_shapes(self, rng):
        with pytest.raises(ValueError):
            alignment_loss(rng.standard_normal((5, 4)), rng.standard_normal((6, 4)))

    def test_uniformity_lower_for_spread_points(self, rng):
        clustered = rng.standard_normal((200, 6)) * 0.01 + 1.0
        spread = rng.standard_normal((200, 6))
        assert uniformity_loss(spread) < uniformity_loss(clustered)

    def test_uniformity_single_point(self):
        assert uniformity_loss(np.ones((1, 4))) == 0.0

    def test_uniformity_sampling_path(self, rng):
        points = rng.standard_normal((300, 6))
        exact = uniformity_loss(points, max_pairs=10 ** 9)
        sampled = uniformity_loss(points, max_pairs=2000, seed=1)
        assert abs(exact - sampled) < 0.2

    def test_alignment_and_uniformity_on_model(self, tiny_split, tiny_model_config):
        model = SASRecID(tiny_split.num_items, tiny_model_config)
        stats = alignment_and_uniformity(model, tiny_split.validation[:40],
                                         max_sequence_length=12)
        assert set(stats) == {"alignment", "user_uniformity", "item_uniformity"}
        assert stats["alignment"] > 0
        assert stats["user_uniformity"] <= 0.0 + 1e-9


class TestConditioning:
    @staticmethod
    def _result_with(losses, conditions):
        history = [
            EpochRecord(epoch=i + 1, train_loss=loss, validation_metrics={},
                        condition_number=condition)
            for i, (loss, condition) in enumerate(zip(losses, conditions))
        ]
        return TrainingResult(best_epoch=len(losses), best_validation={},
                              test_metrics={}, history=history)

    def test_trace_from_result(self):
        result = self._result_with([10.0, 8.0, 7.0], [30.0, 20.0, 15.0])
        trace = trace_from_result("m", result)
        assert trace.training_losses == [10.0, 8.0, 7.0]
        assert trace.condition_numbers == [30.0, 20.0, 15.0]
        assert trace.final_condition_number == 15.0
        assert trace.final_loss == 7.0


class TestTSNE:
    def test_output_shape(self, rng):
        points = rng.standard_normal((60, 10))
        coords = tsne(points, num_iterations=50, perplexity=10, seed=0)
        assert coords.shape == (60, 2)
        assert np.isfinite(coords).all()

    def test_requires_minimum_points(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.standard_normal((3, 4)))

    def test_separates_well_separated_clusters(self, rng):
        cluster_a = rng.standard_normal((30, 8)) + 20.0
        cluster_b = rng.standard_normal((30, 8)) - 20.0
        points = np.vstack([cluster_a, cluster_b])
        coords = tsne(points, num_iterations=120, perplexity=10, seed=0)
        centroid_a = coords[:30].mean(axis=0)
        centroid_b = coords[30:].mean(axis=0)
        within_a = np.linalg.norm(coords[:30] - centroid_a, axis=1).mean()
        between = np.linalg.norm(centroid_a - centroid_b)
        assert between > within_a

    def test_pca_projection(self, rng):
        points = rng.standard_normal((40, 6))
        coords = pca_projection(points, num_dims=2)
        assert coords.shape == (40, 2)
        # PCA components are orthogonal directions of decreasing variance.
        assert coords[:, 0].var() >= coords[:, 1].var()


class TestReporting:
    def test_format_value(self):
        assert format_value(0.123456) == "0.1235"
        assert format_value(3) == "3"
        assert format_value("abc") == "abc"
        assert format_value(True) == "True"

    def test_format_table_alignment(self):
        table = format_table(["name", "value"], [["a", 1.0], ["longer", 2.5]],
                             title="demo")
        lines = table.splitlines()
        assert lines[0] == "demo"
        assert "name" in lines[1]
        assert len(lines) == 5
        assert len(set(len(line) for line in lines[2:])) == 1  # aligned widths

    def test_format_metric_table(self):
        results = {"model-a": {"recall@20": 0.5, "ndcg@20": 0.25},
                   "model-b": {"recall@20": 0.4, "ndcg@20": 0.2}}
        rendered = format_metric_table(results, metric_order=["recall@20", "ndcg@20"])
        assert "model-a" in rendered and "0.5000" in rendered

    def test_format_metric_table_empty(self):
        assert format_metric_table({}, title="t") == "t"

    def test_relative_improvement(self):
        assert relative_improvement(1.1, 1.0) == pytest.approx(10.0)
        assert relative_improvement(0.9, 1.0) == pytest.approx(-10.0)
        assert relative_improvement(1.0, 0.0) == float("inf")
        assert relative_improvement(0.0, 0.0) == 0.0
