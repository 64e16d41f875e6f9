"""Tests for the ANN retrieval subsystem (`repro.index`).

Covers: minibatch k-means edge cases (k > n, duplicate points, empty-cluster
re-seeding determinism), exactness of the flat reference, IVF full-probe
equivalence and partial-probe pruning, `.npz` persistence round trips,
incremental `add`, the serving backends (`Recommender.topk(backend=...)`)
and the `repro index build` command.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.index import (
    FlatIndex,
    IVFFlatIndex,
    ItemIndex,
    available_indexes,
    build_index,
    default_n_lists,
    minibatch_kmeans,
    topk_best_first,
)
from repro.models import ModelConfig, build_model
from repro.serving import EmbeddingStore, Recommender, ServingConfig
from repro.text import encode_items


@pytest.fixture(scope="module")
def clustered_vectors():
    """Well-separated clusters: ANN retrieval should be near-exact on these."""
    rng = np.random.default_rng(5)
    centers = rng.standard_normal((12, 16)) * 4.0
    labels = rng.integers(0, 12, 600)
    vectors = centers[labels] + 0.3 * rng.standard_normal((600, 16))
    queries = centers[rng.integers(0, 12, 20)] + 0.3 * rng.standard_normal((20, 16))
    return vectors.astype(np.float32), queries.astype(np.float32)


@pytest.fixture(scope="module")
def serving_setup():
    dataset = load_dataset("arts", scale="tiny", seed=3,
                           num_users=150, num_items=90, min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)
    config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                         dropout=0.1, max_seq_length=12, seed=0)
    model = build_model("whitenrec", dataset.num_items,
                        feature_table=features, config=config)
    return dataset, split, features, model


class TestKMeans:
    def test_k_greater_than_n_points_is_clamped(self):
        points = np.arange(8.0).reshape(4, 2)
        result = minibatch_kmeans(points, 10, seed=0)
        assert result.num_clusters == 4
        assert result.assignments.shape == (4,)
        # With one centroid available per point the clustering is perfect.
        assert result.inertia == pytest.approx(0.0, abs=1e-12)

    def test_duplicate_points_do_not_crash(self):
        points = np.ones((20, 3))
        result = minibatch_kmeans(points, 5, seed=0)
        assert np.all(np.isfinite(result.centroids))
        assert result.inertia == pytest.approx(0.0, abs=1e-12)
        # Every point collapses onto one centroid; the surplus clusters
        # cannot be filled no matter where re-seeding puts them.
        assert len(np.unique(result.assignments)) == 1

    def test_empty_cluster_reseeding_fills_all_clusters(self):
        # Two tight, far-apart blobs with k=6: k-means++ may seed several
        # centroids inside one blob, leaving empties after convergence
        # unless re-seeding intervenes.
        rng = np.random.default_rng(0)
        blob_a = rng.standard_normal((60, 2)) * 0.05
        blob_b = rng.standard_normal((60, 2)) * 0.05 + 50.0
        points = np.concatenate([blob_a, blob_b])
        result = minibatch_kmeans(points, 6, seed=1)
        occupancy = np.bincount(result.assignments, minlength=6)
        assert np.all(occupancy > 0)

    def test_deterministic_under_fixed_seed(self):
        rng = np.random.default_rng(3)
        points = rng.standard_normal((200, 4))
        first = minibatch_kmeans(points, 8, seed=11)
        second = minibatch_kmeans(points, 8, seed=11)
        assert np.array_equal(first.centroids, second.centroids)
        assert np.array_equal(first.assignments, second.assignments)
        assert first.n_reseeds == second.n_reseeds
        different = minibatch_kmeans(points, 8, seed=12)
        assert not np.allclose(first.centroids, different.centroids)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            minibatch_kmeans(np.zeros((0, 3)), 2)
        with pytest.raises(ValueError):
            minibatch_kmeans(np.zeros((4, 3)), 0)
        with pytest.raises(ValueError):
            minibatch_kmeans(np.zeros(5), 2)


class TestTopKBestFirst:
    def test_orders_by_score_then_id(self):
        ids = np.array([[7, 3, 5, 9]])
        scores = np.array([[1.0, 2.0, 2.0, -np.inf]])
        top_ids, top_scores = topk_best_first(ids, scores, 3)
        assert top_ids.tolist() == [[3, 5, 7]]
        assert top_scores.tolist() == [[2.0, 2.0, 1.0]]

    def test_padding_sorts_last(self):
        ids = np.array([[4, -1, -1]])
        scores = np.array([[0.5, -np.inf, -np.inf]])
        top_ids, _ = topk_best_first(ids, scores, 2)
        assert top_ids.tolist() == [[4, -1]]


class TestFlatIndex:
    def test_matches_brute_force(self, clustered_vectors):
        vectors, queries = clustered_vectors
        index = FlatIndex().build(vectors, ids=np.arange(1, 601))
        ids, scores = index.search(queries, 7)
        reference = np.argsort(-(queries @ vectors.T), axis=1, kind="stable")[:, :7] + 1
        assert np.array_equal(ids, reference)
        assert np.all(np.diff(scores, axis=1) <= 1e-6)
        assert np.all(index.last_scan_counts == 600)

    def test_l2_metric(self):
        vectors = np.array([[0.0, 0.0], [10.0, 0.0], [0.0, 1.0]])
        index = FlatIndex(metric="l2").build(vectors)
        ids, scores = index.search(np.array([[0.0, 0.1]]), 2)
        assert ids.tolist() == [[0, 2]]
        assert scores[0, 0] == pytest.approx(-0.01)

    def test_k_clamped_to_index_size(self, clustered_vectors):
        vectors, queries = clustered_vectors
        index = FlatIndex().build(vectors[:5])
        ids, _ = index.search(queries, 50)
        assert ids.shape == (20, 5)


class TestIVFFlatIndex:
    def test_full_probe_equals_flat(self, clustered_vectors):
        vectors, queries = clustered_vectors
        flat = FlatIndex().build(vectors, ids=np.arange(1, 601))
        ivf = IVFFlatIndex(n_lists=12, seed=0).build(vectors, ids=np.arange(1, 601))
        flat_ids, flat_scores = flat.search(queries, 9)
        ivf_ids, ivf_scores = ivf.search(queries, 9, nprobe=12)
        assert np.array_equal(flat_ids, ivf_ids)
        assert np.allclose(flat_scores, ivf_scores)

    def test_partial_probe_scans_fraction_with_high_recall(self, clustered_vectors):
        vectors, queries = clustered_vectors
        flat = FlatIndex().build(vectors)
        ivf = IVFFlatIndex(n_lists=12, seed=0).build(vectors)
        flat_ids, _ = flat.search(queries, 5)
        ivf_ids, _ = ivf.search(queries, 5, nprobe=3)
        assert np.all(ivf.last_scan_counts < 600)
        recall = np.mean([len(set(a) & set(b)) / 5
                          for a, b in zip(ivf_ids.tolist(), flat_ids.tolist())])
        assert recall >= 0.9

    def test_default_heuristics(self, clustered_vectors):
        vectors, _ = clustered_vectors
        ivf = IVFFlatIndex(seed=0).build(vectors)
        assert ivf.num_lists == default_n_lists(600) == 24
        assert 1 <= ivf.nprobe <= ivf.num_lists
        assert int(ivf.list_sizes.sum()) == len(ivf) == 600

    def test_add_routes_to_nearest_list(self, clustered_vectors):
        vectors, _ = clustered_vectors
        ivf = IVFFlatIndex(n_lists=12, seed=0).build(vectors)
        new = vectors[:4] * 100.0  # dominate every inner product
        new_ids = ivf.add(new, ids=np.array([901, 902, 903, 904]))
        assert new_ids.tolist() == [901, 902, 903, 904]
        assert len(ivf) == 604
        # The scaled vectors dominate every inner product, so each query's
        # best hit is one of them (which one can differ within a cluster).
        ids, _ = ivf.search(new, 1, nprobe=12)
        assert set(ids.ravel().tolist()) <= {901, 902, 903, 904}

    def test_add_without_ids_continues_sequence(self, clustered_vectors):
        vectors, _ = clustered_vectors
        ivf = IVFFlatIndex(n_lists=4, seed=0).build(vectors[:10],
                                                    ids=np.arange(1, 11))
        assigned = ivf.add(vectors[10:12])
        assert assigned.tolist() == [11, 12]

    def test_rejects_bad_inputs(self, clustered_vectors):
        vectors, queries = clustered_vectors
        ivf = IVFFlatIndex(n_lists=4, seed=0)
        with pytest.raises(RuntimeError):
            ivf.search(queries, 5)
        ivf.build(vectors)
        with pytest.raises(ValueError):
            ivf.add(np.zeros((2, 99)))
        with pytest.raises(ValueError):
            ivf.build(vectors, ids=np.arange(10))
        with pytest.raises(ValueError):
            IVFFlatIndex(metric="cosine")


class TestPersistence:
    @pytest.mark.parametrize("kind,params", [
        ("flat", {}),
        ("ivf", {"n_lists": 8, "seed": 0}),
    ])
    def test_round_trip_preserves_search(self, tmp_path, clustered_vectors,
                                         kind, params):
        vectors, queries = clustered_vectors
        index = build_index(kind, **params).build(vectors, ids=np.arange(1, 601))
        path = index.save(tmp_path / f"{kind}_index")
        assert path.suffix == ".npz"
        restored = ItemIndex.load(path)
        assert type(restored) is type(index)
        original_ids, original_scores = index.search(queries, 6)
        restored_ids, restored_scores = restored.search(queries, 6)
        assert np.array_equal(original_ids, restored_ids)
        assert np.allclose(original_scores, restored_scores)

    def test_typed_load_rejects_other_kind(self, tmp_path, clustered_vectors):
        vectors, _ = clustered_vectors
        path = FlatIndex().build(vectors).save(tmp_path / "flat")
        assert isinstance(FlatIndex.load(path), FlatIndex)
        with pytest.raises(ValueError):
            IVFFlatIndex.load(path)

    def test_rejects_foreign_npz(self, tmp_path):
        foreign = tmp_path / "foreign.npz"
        np.savez(foreign, data=np.arange(3))
        with pytest.raises(ValueError):
            ItemIndex.load(foreign)

    def test_registry(self):
        assert set(available_indexes()) == {"flat", "ivf"}
        with pytest.raises(KeyError):
            build_index("annoy")
        assert isinstance(ItemIndex.load, object)


class TestServingBackends:
    def _recommender(self, serving_setup, backend="exact", **kwargs):
        _, split, features, model = serving_setup
        return Recommender(model, store=EmbeddingStore(features),
                           train_sequences=split.train_sequences,
                           config=ServingConfig(score_dtype="float64",
                                                backend=backend),
                           **kwargs)

    @staticmethod
    def _config(**overrides):
        """Per-call config matching the float64 test recommenders."""
        return ServingConfig(score_dtype="float64", **overrides)

    def test_full_probe_ivf_matches_exact(self, serving_setup):
        _, split, _, _ = serving_setup
        recommender = self._recommender(
            serving_setup, index_params={"n_lists": 8, "nprobe": 8})
        histories = [case.history for case in split.test[:24]]
        exact = recommender.topk(histories, k=5)
        approx = recommender.topk(histories, config=self._config(k=5, backend="ivf"))
        assert np.array_equal(exact.items, approx.items)
        assert np.allclose(exact.scores, approx.scores)
        assert np.array_equal(exact.cold, approx.cold)

    def test_seen_items_never_recommended(self, serving_setup):
        _, split, _, _ = serving_setup
        recommender = self._recommender(
            serving_setup, index_params={"n_lists": 8, "nprobe": 4})
        histories = [case.history for case in split.test[:16]]
        result = recommender.topk(histories, config=self._config(k=10, backend="ivf"))
        for row, history in enumerate(histories):
            assert not set(result.items[row].tolist()) & set(history)

    def test_cold_rows_fall_back(self, serving_setup):
        recommender = self._recommender(
            serving_setup, index_params={"n_lists": 8})
        result = recommender.topk([[], [999_999], [1, 2, 3]],
                                  config=self._config(k=5, backend="ivf"))
        assert result.cold.tolist() == [True, True, False]
        assert np.all(result.items[:2] >= 1)

    def test_constructor_backend_becomes_default(self, serving_setup):
        recommender = self._recommender(
            serving_setup, backend="ivf",
            index_params={"n_lists": 8, "nprobe": 8})
        _, split, _, _ = serving_setup
        histories = [case.history for case in split.test[:6]]
        default_result = recommender.topk(histories, k=5)
        explicit = recommender.topk(histories, config=self._config(k=5, backend="ivf"))
        assert np.array_equal(default_result.items, explicit.items)

    def test_index_cached_and_refreshed(self, serving_setup):
        recommender = self._recommender(
            serving_setup, index_params={"n_lists": 8})
        first = recommender.item_index("ivf")
        assert recommender.item_index("ivf") is first
        recommender.refresh_item_matrix()
        assert recommender.item_index("ivf") is not first

    def test_invalid_backend_rejected(self, serving_setup):
        recommender = self._recommender(serving_setup)
        with pytest.raises(ValueError):
            ServingConfig(backend="faiss")
        with pytest.raises(ValueError):
            recommender.item_index("exact")
        with pytest.raises(ValueError):
            self._recommender(serving_setup, backend="faiss")


class TestIndexCLI:
    def test_index_build_writes_npz(self, tmp_path, capsys):
        output = tmp_path / "arts_index"
        exit_code = cli_main([
            "index", "build", "arts", "--kind", "ivf", "--lists", "8",
            "--nprobe", "8", "--queries", "8", "--output", str(output),
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "recall@10 vs exact" in captured.out
        restored = ItemIndex.load(output.with_suffix(".npz"))
        assert isinstance(restored, IVFFlatIndex)
        assert len(restored) == 400

    def test_flat_index_over_whitened_rows_returns_catalogue_ids(
            self, tmp_path, capsys):
        output = tmp_path / "arts_flat"
        assert cli_main(["index", "build", "arts", "--kind", "flat",
                         "--queries", "4", "--output", str(output)]) == 0
        capsys.readouterr()
        dataset = load_dataset("arts", scale="tiny", seed=7)
        features = encode_items(dataset.items, embedding_dim=32, seed=7)
        whitened = EmbeddingStore(features).whitened("zca", 1)
        index = ItemIndex.load(output.with_suffix(".npz"))
        assert len(index) == dataset.num_items
        ids, _ = index.search(whitened[1:4], 1)
        assert ids.ravel().tolist() == [1, 2, 3]

    def test_index_build_from_checkpoint(self, tmp_path, capsys, serving_setup):
        from repro.models.checkpoint import save_checkpoint

        dataset = load_dataset("arts", scale="tiny", seed=7)
        features = encode_items(dataset.items, embedding_dim=32, seed=7)
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             max_seq_length=20, seed=7)
        model = build_model("whitenrec", dataset.num_items,
                            feature_table=features, config=config)
        checkpoint = save_checkpoint(model, tmp_path / "model",
                                     feature_table=features)
        exit_code = cli_main([
            "index", "build", "arts", "--kind", "flat",
            "--checkpoint", str(checkpoint), "--queries", "4",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "item matrix" in captured.out
