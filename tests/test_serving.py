"""Tests for the batched serving layer (`repro.serving`).

Covers: top-K correctness against a brute-force full-sort reference,
seen-item masking, the cold-start fallback paths, fit-once caching of the
whitening transforms, the no-grad inference mode, checkpoint round trips,
the `serve` CLI command, and the one retrieval pipeline behind
`Recommender.topk` over every structural config cell
(`TestRetrievalPipeline`).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.index import IVFFlatIndex, build_index
from repro.models import ModelConfig, SASRecID, build_model
from repro.models.checkpoint import (
    load_checkpoint,
    load_model,
    save_checkpoint,
)
from repro.nn import Tensor, autocast, is_grad_enabled, no_grad
from repro.resilience import FaultAction, FaultPlan
from repro.service import Deployment
from repro.serving import (
    STRUCTURAL_FIELDS,
    EmbeddingStore,
    Recommender,
    ServingConfig,
    full_sort_topk,
    measure_throughput,
)
from repro.text import encode_items
from repro.whitening import build_whitening

from oracles import per_sequence_topk


def _untrained_setup(num_users, num_items):
    """An untrained (but deterministic) model + features + split."""
    dataset = load_dataset("arts", scale="tiny", seed=3, num_users=num_users,
                           num_items=num_items, min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)
    config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                         dropout=0.1, max_seq_length=12, seed=0)
    model = build_model("whitenrec", dataset.num_items,
                        feature_table=features, config=config)
    return dataset, split, features, model


@pytest.fixture(scope="module")
def serving_setup():
    """A small catalogue: one scoring block, every path's cheap fixture."""
    return _untrained_setup(num_users=150, num_items=90)


def _brute_force_topk(scores: np.ndarray, k: int) -> np.ndarray:
    """Independent reference: full argsort with smaller-id tie-breaking."""
    ids = np.broadcast_to(np.arange(scores.shape[1]), scores.shape)
    return np.lexsort((ids, -scores), axis=1)[:, :k]


class TestEmbeddingStore:
    def test_whitened_is_cached_and_fitted_once(self, serving_setup):
        _, _, features, _ = serving_setup
        store = EmbeddingStore(features)
        first = store.whitened("zca", 1)
        second = store.whitened("zca", 1)
        assert first is second
        assert store.num_fits == 1
        assert store.transform("zca", 1).fit_count == 1

    def test_specs_cached_independently(self, serving_setup):
        _, _, features, _ = serving_setup
        store = EmbeddingStore(features)
        zca = store.whitened("zca", 1)
        grouped = store.whitened("zca", 4)
        raw = store.whitened("raw", None)
        assert not np.allclose(zca, grouped)
        assert np.allclose(raw[1:], features[1:])
        assert store.num_fits == 3

    def test_matches_training_time_whitening(self, serving_setup):
        """The served table must equal what the model trained against."""
        _, _, features, model = serving_setup
        store = EmbeddingStore(features)
        np.testing.assert_array_equal(store.whitened("zca", 1, eps=1e-5),
                                      model.features.all_embeddings().data)

    def test_padding_row_stays_zero(self, serving_setup):
        _, _, features, _ = serving_setup
        store = EmbeddingStore(features)
        assert np.all(store.whitened("zca", 1)[0] == 0.0)

    def test_tables_are_read_only(self, serving_setup):
        _, _, features, _ = serving_setup
        store = EmbeddingStore(features)
        table = store.whitened("zca", 1)
        with pytest.raises(ValueError):
            table[1, 0] = 123.0

    def test_encode_new_items_does_not_refit(self, serving_setup):
        _, _, features, _ = serving_setup
        store = EmbeddingStore(features)
        store.whitened("zca", 1)
        fits_before = store.num_fits
        rng = np.random.default_rng(0)
        new_items = rng.standard_normal((5, store.feature_dim))
        projected = store.encode_new_items(new_items, "zca", 1)
        assert projected.shape == (5, store.feature_dim)
        assert store.num_fits == fits_before
        assert np.allclose(projected, store.transform("zca", 1).transform(new_items))


class TestTopKCorrectness:
    def test_topk_matches_brute_force_full_sort(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        histories = [case.history for case in split.test[:40]]
        for k in (1, 5, 20):
            result = recommender.topk(histories, k=k)
            scores, _ = recommender.score(histories)
            assert np.array_equal(result.items, _brute_force_topk(scores, k))
            # The packaged reference must agree with the independent one.
            ref_items, ref_scores = full_sort_topk(scores, k)
            assert np.array_equal(result.items, ref_items)
            assert np.allclose(result.scores, ref_scores)

    def test_scores_sorted_descending(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        result = recommender.topk([case.history for case in split.test[:10]], k=15)
        assert np.all(np.diff(result.scores, axis=1) <= 0)

    def test_matches_evaluation_loop_scoring(self, serving_setup):
        """Batched float64 serving ranks exactly like per-sequence evaluation."""
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  config=ServingConfig(score_dtype="float64"))
        histories = [case.history for case in split.test[:16]]
        batched = recommender.topk(histories, config=ServingConfig(
            k=10, exclude_seen=False, score_dtype="float64"))
        reference = per_sequence_topk(model, histories, k=10)
        for row in range(len(histories)):
            assert np.array_equal(batched.items[row], reference[row])

    def test_k_clamped_to_catalogue(self, serving_setup):
        dataset, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        result = recommender.topk([split.test[0].history], k=10_000)
        assert result.items.shape == (1, dataset.num_items)

    def test_invalid_k_rejected(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model)
        with pytest.raises(ValueError):
            recommender.topk([split.test[0].history], k=0)


class TestServingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ServingConfig(k=0)
        with pytest.raises(ValueError):
            ServingConfig(backend="faiss")
        with pytest.raises(ValueError):
            ServingConfig(score_dtype="not-a-dtype")

    def test_architecture_ledger_matches_the_dataclass(self):
        """The knob -> metric table in docs/ARCHITECTURE.md cannot drift
        from the dataclass: one row per field, in order, and every row
        names the metric or test that justifies the field."""
        document = (Path(__file__).resolve().parents[1] / "docs"
                    / "ARCHITECTURE.md").read_text(encoding="utf-8")
        lines = document.splitlines()
        start = lines.index(
            "| `ServingConfig` field | kind | tracked metric that justifies it |")
        rows = []
        for line in lines[start + 2:]:  # skip the header and its |---| rule
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        assert [row[0].strip("`") for row in rows] == [
            field.name for field in dataclasses.fields(ServingConfig)]
        for name, kind, justification in rows:
            expected = ("structural" if name.strip("`") in STRUCTURAL_FIELDS
                        else "per call")
            assert kind == expected, name
            assert "`" in justification, f"{name} names no metric or test"
            assert "none tracked" not in justification, name

    def test_dtype_normalised_and_roundtrips(self):
        config = ServingConfig(score_dtype=np.float64)
        assert config.score_dtype == "float64"
        assert config.np_dtype == np.dtype("float64")
        assert ServingConfig.from_dict(config.to_dict()) == config

    def test_with_overrides_ignores_none(self):
        config = ServingConfig(k=7, backend="ivf")
        assert config.with_overrides(k=None, backend=None) is config
        assert config.with_overrides(k=3).k == 3
        with pytest.raises(ValueError):
            config.with_overrides(knn=5)

    def test_recommender_consumes_config(self, serving_setup):
        _, split, features, model = serving_setup
        config = ServingConfig(k=4, score_dtype="float64")
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  config=config)
        assert recommender.dtype == np.dtype("float64")
        result = recommender.topk([case.history for case in split.test[:3]])
        assert result.items.shape == (3, 4)  # config.k is the default cut-off

    def test_k_composes_with_config(self, serving_setup):
        """k is the per-call knob: it merges into an explicit config instead
        of forcing the caller to rebuild one."""
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        result = recommender.topk([split.test[0].history], k=3,
                                  config=ServingConfig(k=10))
        assert result.items.shape == (1, 3)

    def test_per_call_dtype_change_rejected(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        with pytest.raises(ValueError, match="score_dtype"):
            recommender.topk([split.test[0].history],
                             config=ServingConfig(score_dtype="float64"))

    def test_batch_composition_independence(self, serving_setup):
        """A request's float32 scores must not depend on its batchmates.

        This is the contract dynamic micro-batching relies on: tiny scoring
        batches are padded onto the same GEMM kernel family as larger ones
        (see repro.nn.functional.pad_scoring_rows), so a request
        served alone is bit-identical — ids *and* scores — to the same
        request inside any coalesced batch.
        """
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        histories = [case.history for case in split.test[:12]] + [[]]
        batched = recommender.topk(histories, k=8)
        for row, history in enumerate(histories):
            alone = recommender.topk([history], k=8)
            assert np.array_equal(alone.items[0], batched.items[row])
            assert np.array_equal(alone.scores[0], batched.scores[row])


class TestSeenItemMasking:
    def test_history_items_never_recommended(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        histories = [case.history for case in split.test[:30]]
        result = recommender.topk(histories, k=10)
        for row, history in enumerate(histories):
            assert not set(history) & set(result.items[row].tolist())

    def test_padding_item_never_recommended(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        result = recommender.topk([case.history for case in split.test[:30]], k=10)
        assert not np.any(result.items == 0)

    def test_exclude_seen_can_be_disabled(self, serving_setup):
        dataset, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        history = split.test[0].history
        scores, _ = recommender.score([history], exclude_seen=False)
        assert np.all(np.isfinite(scores[0, history]))


class TestColdStartFallback:
    def test_empty_history_uses_fallback(self, serving_setup):
        _, _, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        result = recommender.topk([[]], k=5)
        assert result.cold[0]
        assert np.all(result.items[0] > 0)

    def test_out_of_catalogue_ids_use_fallback(self, serving_setup):
        dataset, _, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        result = recommender.topk([[dataset.num_items + 50, 0, -3]], k=5)
        assert result.cold[0]

    def test_cold_items_route_to_content_scoring(self, serving_setup):
        """A history made entirely of declared-cold items uses the whitened
        text embeddings, and the scores match a manual reconstruction."""
        dataset, _, features, model = serving_setup
        store = EmbeddingStore(features)
        history = [3, 7]
        recommender = Recommender(model, store=store, cold_items=history)
        scores, cold = recommender.score([history], exclude_seen=False)
        assert cold[0]
        table = store.whitened("zca", 1)[: dataset.num_items + 1].astype(np.float32)
        expected = table @ table[history].mean(axis=0)
        # Column 0 is masked after the fallback computes raw scores.
        assert np.allclose(scores[0, 1:], expected[1:], rtol=1e-5)

    def test_warm_items_keep_transformer_path(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  cold_items=[3])
        result = recommender.topk([split.test[0].history], k=5)
        assert not result.cold[0]

    def test_popularity_fallback_without_store(self, serving_setup):
        _, split, _, model = serving_setup
        recommender = Recommender(model, train_sequences=split.train_sequences)
        counts = np.zeros(model.num_items + 1)
        for sequence in split.train_sequences.values():
            for item in sequence:
                counts[item] += 1
        result = recommender.topk([[]], k=1)
        assert result.cold[0]
        assert result.items[0, 0] == int(np.argmax(counts))


class TestCacheReuse:
    def test_item_matrix_computed_once(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        histories = [case.history for case in split.test[:4]]
        recommender.topk(histories, k=3)
        recommender.topk(histories, k=3)
        assert recommender.build_counts()["matrix"] == 1

    def test_refresh_drops_cache(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        first = recommender.item_matrix()
        recommender.refresh_item_matrix()
        second = recommender.item_matrix()
        assert first is not second
        assert np.allclose(first, second)

    def test_store_shared_across_recommenders(self, serving_setup):
        _, _, features, model = serving_setup
        store = EmbeddingStore(features)
        for _ in range(3):
            Recommender(model, store=store).topk([[]], k=2)
        assert store.num_fits == 1

    def test_cast_cache_invalidated_per_generation(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        histories = [case.history for case in split.test[:2]]
        recommender.topk(histories, k=3)
        recommender.topk(histories, k=3)
        assert recommender.build_counts()["cast"] == 1
        recommender.refresh_item_matrix()
        recommender.topk(histories, k=3)
        assert recommender.build_counts()["cast"] == 2
        assert recommender.generation_clock.value == 1

    def test_cold_fallback_table_cast_memoised(self, serving_setup):
        """The whitened fallback table is cast to scoring precision once,
        not per cold request."""
        _, _, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        cold_history = [[model.num_items + 40]]
        recommender.topk(cold_history, k=3)
        table_first = recommender._fallback_table()
        recommender.topk(cold_history, k=3)
        assert recommender._fallback_table() is table_first


#: the models a deployment's store may adopt a whitening from, or not:
#: ``(family, build precision)``
_FALLBACK_MODELS = [("whitenrec", "float64"), ("whitenrec", "float32"),
                    ("whitenrec_plus", "float64"), ("sasrec_t", "float64")]
#: declared-cold items: histories of them take the content fallback
_COLD_HISTORIES = [[3, 7], [11], [7, 11, 3]]


def _fresh_fit_fallback_topk(features, histories, k, dtype):
    """The cold fallback rebuilt from a whitening fitted here: ZCA on the
    item rows, the padded table in float64 cast to ``dtype``, each row
    scored against the mean of its history's rows, history and padding
    masked."""
    transform = build_whitening("zca", 1, 1e-5)
    transform.fit(np.asarray(features, dtype=np.float64)[1:])
    table = transform.transform_padded(features).astype(dtype)
    scores = np.zeros((len(histories), table.shape[0]), dtype=dtype)
    for row, history in enumerate(histories):
        scores[row] = table @ table[history].mean(axis=0)
        scores[row, [0] + history] = -np.inf
    return full_sort_topk(scores, k)


class TestOneWhiteningFit:
    """A deployment's store adopts the whitenings its model fitted: the
    cold fallback serves the model's own transform, unchanged bytes."""

    @staticmethod
    def _deployment(serving_setup, family, precision, score_dtype="float32"):
        dataset, _, features, _ = serving_setup
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             max_seq_length=12, seed=0)
        with autocast(precision):
            model = build_model(family, dataset.num_items,
                                feature_table=features, config=config)
        store = EmbeddingStore(features)
        recommender = Recommender(
            model, store=store, cold_items=[3, 7, 11],
            config=ServingConfig(score_dtype=score_dtype))
        return model, store, recommender

    @pytest.mark.parametrize("score_dtype", ["float32", "float64"])
    @pytest.mark.parametrize("family,precision", _FALLBACK_MODELS)
    def test_cold_fallback_matches_a_fresh_fit(self, serving_setup, family,
                                               precision, score_dtype):
        _, _, features, _ = serving_setup
        _, _, recommender = self._deployment(serving_setup, family,
                                             precision, score_dtype)
        result = recommender.topk(_COLD_HISTORIES, k=10)
        assert result.cold.all()
        ids, scores = _fresh_fit_fallback_topk(features, _COLD_HISTORIES, 10,
                                               np.dtype(score_dtype))
        np.testing.assert_array_equal(result.items, ids)
        np.testing.assert_array_equal(result.scores, scores)

    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_a_cold_request_fits_nothing(self, serving_setup, precision):
        model, store, recommender = self._deployment(
            serving_setup, "whitenrec", precision)
        fits = store.num_fits
        recommender.topk(_COLD_HISTORIES, k=5)
        assert store.transform("zca", 1) is model.whitening
        assert model.whitening.fit_count == 1
        assert store.num_fits == fits == 1
        if precision == "float64":  # the model's own table, not a copy
            assert (store.whitened("zca", 1)
                    is model.features.all_embeddings().data)

    def test_construction_builds_nothing(self, serving_setup):
        _, _, recommender = self._deployment(serving_setup, "whitenrec",
                                             "float64")
        assert recommender.build_counts() == {}

    def test_a_larger_store_fits_its_own(self, serving_setup):
        """Only a store over the model's own padded table adopts."""
        _, _, features, model = serving_setup
        store = EmbeddingStore(np.vstack([features, features[-2:]]))
        Recommender(model, store=store)
        assert store.num_fits == 0
        assert store.transform("zca", 1) is not model.whitening


#: IVF settings of the generational-memo tests: every list probed, so a
#: fresh index and the cached one must agree exactly
_MEMO_INDEX = {"n_lists": 4, "nprobe": 4}


@pytest.fixture()
def held_index_build(monkeypatch):
    """Hold the first IVF index build until the test sets ``release``;
    ``builds`` lists every index a build was started for."""
    entered, release = threading.Event(), threading.Event()
    builds = []
    build = IVFFlatIndex.build

    def held(index, vectors, ids=None):
        builds.append(index)
        if len(builds) == 1:
            entered.set()
            assert release.wait(30)
        return build(index, vectors, ids)

    monkeypatch.setattr(IVFFlatIndex, "build", held)
    return SimpleNamespace(entered=entered, release=release, builds=builds)


class TestGenerationalMemo:
    """Every cache derived from the model is an entry of the one
    generational memo: built once, and never stale after an advance."""

    def test_refresh_mid_index_build_does_not_cache_the_stale_index(
            self, serving_setup, held_index_build):
        dataset, _, features, _ = serving_setup
        model = build_model("whitenrec", dataset.num_items,
                            feature_table=features,
                            config=ModelConfig(hidden_dim=16, num_layers=1,
                                               num_heads=2, max_seq_length=12,
                                               seed=0))
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  index_params=_MEMO_INDEX)
        worker = threading.Thread(target=recommender.item_index,
                                  args=("ivf",))
        worker.start()
        assert held_index_build.entered.wait(30)
        for parameter in model.parameters():  # fine-tune in place...
            parameter.data += 0.05
        recommender.refresh_item_matrix()  # ...and refresh mid-build
        held_index_build.release.set()
        worker.join(30)

        cached = recommender.item_index("ivf")
        assert cached is not held_index_build.builds[0]
        fresh = build_index("ivf", **_MEMO_INDEX).build(
            recommender.item_matrix()[1:],
            ids=np.arange(1, recommender.num_items + 1, dtype=np.int64))
        queries = recommender.item_matrix()[1:6]
        for got, want in zip(cached.search(queries, 10),
                             fresh.search(queries, 10)):
            assert np.array_equal(got, want)

    @pytest.mark.timeout(60)
    def test_advance_while_building_the_shard_client_does_not_deadlock(
            self, serving_setup):
        _, split, features, model = serving_setup
        config = ServingConfig(k=5, shards=2, shard_backend="local")
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  config=config)
        item_matrix = recommender.item_matrix

        def advance_then_read():
            # the first read of the matrix lands an advance mid-build
            if recommender.generation_clock.value == 0:
                recommender.generation_clock.advance()
            return item_matrix()

        recommender.item_matrix = advance_then_read
        built = []
        worker = threading.Thread(
            target=lambda: built.append(recommender.shard_client()),
            daemon=True)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive(), "shard_client() blocked on itself"
        try:
            # the straddling client is its caller's alone, never memoised
            assert recommender.shard_stats() is None
            recommender.close()
            histories = [case.history for case in split.test[:4]]
            dense = Recommender(model, store=EmbeddingStore(features))
            assert np.array_equal(recommender.topk(histories).items,
                                  dense.topk(histories, k=5).items)
            assert recommender.shard_client() is not built[0]
        finally:
            built[0].close()
            recommender.close()

    def test_concurrent_first_requests_build_each_entry_once(
            self, serving_setup, held_index_build):
        _, split, features, model = serving_setup
        config = ServingConfig(k=5, backend="ivf")
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  index_params=_MEMO_INDEX, config=config)
        histories = [case.history for case in split.test[:8]]
        served = {}

        def serve(row):
            served[row] = recommender.topk([histories[row]]).items[0]

        callers = [threading.Thread(target=serve, args=(row,))
                   for row in range(len(histories))]
        for caller in callers:
            caller.start()
        assert held_index_build.entered.wait(30)
        time.sleep(0.5)  # the other seven callers reach the index meanwhile
        held_index_build.release.set()
        for caller in callers:
            caller.join(30)

        assert len(held_index_build.builds) == 1
        counts = recommender.build_counts()
        assert {key: counts.get(key) for key in
                ("matrix", "cast", "engine", "index:ivf")} == {
            "matrix": 1, "cast": 1, "engine": 1, "index:ivf": 1}
        expected = recommender.topk(histories).items
        assert all(np.array_equal(served[row], expected[row])
                   for row in range(len(histories)))


class TestInferenceMode:
    def test_no_grad_disables_graph_recording(self):
        param = Tensor(np.ones((2, 2)), requires_grad=True)
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
            out = (param * 2.0).sum()
            assert not out.requires_grad
        assert is_grad_enabled()
        tracked = (param * 2.0).sum()
        assert tracked.requires_grad

    def test_astype_detaches_and_casts(self):
        param = Tensor(np.ones(3), requires_grad=True)
        cast = param.astype(np.float32)
        assert cast.dtype == np.float32
        assert not cast.requires_grad

    def test_encode_sequences_returns_numpy(self, serving_setup):
        _, split, _, model = serving_setup
        from repro.data import pad_sequences

        item_ids, lengths = pad_sequences(
            [split.test[0].history[-model.max_seq_length:]], model.max_seq_length
        )
        users = model.encode_sequences(item_ids, lengths)
        assert isinstance(users, np.ndarray)
        assert users.shape == (1, model.hidden_dim)

    def test_item_scores_masks_padding(self, serving_setup):
        _, split, _, model = serving_setup
        from repro.data import pad_sequences

        item_ids, lengths = pad_sequences(
            [split.test[0].history[-model.max_seq_length:]], model.max_seq_length
        )
        scores = model.item_scores(item_ids, lengths)
        assert scores.dtype == np.float32
        assert scores[0, 0] == -np.inf


class TestCheckpoints:
    def test_round_trip_preserves_recommendations(self, serving_setup, tmp_path):
        _, split, features, model = serving_setup
        path = save_checkpoint(model, tmp_path / "model.npz", feature_table=features)
        histories = [case.history for case in split.test[:8]]
        direct = Recommender(model, store=EmbeddingStore(features)).topk(histories, k=5)
        served = Deployment.from_checkpoint(
            "model", path, train_sequences=split.train_sequences
        ).recommender.topk(histories, k=5)
        assert np.array_equal(direct.items, served.items)

    def test_checkpoint_metadata(self, serving_setup, tmp_path):
        _, _, features, model = serving_setup
        path = save_checkpoint(model, tmp_path / "meta", feature_table=features,
                               extra={"note": "unit-test"})
        checkpoint = load_checkpoint(path)
        assert checkpoint.metadata["model_name"] == "whitenrec"
        assert checkpoint.metadata["num_items"] == model.num_items
        assert checkpoint.metadata["extra"]["note"] == "unit-test"
        assert checkpoint.feature_table is not None
        summary = checkpoint.summary()
        assert summary["model_name"] == "whitenrec"
        assert summary["num_items"] == model.num_items
        assert summary["has_feature_table"] is True
        assert summary["num_parameters"] == len(checkpoint.state)

    def test_id_model_checkpoint_without_features(self, serving_setup, tmp_path):
        dataset, _, _, _ = serving_setup
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             max_seq_length=12, seed=0)
        model = SASRecID(dataset.num_items, config=config)
        path = save_checkpoint(model, tmp_path / "id_model")
        restored = load_model(path)
        assert np.allclose(restored.inference_item_matrix(),
                           model.inference_item_matrix())

    def test_rejects_foreign_npz(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(3))
        with pytest.raises(ValueError):
            load_checkpoint(path)


class TestThroughputHelpers:
    def test_measure_throughput_counts_repeats(self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        histories = [case.history for case in split.test[:8]]
        report = measure_throughput(lambda: recommender.topk(histories, k=5),
                                    num_sequences=len(histories), repeats=2)
        assert report.num_sequences == 8
        assert report.repeats == 2
        assert report.sequences_per_second > 0


class TestShardedServing:
    """`ServingConfig.shards` routes retrieval through `repro.shard` with
    bit-identical results to the historical single-scorer paths."""

    @pytest.fixture()
    def recommender(self, serving_setup):
        _, _, features, model = serving_setup
        built = Recommender(model, store=EmbeddingStore(features))
        yield built
        built.close()

    def test_config_validates_shard_fields(self):
        with pytest.raises(ValueError):
            ServingConfig(shards=0)
        with pytest.raises(ValueError):
            ServingConfig(shards=True)
        with pytest.raises(ValueError):
            ServingConfig(shard_backend="threads")
        config = ServingConfig(shards=3, shard_backend="local")
        assert config.to_dict()["shards"] == 3
        assert config.to_dict()["shard_backend"] == "local"

    @pytest.mark.timeout(180)
    @pytest.mark.parametrize("shards,shard_backend", [
        (1, "local"), (2, "local"), (3, "local"), (2, "process"),
    ])
    def test_sharded_exact_path_is_bit_identical(self, serving_setup,
                                                 shards, shard_backend):
        _, split, features, model = serving_setup
        histories = [case.history for case in split.test[:24]]
        # A history of novel ids forces the cold fallback path alongside.
        histories.append([5000, 5001])
        legacy = Recommender(model, store=EmbeddingStore(features))
        expected = legacy.topk(histories, k=10)
        sharded = Recommender(model, store=EmbeddingStore(features),
                              config=ServingConfig(
                                  shards=shards, shard_backend=shard_backend))
        try:
            result = sharded.topk(histories, k=10)
        finally:
            sharded.close()
        assert np.array_equal(expected.items, result.items)
        assert np.array_equal(expected.scores, result.scores)
        assert np.array_equal(expected.cold, result.cold)

    def test_shard_fields_are_structural(self, recommender, serving_setup):
        """Like score_dtype, shards cannot be overridden per call — the
        shard pool is part of the recommender's identity."""
        _, split, _, _ = serving_setup
        history = [split.test[0].history]
        with pytest.raises(ValueError):
            recommender.topk(history, config=ServingConfig(
                k=5, shards=4))
        with pytest.raises(ValueError):
            recommender.topk(history, config=ServingConfig(
                k=5, shard_backend="local"))

    def test_refresh_item_matrix_reshards(self, serving_setup):
        """Generation-stamp invalidation: after a refresh the shard client
        is rebuilt, and results still match the legacy path."""
        _, split, features, model = serving_setup
        histories = [case.history for case in split.test[:6]]
        legacy = Recommender(model, store=EmbeddingStore(features))
        sharded = Recommender(model, store=EmbeddingStore(features),
                              config=ServingConfig(shards=2,
                                                   shard_backend="local"))
        try:
            before = sharded.shard_client()
            assert np.array_equal(legacy.topk(histories, k=8).items,
                                  sharded.topk(histories, k=8).items)
            sharded.refresh_item_matrix()
            legacy.refresh_item_matrix()
            after = sharded.shard_client()
            assert after is not before
            assert np.array_equal(legacy.topk(histories, k=8).items,
                                  sharded.topk(histories, k=8).items)
        finally:
            sharded.close()

    def test_close_is_idempotent_and_recommender_stays_usable(
            self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features),
                                  config=ServingConfig(shards=2,
                                                       shard_backend="local"))
        first = recommender.topk([split.test[0].history], k=5)
        recommender.close()
        recommender.close()
        again = recommender.topk([split.test[0].history], k=5)
        assert np.array_equal(first.items, again.items)
        recommender.close()

    def test_cli_help_documents_sharding(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["serve", "--help"])
        help_text = capsys.readouterr().out
        assert "--shards" in help_text
        assert "--shard-backend" in help_text


# --------------------------------------------------------------------- #
# The one retrieval pipeline: every structural cell, one matrix
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def pipeline_setup():
    """A 2,300-item catalogue: three 1024-row scoring blocks, so ``shards=3``
    puts a different block on every shard (the 90-item fixture fits one
    block and would leave two of three shards empty)."""
    return _untrained_setup(num_users=300, num_items=2300)


def _pipeline_recommender(pipeline_setup, **structural):
    """One recommender per structural cell.  ``nprobe=1`` over 16 lists
    keeps the ANN candidate pool small, so a large ``k`` forces every warm
    row short of candidates and through the exact re-run."""
    _, split, features, model = pipeline_setup
    return Recommender(
        model, store=EmbeddingStore(features),
        train_sequences=split.train_sequences,
        index_params={"n_lists": 16, "nprobe": 1, "seed": 0},
        config=ServingConfig(**structural))


def _pipeline_batch(pipeline_setup, kind):
    dataset, split, _, _ = pipeline_setup
    warm = [case.history for case in split.test[:12]]
    beyond = dataset.num_items + 50
    cold = [[], [beyond, 0, -3]]
    mixed = warm[:5] + cold + [[warm[5][0], beyond, 0]] + warm[6:9]
    return {"warm": warm, "mixed": mixed, "cold": cold}[kind]


def _timed_topk(recommender, histories, **kwargs):
    started = time.perf_counter()
    result = recommender.topk(histories, **kwargs)
    return result, (time.perf_counter() - started) * 1000.0


def _assert_stages_partition_the_call(result, wall_ms):
    stages = (result.encode_ms, result.score_ms, result.merge_ms)
    assert all(stage >= 0.0 for stage in stages)
    # each stage is rounded to 3 decimals: half a microsecond of slack apiece
    assert sum(stages) <= wall_ms + 0.0015
    if result.cold.all():
        assert result.encode_ms == 0.0
    else:
        assert result.encode_ms > 0.0


class TestRetrievalPipeline:
    """`Recommender.topk` is one pipeline — classify, encode once, candidate
    source, short-row exact re-run, cold rows, assemble — whatever the
    structural config picks as the source."""

    K = 10
    SHORT_K = 1000  # beyond any nprobe=1 candidate pool: all warm rows short

    @pytest.fixture(scope="class")
    def recommenders(self, pipeline_setup):
        built = {}

        def get(codec, shards):
            if (codec, shards) not in built:
                built[codec, shards] = _pipeline_recommender(
                    pipeline_setup, catalogue_codec=codec, shards=shards,
                    shard_backend="local")
            return built[codec, shards]

        yield get
        for recommender in built.values():
            recommender.close()

    @pytest.mark.parametrize("exclude_seen", [True, False],
                             ids=["unseen", "seen-allowed"])
    @pytest.mark.parametrize("batch", ["warm", "mixed", "cold"])
    @pytest.mark.parametrize("shards", [1, 3])
    @pytest.mark.parametrize("codec", ["fp32", "int8"])
    @pytest.mark.parametrize("backend", ["exact", "ivf"])
    def test_every_cell(self, pipeline_setup, recommenders, backend, codec,
                        shards, batch, exclude_seen):
        dataset = pipeline_setup[0]
        recommender = recommenders(codec, shards)
        histories = _pipeline_batch(pipeline_setup, batch)
        config = recommender.config.with_overrides(
            k=self.K, backend=backend, exclude_seen=exclude_seen)
        result, wall_ms = _timed_topk(recommender, histories, config=config)
        _assert_stages_partition_the_call(result, wall_ms)

        # The reference: full sort of the dense scores `score()` exposes.
        reference, cold = recommender.score(histories,
                                            exclude_seen=exclude_seen)
        want_ids, want_scores = full_sort_topk(reference, self.K)
        assert np.array_equal(result.cold, cold)
        assert result.items.shape == (len(histories), self.K)
        assert not result.degraded and result.shard_retries == 0

        # Exact cells, and the cold rows of every cell: ids AND score bits.
        exact_rows = (np.arange(len(histories)) if backend == "exact"
                      else np.flatnonzero(cold))
        assert np.array_equal(result.items[exact_rows], want_ids[exact_rows])
        assert np.array_equal(result.scores[exact_rows],
                              want_scores[exact_rows])
        if backend == "exact":
            return

        # ANN cells: k real items per row, best first, none seen.
        assert (result.items >= 1).all()
        assert (result.items <= dataset.num_items).all()
        assert np.all(np.diff(result.scores, axis=1) <= 0)
        if exclude_seen:
            for row, history in enumerate(histories):
                assert not np.isin(result.items[row], history).any()
        # Rows forced short of candidates re-run through the exact source
        # and must agree with it bit for bit.
        short, wall_ms = _timed_topk(recommender, histories,
                                     config=config.with_overrides(
                                         k=self.SHORT_K))
        _assert_stages_partition_the_call(short, wall_ms)
        want_ids, want_scores = full_sort_topk(reference, self.SHORT_K)
        assert np.array_equal(short.items, want_ids)
        assert np.array_equal(short.scores, want_scores)

    @pytest.mark.parametrize("engine", ["graph", "compiled"])
    @pytest.mark.parametrize("shards", [1, 3])
    def test_each_history_is_encoded_once(self, pipeline_setup, recommenders,
                                          monkeypatch, shards, engine):
        """Regression: a short ANN row used to be handed back as a raw
        history to a nested exact call — re-classified, re-padded and put
        through a second Transformer forward.  The pipeline re-runs it from
        the vectors it already encoded."""
        recommender = recommenders("fp32", shards)
        histories = _pipeline_batch(pipeline_setup, "mixed")
        if engine == "graph":  # the fallback of models no plan matches
            monkeypatch.setattr(recommender, "engine", lambda: None)
        owner = (recommender.model if engine == "graph"
                 else recommender.engine())
        encode = owner.encode_sequences
        encoded_rows = []

        def counting(item_ids, lengths, item_matrix=None):
            encoded_rows.append(len(lengths))
            return encode(item_ids, lengths, item_matrix=item_matrix)

        monkeypatch.setattr(owner, "encode_sequences", counting)
        result = recommender.topk(histories, config=ServingConfig(
            k=self.SHORT_K, backend="ivf", shards=shards,
            shard_backend="local"))
        assert result.engine == engine
        assert encoded_rows == [int((~result.cold).sum())]
        exact = recommender.topk(histories, k=self.SHORT_K)
        assert np.array_equal(result.items, exact.items)  # all rows re-ran

    @pytest.mark.timeout(180)
    def test_short_row_rerun_surfaces_shard_diagnostics(self, pipeline_setup):
        """The exact re-run of short ANN rows is a shard search like any
        other: when *it* is the call that crashes, its retry — and, with
        retries exhausted, its degradation — reach the `TopKResult`."""
        histories = _pipeline_batch(pipeline_setup, "mixed")
        reference = _pipeline_recommender(pipeline_setup)
        expected = reference.topk(histories, k=self.SHORT_K)
        recommender = _pipeline_recommender(pipeline_setup, backend="ivf",
                                            shards=2)  # process pool
        try:
            client = recommender.shard_client()
            client.ping()  # spawn before injecting
            # search 0 is the ANN scatter, search 1 the exact re-run
            client.set_fault_plan(FaultPlan(
                [FaultAction("kill", shard=0, at_search=1)]))
            retried = recommender.topk(histories, k=self.SHORT_K)
            assert retried.shard_retries == 1 and not retried.degraded
            # ... and search 2 its one retry: kill both, the guard degrades
            client.set_fault_plan(FaultPlan(
                [FaultAction("kill", shard=1, at_search=1),
                 FaultAction("kill", shard=1, at_search=2)]))
            degraded = recommender.topk(histories, k=self.SHORT_K)
            assert degraded.degraded and degraded.shard_retries == 1
        finally:
            recommender.close()
        for result in (retried, degraded):
            assert np.array_equal(result.items, expected.items)
            assert np.array_equal(result.scores, expected.scores)

    def test_single_shard_never_spawns_a_pool(self, pipeline_setup):
        """`shards == 1` is in-process whatever `shard_backend` says: the
        int8 cell is the 1-shard int8 `LocalShardClient`."""
        from repro.shard import LocalShardClient

        recommender = _pipeline_recommender(
            pipeline_setup, catalogue_codec="int8", shard_backend="process")
        assert recommender.shard_stats() is None  # nothing built yet
        recommender.topk(_pipeline_batch(pipeline_setup, "warm"))
        assert isinstance(recommender.shard_client(), LocalShardClient)
        assert recommender.shard_stats()["codec"] == "int8"

    def test_deadline_is_checked_after_encode_on_every_source(
            self, pipeline_setup, recommenders, monkeypatch):
        """A deadline that lapses during encode stops the request before
        any catalogue scan — on the dense source too, not only in front of
        a shard scatter."""
        from repro.resilience import DeadlineExceeded

        histories = _pipeline_batch(pipeline_setup, "warm")
        for codec, shards in (("fp32", 1), ("int8", 1), ("fp32", 3)):
            recommender = recommenders(codec, shards)
            encode = recommender._encode_warm
            with monkeypatch.context() as patch:
                patch.setattr(
                    recommender, "_encode_warm",
                    lambda *args: (encode(*args), time.sleep(0.02))[0])
                patch.setattr(
                    recommender, "_candidates",
                    lambda *args, **kwargs: pytest.fail(
                        "catalogue scanned after the deadline"))
                with pytest.raises(DeadlineExceeded):
                    recommender.topk(histories,
                                     deadline=time.monotonic() + 0.01)
            served = recommender.topk(histories,
                                      deadline=time.monotonic() + 3600.0)
            assert len(served) == len(histories)

    def test_every_structural_field_rejects_a_per_call_override(
            self, serving_setup):
        _, split, features, model = serving_setup
        recommender = Recommender(model, store=EmbeddingStore(features))
        other = {"score_dtype": "float64", "shards": 2,
                 "shard_backend": "local", "catalogue_codec": "int8"}
        assert set(other) == set(STRUCTURAL_FIELDS)
        assert set(STRUCTURAL_FIELDS) < set(ServingConfig().to_dict())
        for name in STRUCTURAL_FIELDS:
            with pytest.raises(ValueError,
                               match=f"per-call {name} overrides"):
                recommender.topk([split.test[0].history],
                                 config=ServingConfig(**{name: other[name]}))


def _cli_checkpoint(path):
    """A checkpoint aligned with the CLI's default dataset settings (arts /
    tiny / seed 7 / dim 32), so `repro serve arts` needs no training."""
    dataset = load_dataset("arts", scale="tiny", seed=7)
    features = encode_items(dataset.items, embedding_dim=32, seed=7)
    config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                         max_seq_length=20, seed=7)
    model = build_model("whitenrec", dataset.num_items,
                        feature_table=features, config=config)
    return save_checkpoint(model, path, feature_table=features)


class TestServeCLI:
    def test_serve_from_checkpoint(self, tmp_path, capsys):
        path = _cli_checkpoint(tmp_path / "cli_model")
        exit_code = cli_main([
            "serve", "arts", "--checkpoint", str(path),
            "--requests", "3", "--k", "5", "--repeats", "1",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "top-5 items" in captured.out
        assert "sequences/second" in captured.out

    def test_serve_with_ann_backend(self, tmp_path, capsys):
        path = _cli_checkpoint(tmp_path / "ann_model")
        exit_code = cli_main([
            "serve", "arts", "--checkpoint", str(path), "--backend", "ivf",
            "--requests", "3", "--k", "5", "--repeats", "1",
        ])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "backend=ivf" in captured.out

    def test_demo_burst_beyond_max_inflight_exits_2(self, tmp_path, capsys):
        """The demo serves its requests as one burst, and a burst takes one
        in-flight slot per request: 3 requests never fit --max-inflight 2."""
        path = _cli_checkpoint(tmp_path / "cli_model")
        exit_code = cli_main([
            "serve", "arts", "--checkpoint", str(path),
            "--requests", "3", "--max-inflight", "2",
        ])
        captured = capsys.readouterr()
        assert exit_code == 2
        assert "one burst" in captured.err
        assert "Traceback" not in captured.err

    def test_serve_help_documents_backend_and_k(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        assert "--backend" in help_text
        assert "{exact,ivf}" in help_text
        assert "--k" in help_text
        assert "top-K cut-off" in help_text
