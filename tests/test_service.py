"""Tests for the unified serving API (`repro.service`).

Covers: typed request/response envelopes, the deployment registry
(register / get / list / retire / hot-swap reload), the dynamic micro-batcher
(exact parity with direct `Recommender.topk` under concurrent callers,
max-wait flush behaviour, coalescing without a wait window, manual-mode
determinism, in-flight requests surviving a hot-swap), the service facade,
the JSONL and HTTP front-ends (including the enriched /healthz payload, the
--verbose structured access log and request framing on keep-alive
connections), and the `repro serve` CLI error paths.
"""

from __future__ import annotations

import contextlib
import http.client
import inspect
import io
import json
import multiprocessing
import socket
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.cli import _build_parser, main as cli_main
from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.models import ModelConfig, build_model
from repro.models.checkpoint import save_checkpoint
from repro.service import (
    Deployment,
    DynamicBatcher,
    ModelRegistry,
    RecommenderService,
    RecommendRequest,
    RequestError,
    ServiceHTTPServer,
    ServingConfig,
    serve_jsonl,
)
from repro.serving import EmbeddingStore, Recommender
from repro.text import encode_items


@pytest.fixture(scope="module")
def service_setup():
    """Dataset + two differently-initialised models (for hot-swap tests)."""
    dataset = load_dataset("arts", scale="tiny", seed=3,
                           num_users=150, num_items=90, min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)

    def make_model(seed):
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             dropout=0.1, max_seq_length=12, seed=seed)
        return build_model("whitenrec", dataset.num_items,
                           feature_table=features, config=config)

    return dataset, split, features, make_model


def _recommender(split, features, model, **kwargs):
    return Recommender(model, store=EmbeddingStore(features),
                       train_sequences=split.train_sequences, **kwargs)


@pytest.fixture()
def deployment(service_setup):
    _, split, features, make_model = service_setup
    recommender = _recommender(split, features, make_model(0))
    return Deployment("arts", recommender, config=ServingConfig(k=5))


class _GatedRecommender:
    """Holds the batcher's worker inside its first scoring call until
    released, so requests submitted meanwhile queue up behind it."""

    def __init__(self, recommender):
        self.recommender = recommender
        self.config = recommender.config
        self.inside = threading.Event()
        self.release = threading.Event()
        self.batch_sizes = []

    def topk(self, sequences, **kwargs):
        self.batch_sizes.append(len(sequences))
        if len(self.batch_sizes) == 1:
            self.inside.set()
            assert self.release.wait(10)
        return self.recommender.topk(sequences, **kwargs)


class TestEnvelopes:
    def test_from_dict_roundtrip(self):
        payload = {"history": [1, 2, 3], "k": 5, "deployment": "arts",
                   "request_id": "r-1"}
        request = RecommendRequest.from_dict(payload)
        assert request.history == [1, 2, 3]
        assert request.k == 5
        assert request.to_dict() == payload

    def test_rejects_malformed_histories(self):
        with pytest.raises(RequestError):
            RecommendRequest.from_dict({"history": "abc"})
        with pytest.raises(RequestError):
            RecommendRequest.from_dict({"history": [1, "two"]})
        with pytest.raises(RequestError):
            RecommendRequest.from_dict({"history": [1, 2.5]})
        with pytest.raises(RequestError):
            RecommendRequest.from_dict({})

    def test_rejects_unknown_fields_and_bad_k(self):
        with pytest.raises(RequestError, match="histroy"):
            RecommendRequest.from_dict({"histroy": [1]})
        with pytest.raises(RequestError):
            RecommendRequest.from_dict({"history": [1], "k": 0})
        with pytest.raises(RequestError):
            RecommendRequest.from_dict({"history": [1], "exclude_seen": "yes"})

    def test_response_to_dict_is_json_serialisable(self, deployment):
        service = RecommenderService()
        service.deploy(deployment)
        with service:
            response = service.recommend({"history": [3, 5], "request_id": "x"})
        payload = json.loads(json.dumps(response.to_dict()))
        assert payload["request_id"] == "x"
        assert payload["deployment"] == "arts"
        assert payload["deployment_version"] == 1
        assert payload["backend"] == "exact"
        assert payload["cold"] is False
        assert len(payload["items"]) == payload["k"] == 5
        assert payload["stages_ms"]["queue"] >= 0.0
        assert payload["stages_ms"]["total"] >= payload["stages_ms"]["score"]
        assert payload["batch_size"] >= 1

    def test_readme_response_example_matches_the_wire_format(self,
                                                             deployment):
        """The JSONL response example in README.md cannot drift from
        ``RecommendResponse.to_dict()``: same keys, same stages."""
        readme = (Path(__file__).resolve().parents[1]
                  / "README.md").read_text(encoding="utf-8")
        block = readme.split("```jsonl\n", 1)[1].split("```", 1)[0]
        example = json.loads(block.split("← ", 1)[1].split("\n→", 1)[0])
        service = RecommenderService()
        service.deploy(deployment)
        with service:
            payload = service.recommend({"history": [3, 5, 9], "k": 5,
                                         "request_id": "r1"}).to_dict()
        assert payload["cold"] is False
        assert set(example) == set(payload)
        assert set(example["stages_ms"]) == set(payload["stages_ms"])


class TestRegistry:
    def test_register_get_list_retire(self, service_setup):
        _, split, features, make_model = service_setup
        registry = ModelRegistry()
        first = Deployment("a", _recommender(split, features, make_model(0)))
        second = Deployment("b", _recommender(split, features, make_model(1)))
        registry.register(first)
        registry.register(second)
        assert len(registry) == 2 and "a" in registry
        assert registry.get() is first  # first registration is the default
        assert registry.get("b") is second
        assert [d.name for d in registry.list()] == ["a", "b"]

        retired = registry.retire("a")
        assert retired is first
        assert registry.get() is second  # default reassigned
        with pytest.raises(KeyError, match="unknown deployment"):
            registry.get("a")

    def test_duplicate_and_unknown_names(self, deployment):
        registry = ModelRegistry()
        registry.register(deployment)
        with pytest.raises(ValueError, match="already exists"):
            registry.register(deployment)
        with pytest.raises(KeyError):
            registry.retire("nope")
        with pytest.raises(KeyError):
            ModelRegistry().get()

    def test_describe_marks_default(self, service_setup):
        _, split, features, make_model = service_setup
        registry = ModelRegistry()
        registry.register(Deployment("z", _recommender(split, features, make_model(0))))
        registry.register(Deployment("a", _recommender(split, features, make_model(1))),
                          default=True)
        summaries = registry.describe()
        assert summaries[0]["name"] == "a" and summaries[0]["default"]
        assert not summaries[1]["default"]

    def test_reload_hot_swaps_with_version_bump(self, service_setup, tmp_path):
        _, split, features, make_model = service_setup
        model_b = make_model(1)
        path = save_checkpoint(model_b, tmp_path / "swap.npz",
                               feature_table=features)
        registry = ModelRegistry()
        registry.register(Deployment("m", _recommender(split, features, make_model(0)),
                                     config=ServingConfig(k=5)))
        old = registry.get("m")
        fresh = registry.reload("m", path)
        assert registry.get("m") is fresh
        assert fresh.version == old.version + 1
        assert fresh.config == old.config  # policy survives a model refresh
        history = split.test[0].history
        assert np.array_equal(
            fresh.recommender.topk([history], k=5).items,
            Deployment.from_checkpoint("m", path).recommender.topk(
                [history], k=5).items,
        )

    def test_reload_without_source_requires_path(self, deployment):
        registry = ModelRegistry()
        registry.register(deployment)
        with pytest.raises(ValueError, match="checkpoint source"):
            registry.reload("arts")

    def test_concurrent_reloads_get_distinct_versions(self, service_setup,
                                                      tmp_path):
        """Reloads of one name serialise: racing reloads must never publish
        two deployment objects sharing a (name, version) identity."""
        _, split, features, make_model = service_setup
        path = save_checkpoint(make_model(1), tmp_path / "swap.npz",
                               feature_table=features)
        registry = ModelRegistry()
        registry.register(Deployment(
            "m", _recommender(split, features, make_model(0)),
            config=ServingConfig(k=5)))
        results, errors = [], []

        def reload():
            try:
                results.append(registry.reload("m", path))
            except Exception as error:  # pragma: no cover - the bug's symptom
                errors.append(error)

        threads = [threading.Thread(target=reload) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert sorted(fresh.version for fresh in results) == [2, 3, 4, 5]
        assert registry.get("m").version == 5

    def test_config_must_match_the_recommender_structurally(self,
                                                            service_setup):
        """A deployment whose config disagrees with what its recommender was
        built for fails at construction, naming the field — not later, as a
        client-side ``RequestError`` on every request."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        with pytest.raises(ValueError, match="shards=2"):
            Deployment("arts", recommender, config=ServingConfig(shards=2))
        with pytest.raises(ValueError, match="score_dtype"):
            Deployment("arts", recommender,
                       config=ServingConfig(score_dtype="float64"))
        # non-structural fields are the deployment's to choose
        Deployment("arts", recommender,
                   config=ServingConfig(k=3, backend="ivf", exclude_seen=False))


class TestDynamicBatcher:
    def test_concurrent_callers_get_bitwise_direct_results(self, service_setup):
        """Exact parity: each concurrent caller's coalesced response must be
        bit-identical (ids and scores) to its own direct topk call."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        histories = [case.history for case in split.test[:16]] + [[], [999]]
        results = {}
        with DynamicBatcher(recommender, max_batch_size=32,
                            max_wait_ms=25.0) as batcher:
            def client(row):
                results[row] = batcher.submit(histories[row], k=6).result()

            threads = [threading.Thread(target=client, args=(row,))
                       for row in range(len(histories))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = batcher.stats()
        assert stats.completed == len(histories)
        assert stats.max_batch_observed >= 2, "nothing coalesced"
        for row, history in enumerate(histories):
            direct = recommender.topk([history], k=6)
            assert np.array_equal(results[row].items, direct.items[0])
            assert np.array_equal(results[row].scores, direct.scores[0])
            assert results[row].cold == bool(direct.cold[0])

    def test_manual_flush_is_one_scoring_call(self, service_setup):
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        histories = [case.history for case in split.test[:6]]
        batcher = DynamicBatcher(recommender, max_batch_size=16, start=False)
        futures = [batcher.submit(history, k=4) for history in histories]
        assert not any(future.done() for future in futures)
        assert batcher.flush() == 6
        stats = batcher.stats()
        assert stats.scoring_calls == 1 and stats.ticks == 1
        direct = recommender.topk(histories, k=4)
        for row, future in enumerate(futures):
            result = future.result(timeout=0)
            assert np.array_equal(result.items, direct.items[row])
            assert np.array_equal(result.scores, direct.scores[row])
            assert result.batch_size == 6

    def test_mixed_k_served_from_one_call(self, service_setup):
        """Different k values coalesce: one scoring call at max(k), trimmed
        per row — bit-identical to each row's own-k direct call."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        histories = [case.history for case in split.test[:3]]
        batcher = DynamicBatcher(recommender, start=False)
        ks = [3, 9, 5]
        futures = [batcher.submit(history, k=k)
                   for history, k in zip(histories, ks)]
        batcher.flush()
        assert batcher.stats().scoring_calls == 1
        for history, k, future in zip(histories, ks, futures):
            result = future.result(timeout=0)
            direct = recommender.topk([history], k=k)
            assert result.items.shape == (k,)
            assert np.array_equal(result.items, direct.items[0])
            assert np.array_equal(result.scores, direct.scores[0])

    def test_mixed_policies_split_into_groups(self, service_setup):
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0),
                                   index_params={"n_lists": 8, "nprobe": 8})
        histories = [case.history for case in split.test[:4]]
        batcher = DynamicBatcher(recommender, start=False)
        exact = [batcher.submit(history, k=5) for history in histories[:2]]
        approx = [batcher.submit(history, k=5, backend="ivf")
                  for history in histories[2:]]
        batcher.flush()
        assert batcher.stats().scoring_calls == 2  # one per policy group
        direct_exact = recommender.topk(histories[:2], k=5)
        direct_approx = recommender.topk(
            histories[2:], config=recommender.config.with_overrides(
                k=5, backend="ivf"))
        for row, future in enumerate(exact):
            assert np.array_equal(future.result(timeout=0).items,
                                  direct_exact.items[row])
        for row, future in enumerate(approx):
            result = future.result(timeout=0)
            assert result.backend == "ivf"
            assert np.array_equal(result.items, direct_approx.items[row])

    def test_max_batch_size_flushes_without_waiting(self, service_setup):
        """A full batch must be scored immediately, not after max_wait_ms
        (the wait here is 60s — a size-triggered flush is the only way the
        futures can resolve in time)."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        histories = [case.history for case in split.test[:4]]
        with DynamicBatcher(recommender, max_batch_size=2,
                            max_wait_ms=60_000.0) as batcher:
            futures = [batcher.submit(history, k=3) for history in histories]
            results = [future.result(timeout=10) for future in futures]
        assert all(result.batch_size == 2 for result in results)

    def test_queue_ms_counts_from_submit_even_under_manual_flush(
            self, service_setup):
        """Regression: `enqueued_at` is captured at the top of submit(), so
        queue-time attribution starts when the caller handed the request
        over — a manual flush() long after submit must report the full wait,
        and never a negative duration."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        batcher = DynamicBatcher(recommender, start=False)
        future = batcher.submit(split.test[0].history, k=3)
        time.sleep(0.02)
        batcher.flush()
        result = future.result(timeout=0)
        assert result.queue_ms >= 15.0  # the wait before flush is queue time
        batcher.close()

    def test_max_wait_flushes_partial_batch(self, service_setup):
        """A lonely request must be served once max_wait_ms elapses, long
        before the size cap is reached."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        with DynamicBatcher(recommender, max_batch_size=64,
                            max_wait_ms=30.0) as batcher:
            started = time.perf_counter()
            result = batcher.submit(split.test[0].history, k=3).result(10)
            elapsed = time.perf_counter() - started
        assert result.batch_size == 1
        assert elapsed < 5.0  # served by the wait deadline, not the size cap

    def test_default_batcher_coalesces_what_arrives_during_a_batch(
            self, service_setup):
        """With no wait window, batches form from the requests that queue
        while the worker scores the previous batch: N requests submitted
        while it is held inside its first call are served by one call."""
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        gated = _GatedRecommender(recommender)
        histories = [case.history for case in split.test[1:8]]
        with DynamicBatcher(gated) as batcher:
            first = batcher.submit(split.test[0].history, k=5)
            assert gated.inside.wait(10)
            futures = [batcher.submit(history, k=5) for history in histories]
            gated.release.set()
            results = [future.result(timeout=10) for future in futures]
            assert first.result(timeout=10).batch_size == 1
        assert gated.batch_sizes == [1, len(histories)]
        for history, result in zip(histories, results):
            direct = recommender.topk([history], k=5)
            assert result.batch_size == len(histories)
            assert np.array_equal(result.items, direct.items[0])
            assert np.array_equal(result.scores, direct.scores[0])

    def test_wait_window_defaults_to_zero(self):
        for constructor in (DynamicBatcher, RecommenderService):
            parameters = inspect.signature(constructor).parameters
            assert parameters["max_wait_ms"].default == 0.0
        assert _build_parser().parse_args(["serve"]).max_wait_ms == 0.0

    def test_invalid_override_fails_fast_without_poisoning(self, service_setup):
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        batcher = DynamicBatcher(recommender, start=False)
        with pytest.raises(ValueError):
            batcher.submit([1, 2], backend="faiss")
        with pytest.raises(ValueError):
            batcher.submit([1, 2], k=0)
        good = batcher.submit(split.test[0].history, k=3)
        batcher.flush()
        assert good.result(timeout=0).items.shape == (3,)

    def test_close_drains_and_rejects_new_requests(self, service_setup):
        _, split, features, make_model = service_setup
        recommender = _recommender(split, features, make_model(0))
        batcher = DynamicBatcher(recommender, start=False)
        pending = batcher.submit(split.test[0].history, k=3)
        batcher.close()
        assert pending.result(timeout=0).items.shape == (3,)
        with pytest.raises(RuntimeError):
            batcher.submit([1], k=1)

    def test_hot_swap_in_flight_requests_finish_on_old_deployment(
            self, service_setup, tmp_path):
        """Requests queued before a reload are answered by the *old* model;
        requests after it by the new one."""
        _, split, features, make_model = service_setup
        old_recommender = _recommender(split, features, make_model(0))
        model_b = make_model(1)
        path = save_checkpoint(model_b, tmp_path / "v2.npz",
                               feature_table=features)
        registry = ModelRegistry()
        registry.register(Deployment("m", old_recommender,
                                     config=ServingConfig(k=5)))
        histories = [case.history for case in split.test[:4]]

        old_batcher = DynamicBatcher(registry.get("m").recommender,
                                     config=registry.get("m").config,
                                     start=False)
        in_flight = [old_batcher.submit(history) for history in histories]

        fresh = registry.reload("m", path)
        assert fresh.version == 2

        old_batcher.flush()  # traffic that was already queued
        old_direct = old_recommender.topk(histories, k=5)
        new_direct = fresh.recommender.topk(histories, k=5)
        assert not np.array_equal(old_direct.items, new_direct.items), \
            "swap test needs models that disagree"
        for row, future in enumerate(in_flight):
            assert np.array_equal(future.result(timeout=0).items,
                                  old_direct.items[row])

        new_batcher = DynamicBatcher(fresh.recommender, config=fresh.config,
                                     start=False)
        after = [new_batcher.submit(history) for history in histories]
        new_batcher.flush()
        for row, future in enumerate(after):
            assert np.array_equal(future.result(timeout=0).items,
                                  new_direct.items[row])


class TestRecommenderService:
    def test_recommend_matches_direct_topk(self, service_setup, deployment):
        _, split, _, _ = service_setup
        history = split.test[0].history
        with RecommenderService() as service:
            service.deploy(deployment)
            response = service.recommend(
                RecommendRequest(history=list(history), k=5, request_id="r"))
        direct = deployment.recommender.topk([history], k=5)
        assert response.items == [int(i) for i in direct.items[0]]
        assert response.scores == [float(s) for s in direct.scores[0]]
        assert response.request_id == "r"

    def test_recommend_many_coalesces_from_one_caller(self, service_setup,
                                                      deployment):
        _, split, _, _ = service_setup
        requests = [{"history": list(case.history)} for case in split.test[:8]]
        with RecommenderService(max_wait_ms=50.0) as service:
            service.deploy(deployment)
            responses = service.recommend_many(requests)
            assert max(response.batch_size for response in responses) >= 2
        direct = deployment.recommender.topk(
            [case.history for case in split.test[:8]], k=5)
        for row, response in enumerate(responses):
            assert response.items == [int(i) for i in direct.items[row]]

    def test_multiple_deployments_route_by_name(self, service_setup):
        _, split, features, make_model = service_setup
        history = split.test[0].history
        with RecommenderService() as service:
            service.deploy(Deployment(
                "a", _recommender(split, features, make_model(0)),
                config=ServingConfig(k=4)))
            service.deploy(Deployment(
                "b", _recommender(split, features, make_model(1)),
                config=ServingConfig(k=6)))
            default = service.recommend({"history": list(history)})
            named = service.recommend({"history": list(history),
                                       "deployment": "b"})
        assert default.deployment == "a" and len(default.items) == 4
        assert named.deployment == "b" and len(named.items) == 6

    def test_unknown_deployment_is_a_request_error(self, deployment):
        with RecommenderService() as service:
            service.deploy(deployment)
            with pytest.raises(RequestError, match="unknown deployment"):
                service.recommend({"history": [1], "deployment": "nope"})
            with pytest.raises(RequestError):
                service.recommend({"history": [1], "backend": "faiss"})
            # The burst path converts errors the same way as single requests.
            with pytest.raises(RequestError, match="unknown deployment"):
                service.recommend_many([{"history": [1], "deployment": "nope"}])
            with pytest.raises(RequestError):
                service.recommend_many([{"history": [1], "backend": "faiss"}])
        assert service.stats()["request_errors"] == 4

    def test_stats_shape(self, deployment):
        with RecommenderService() as service:
            service.deploy(deployment)
            service.recommend({"history": [1, 2]})
            stats = service.stats()
        assert stats["requests_served"] == 1
        assert stats["deployments"][0]["name"] == "arts"
        (batcher_stats,) = stats["batchers"].values()
        assert batcher_stats["completed"] == 1

    def test_service_reload_serves_new_version(self, service_setup, tmp_path):
        _, split, features, make_model = service_setup
        path = save_checkpoint(make_model(1), tmp_path / "next.npz",
                               feature_table=features)
        history = split.test[0].history
        with RecommenderService() as service:
            service.deploy(Deployment(
                "m", _recommender(split, features, make_model(0)),
                config=ServingConfig(k=5)))
            before = service.recommend({"history": list(history)})
            fresh = service.reload("m", path)
            after = service.recommend({"history": list(history)})
        assert before.deployment_version == 1
        assert after.deployment_version == 2
        assert np.array_equal(
            after.items, fresh.recommender.topk([history], k=5).items[0])

    def test_retire_stops_serving(self, deployment):
        with RecommenderService() as service:
            service.deploy(deployment)
            service.recommend({"history": [1]})
            service.retire("arts")
            with pytest.raises(RequestError):
                service.recommend({"history": [1]})

    def test_concurrent_service_reloads_leak_no_batcher(self, service_setup,
                                                        tmp_path):
        """Each racing reload retires exactly the version it replaced, so no
        intermediate version's batcher key survives as a ghost."""
        _, split, features, make_model = service_setup
        path = save_checkpoint(make_model(1), tmp_path / "next.npz",
                               feature_table=features)
        history = split.test[0].history
        with RecommenderService() as service:
            service.deploy(Deployment(
                "m", _recommender(split, features, make_model(0)),
                config=ServingConfig(k=5)))
            service.recommend({"history": list(history)})  # v1 batcher spins up
            threads = [threading.Thread(target=service.reload, args=("m", path))
                       for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            final = service.registry.get("m")
            assert final.version == 4
            response = service.recommend({"history": list(history)})
            assert response.deployment_version == 4
            assert set(service.stats()["batchers"]) == {"m@v4"}
            # Every superseded version is tombstoned, not merely unreferenced.
            for version in (1, 2, 3):
                assert ("m", version) in service._retired_batchers

    def test_burst_with_invalid_entry_fails_before_any_scoring(
            self, service_setup, deployment):
        """recommend_many validates the whole burst up front: a bad entry
        must not leave earlier entries submitted with abandoned futures."""
        _, split, _, _ = service_setup
        valid = {"history": list(split.test[0].history)}
        for bad in ({"history": [1], "deployment": "nope"},
                    {"history": [1], "backend": "faiss"}):
            with RecommenderService(autostart_batchers=False) as service:
                service.deploy(deployment)
                with pytest.raises(RequestError):
                    service.recommend_many([valid, bad])
                assert service.flush() == 0  # nothing was enqueued
                stats = service.stats()
                assert stats["requests_served"] == 0
                assert stats["request_errors"] == 1

    def test_recommend_after_close_spawns_no_batcher(self, service_setup,
                                                     deployment):
        """A caller racing shutdown serves unbatched: close() must not let a
        late recommend() resurrect a worker thread nothing will ever join."""
        _, split, _, _ = service_setup
        history = list(split.test[0].history)
        service = RecommenderService()
        service.deploy(deployment)
        expected = service.recommend({"history": history})
        service.close()
        late = service.recommend({"history": history})
        assert late.batch_size == 1  # unbatched path
        assert np.array_equal(late.items, expected.items)
        assert np.array_equal(late.scores, expected.scores)
        assert service.stats()["batchers"] == {}

    def test_stale_deployment_cannot_resurrect_its_batcher(
            self, service_setup, tmp_path):
        """A request racing a reload must not recreate the retired version's
        batcher (leaking its worker); it serves unbatched on the old object."""
        _, split, features, make_model = service_setup
        path = save_checkpoint(make_model(1), tmp_path / "next.npz",
                               feature_table=features)
        history = split.test[0].history
        with RecommenderService() as service:
            service.deploy(Deployment(
                "m", _recommender(split, features, make_model(0)),
                config=ServingConfig(k=5)))
            stale = service.registry.get("m")
            service.recommend({"history": list(history)})
            service.reload("m", path)
            service.recommend({"history": list(history)})  # v2 batcher spins up
            # Simulate the race: a request that resolved `stale` pre-swap.
            assert service._batcher_for(stale) is None
            response = service._serve_direct(
                RecommendRequest(history=list(history)), stale)
            assert response.deployment_version == 1
            assert np.array_equal(
                response.items, stale.recommender.topk([history], k=5).items[0])
            stats = service.stats()
            assert set(stats["batchers"]) == {"m@v2"}  # no ghost m@v1 entry


class TestJSONLServer:
    def _run(self, service, lines, **kwargs):
        output = io.StringIO()
        code = serve_jsonl(service, io.StringIO("\n".join(lines) + "\n"),
                           output, **kwargs)
        return code, [json.loads(line) for line in output.getvalue().splitlines()]

    def test_requests_commands_and_shutdown(self, service_setup, deployment):
        _, split, _, _ = service_setup
        history = list(split.test[0].history)
        service = RecommenderService()
        service.deploy(deployment)
        code, replies = self._run(service, [
            json.dumps({"history": history, "k": 3, "request_id": "a"}),
            "",  # blank lines are ignored
            json.dumps({"cmd": "stats"}),
            json.dumps({"cmd": "deployments"}),
            json.dumps({"cmd": "shutdown"}),
            json.dumps({"history": history}),  # after shutdown: never served
        ])
        assert code == 0
        assert len(replies) == 4
        assert replies[0]["request_id"] == "a" and len(replies[0]["items"]) == 3
        assert replies[1]["stats"]["requests_served"] == 1
        assert replies[2]["deployments"][0]["name"] == "arts"
        assert replies[3] == {"ok": True, "shutdown": True}

    def test_errors_are_in_band_and_non_fatal(self, service_setup, deployment):
        _, split, _, _ = service_setup
        history = list(split.test[0].history)
        service = RecommenderService()
        service.deploy(deployment)
        code, replies = self._run(service, [
            "this is not json",
            json.dumps({"history": "oops", "request_id": "bad"}),
            json.dumps({"cmd": "reboot"}),
            json.dumps([1, 2, 3]),
            json.dumps({"history": history, "request_id": "good"}),
        ])
        assert code == 0
        assert "invalid JSON" in replies[0]["error"]
        assert replies[1] == {"error": "history must be a list of item ids, "
                                       "got str", "request_id": "bad"}
        assert "unknown command" in replies[2]["error"]
        assert "JSON object" in replies[3]["error"]
        assert replies[4]["request_id"] == "good"  # loop survived all of it

    def test_default_deployment_routing(self, service_setup):
        _, split, features, make_model = service_setup
        history = list(split.test[0].history)
        service = RecommenderService()
        service.deploy(Deployment("a", _recommender(split, features, make_model(0))))
        service.deploy(Deployment("b", _recommender(split, features, make_model(1))))
        code, replies = self._run(service, [json.dumps({"history": history})],
                                  default_deployment="b")
        assert code == 0
        assert replies[0]["deployment"] == "b"


class TestHTTPServer:
    @staticmethod
    @contextlib.contextmanager
    def _serving(deployment):
        service = RecommenderService()
        service.deploy(deployment)
        server = ServiceHTTPServer(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield server
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)

    @pytest.fixture()
    def http_server(self, deployment):
        with self._serving(deployment) as server:
            yield server

    def _post(self, server, path, payload):
        request = urllib.request.Request(
            f"http://127.0.0.1:{server.port}{path}",
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=10) as reply:
                return reply.status, json.loads(reply.read().decode("utf-8"))
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read().decode("utf-8"))

    def _get(self, server, path):
        with urllib.request.urlopen(
                f"http://127.0.0.1:{server.port}{path}", timeout=10) as reply:
            return reply.status, json.loads(reply.read().decode("utf-8"))

    @staticmethod
    def _exchange(connection, raw_request):
        """Send raw bytes on a keep-alive socket; parse the one response."""
        connection.sendall(raw_request)
        reply = http.client.HTTPResponse(connection)
        reply.begin()
        return reply.status, json.loads(reply.read().decode("utf-8"))

    @staticmethod
    def _raw_post(path, body, length=None):
        length = len(body) if length is None else length
        return (f"POST {path} HTTP/1.1\r\nHost: test\r\n"
                f"Content-Length: {length}\r\n\r\n").encode("ascii") + body

    LIVEZ = b"GET /livez HTTP/1.1\r\nHost: test\r\n\r\n"

    def test_post_to_unknown_path_consumes_its_body(self, http_server):
        """Regression: a 404 answered without reading the body left it on
        the keep-alive connection, to be parsed as the next request line."""
        with socket.create_connection(("127.0.0.1", http_server.port),
                                      timeout=10) as client:
            status, payload = self._exchange(
                client, self._raw_post("/nope", b'{"history": [1, 2]}'))
            assert status == 404 and "/nope" in payload["error"]
            status, payload = self._exchange(client, self.LIVEZ)
            assert status == 200 and payload["ok"] is True

    def test_malformed_content_length_is_a_400(self, http_server):
        """Regression: `Content-Length: abc` was a 500 from int()."""
        with socket.create_connection(("127.0.0.1", http_server.port),
                                      timeout=10) as client:
            status, payload = self._exchange(
                client, self._raw_post("/recommend", b"", length="abc"))
        assert status == 400 and "Content-Length" in payload["error"]

    def test_non_utf8_body_is_a_400(self, http_server):
        """Regression: a body that is not UTF-8 was a 500 from decode()."""
        with socket.create_connection(("127.0.0.1", http_server.port),
                                      timeout=10) as client:
            status, payload = self._exchange(
                client, self._raw_post("/recommend", b'{"history": "\xff"}'))
            assert status == 400 and "UTF-8" in payload["error"]
            status, _ = self._exchange(client, self.LIVEZ)
            assert status == 200

    def test_recommend_stats_and_errors(self, http_server, service_setup,
                                        deployment):
        _, split, _, _ = service_setup
        history = list(split.test[0].history)
        status, payload = self._post(http_server, "/recommend",
                                     {"history": history, "k": 4})
        assert status == 200 and len(payload["items"]) == 4
        direct = deployment.recommender.topk([history], k=4)
        assert payload["items"] == [int(i) for i in direct.items[0]]

        status, payload = self._post(
            http_server, "/recommend",
            {"requests": [{"history": history}, {"history": []}]})
        assert status == 200 and len(payload["responses"]) == 2
        assert payload["responses"][1]["cold"] is True

        status, payload = self._post(http_server, "/recommend",
                                     {"history": "oops"})
        assert status == 400 and "history" in payload["error"]
        status, payload = self._post(http_server, "/recommend",
                                     {"requests": 5})
        assert status == 400 and "requests must be a list" in payload["error"]

        status, payload = self._get(http_server, "/stats")
        assert status == 200 and payload["requests_served"] >= 3
        status, payload = self._get(http_server, "/deployments")
        assert status == 200 and payload["deployments"][0]["name"] == "arts"
        status, payload = self._get(http_server, "/healthz")
        assert status == 200 and payload["ok"] is True

    @pytest.mark.timeout(120)
    def test_score_dtype_field_is_a_400_that_builds_nothing(self,
                                                            service_setup):
        """Regression: a per-request ``score_dtype`` used to build a dtype
        sibling of the deployment's recommender — on a 2-shard process
        deployment one request took the server from 2 to 4 worker processes
        and pinned a second catalogue copy for the deployment's lifetime.
        The field is gone: a 400 naming it, and nothing gets built."""
        _, split, features, make_model = service_setup
        config = ServingConfig(k=5, shards=2, shard_backend="process")
        recommender = _recommender(split, features, make_model(0),
                                   config=config)
        history = list(split.test[0].history)
        idle = len(multiprocessing.active_children())
        try:
            with self._serving(Deployment("arts", recommender,
                                          config=config)) as server:
                status, _ = self._post(server, "/recommend",
                                       {"history": history})
                assert status == 200
                workers = len(multiprocessing.active_children())
                casts = recommender.build_counts()["cast"]
                assert workers == idle + 2 and casts == 1

                status, payload = self._post(
                    server, "/recommend",
                    {"history": history, "score_dtype": "float64"})
                assert status == 400
                assert "unknown request field(s): score_dtype" in payload["error"]
                assert len(multiprocessing.active_children()) == workers
                assert recommender.build_counts()["cast"] == casts
        finally:
            recommender.close()

    def test_healthz_reports_versions_and_uptime(self, http_server):
        """The PR-4 contract keys (`ok`, `deployments`) survive; uptime and
        per-deployment name/version let an orchestrator watch a hot-swap."""
        status, payload = self._get(http_server, "/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["deployments"] == 1
        assert payload["uptime_s"] >= 0.0
        assert payload["deployment_versions"] == [
            {"name": "arts", "version": 1}]

    def test_verbose_access_log_goes_to_stderr(self, deployment, capsys):
        service = RecommenderService()
        service.deploy(deployment)
        server = ServiceHTTPServer(service, port=0, verbose=True)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            self._get(server, "/healthz")
            self._post(server, "/recommend", {"history": [1, 2]})
            self._post(server, "/recommend", {"history": "oops"})
        finally:
            server.shutdown()
            server.server_close()
            service.close()
            thread.join(timeout=5)
        captured = capsys.readouterr()
        assert captured.out == ""  # stdout stays protocol-pure
        entries = [json.loads(line) for line in captured.err.splitlines()]
        assert [(e["method"], e["path"], e["status"]) for e in entries] == [
            ("GET", "/healthz", 200),
            ("POST", "/recommend", 200),
            ("POST", "/recommend", 400),
        ]
        assert all(e["duration_ms"] >= 0.0 for e in entries)

    def test_non_verbose_server_logs_nothing(self, http_server, capsys):
        self._get(http_server, "/healthz")
        captured = capsys.readouterr()
        assert captured.err == ""


class TestServeCLIErrorPaths:
    @pytest.mark.parametrize("flag, value, allowed", [
        ("--backend", "'faiss'", "('exact', 'ivf')"),
        ("--shards", "0", "a positive integer"),
        ("--shard-backend", "'bogus'", "('local', 'process')"),
        ("--catalogue-codec", "'bogus'", "('fp32', 'int8')"),
    ], ids=["backend", "shards", "shard-backend", "catalogue-codec"])
    def test_unknown_backend_exits_2_with_message(self, flag, value, allowed,
                                                  capsys):
        """ServingConfig rejects each bad serving knob; the CLI maps that
        to exit 2 naming the bad value and the allowed values."""
        code = cli_main(["serve", "arts", flag, value.strip("'")])
        captured = capsys.readouterr()
        assert code == 2
        assert f"got {value}" in captured.err
        assert allowed in captured.err
        assert "Traceback" not in captured.err
        assert "training" not in captured.out  # failed before any model work

    def test_missing_checkpoint_exits_2_with_message(self, capsys):
        code = cli_main(["serve", "arts", "--checkpoint", "/no/such/model.npz"])
        captured = capsys.readouterr()
        assert code == 2
        assert "checkpoint not found: /no/such/model.npz" in captured.err

    def test_corrupt_checkpoint_exits_2(self, tmp_path, capsys):
        path = tmp_path / "foreign.npz"
        np.savez(path, values=np.arange(3))
        code = cli_main(["serve", "arts", "--checkpoint", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert "cannot load checkpoint" in captured.err

    def test_bad_deployment_spec_exits_2(self, capsys):
        code = cli_main(["serve", "--deployment", "nameonly", "--loop"])
        captured = capsys.readouterr()
        assert code == 2
        assert "NAME=CHECKPOINT" in captured.err

    def test_missing_deployment_checkpoint_exits_2(self, capsys):
        code = cli_main(["serve", "--deployment", "m=/no/such.npz", "--loop"])
        captured = capsys.readouterr()
        assert code == 2
        assert "checkpoint not found" in captured.err

    def test_nothing_to_serve_exits_2(self, capsys):
        code = cli_main(["serve", "--loop"])
        captured = capsys.readouterr()
        assert code == 2
        assert "nothing to serve" in captured.err

    def test_invalid_k_exits_2(self, capsys):
        code = cli_main(["serve", "arts", "--k", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert "k must be a positive integer" in captured.err

    @pytest.mark.parametrize("flag, value, message", [
        ("--max-batch-size", "0", "max_batch_size must be >= 1"),
        ("--max-wait-ms", "-1", "max_wait_ms must be >= 0"),
        ("--max-inflight", "0", "max_inflight must be >= 1"),
    ], ids=["max-batch-size", "max-wait-ms", "max-inflight"])
    def test_invalid_service_knob_exits_2_before_training(self, flag, value,
                                                          message, capsys):
        code = cli_main(["serve", "arts", flag, value])
        captured = capsys.readouterr()
        assert code == 2
        assert message in captured.err
        assert "Traceback" not in captured.err
        assert "training" not in captured.out  # failed before any model work

    def test_loop_plus_http_conflict_exits_2(self, capsys):
        """Both front-ends at once is a config error, not a silent --loop."""
        code = cli_main(["serve", "--deployment", "m=/no/such.npz",
                         "--loop", "--http", "8765"])
        captured = capsys.readouterr()
        assert code == 2
        assert "mutually exclusive" in captured.err


class TestServeCLILoop:
    def test_multi_model_jsonl_loop(self, service_setup, tmp_path, capsys,
                                    monkeypatch):
        dataset, _, features, make_model = service_setup
        path_a = save_checkpoint(make_model(0), tmp_path / "a.npz",
                                 feature_table=features)
        path_b = save_checkpoint(make_model(1), tmp_path / "b.npz",
                                 feature_table=features)
        lines = [
            json.dumps({"history": [3, 5, 9], "k": 4, "request_id": "a"}),
            json.dumps({"history": [3, 5, 9], "k": 4, "deployment": "two",
                        "request_id": "b"}),
            json.dumps({"cmd": "shutdown"}),
        ]
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        code = cli_main(["serve",
                         "--deployment", f"one={path_a}",
                         "--deployment", f"two={path_b}", "--loop"])
        captured = capsys.readouterr()
        assert code == 0
        replies = [json.loads(line) for line in captured.out.splitlines()]
        assert replies[0]["deployment"] == "one"
        assert replies[0]["request_id"] == "a"
        assert len(replies[0]["items"]) == 4
        assert replies[1]["deployment"] == "two"
        assert replies[2] == {"ok": True, "shutdown": True}
        assert "deployed 'one'" in captured.err  # startup log kept off stdout

    def test_serve_help_documents_new_flags(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["serve", "--help"])
        assert excinfo.value.code == 0
        help_text = capsys.readouterr().out
        for flag in ("--deployment", "--loop", "--http", "--max-batch-size",
                     "--max-wait-ms", "--no-batching"):
            assert flag in help_text
