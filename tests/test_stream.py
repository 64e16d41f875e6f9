"""Tests for the online-learning loop (`repro.stream`) and its substrate.

Covers: the unified generation-stamp mechanism (`repro.serving.generations`
— clock and memo semantics and the item-matrix integration), the
crash-safe interaction log (round-trip, segment rolling, replay-from-offset,
torn-tail truncation, fsync'd commit offsets), the online whitening
statistics (exactness against the batch fit, drift-triggered refits), the
detached-snapshot discipline (`Checkpoint.snapshot`, aliasing asserts,
fine-tune-after-publish isolation), the incremental trainer (micro-epochs,
at-least-once offsets), the publisher (version bumps, warm-up, in-place
refresh), hot-swap under concurrent batched / sharded / session-cached
traffic (old-or-new, never torn).
"""

from __future__ import annotations

import json
import sys
import tempfile
import threading
import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.models import ModelConfig, build_model
from repro.models.checkpoint import Checkpoint, save_checkpoint
from repro.service import Deployment, ModelRegistry, RecommenderService
from repro.serving import (
    EmbeddingStore,
    GenerationalCache,
    GenerationClock,
    Recommender,
    ServingConfig,
)
from repro.stream import (
    IncrementalTrainer,
    InteractionLog,
    OnlineWhitener,
    Publisher,
    clone_model,
)
from repro.text import encode_items
from repro.whitening.base import centered_covariance, get_whitening


# --------------------------------------------------------------------- #
# Shared fixtures
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def stream_setup():
    dataset = load_dataset("arts", scale="tiny", seed=3,
                           num_users=150, num_items=90,
                           min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)

    def make_model(seed):
        config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                             dropout=0.1, max_seq_length=12, seed=seed)
        return build_model("whitenrec", dataset.num_items,
                           feature_table=features, config=config)

    return dataset, split, features, make_model


def _log(tmp_path, **kwargs):
    kwargs.setdefault("durable", False)
    return InteractionLog(tmp_path / "log", **kwargs)


# --------------------------------------------------------------------- #
# Generation stamps (the unified invalidation mechanism)
# --------------------------------------------------------------------- #
class TestGenerations:
    def test_clock_advances_monotonically(self):
        clock = GenerationClock()
        assert clock.value == 0
        assert clock.advance() == 1
        assert clock.advance() == 2
        assert clock.value == 2

    def test_cache_rebuilds_after_advance(self):
        clock = GenerationClock()
        cache = GenerationalCache(clock)
        builds = []

        def build():
            builds.append(len(builds))
            return f"value-{len(builds)}"

        assert cache.get_or_build("key", build) == "value-1"
        assert cache.get_or_build("key", build) == "value-1"  # memoised
        clock.advance()
        assert cache.get("key") is None  # lapsed, not served stale
        assert cache.get_or_build("key", build) == "value-2"
        assert builds == [0, 1]

    def test_cache_advance_mid_build_is_not_memoised(self):
        clock = GenerationClock()
        cache = GenerationalCache(clock)

        def build_and_invalidate():
            clock.advance()  # the world changed while we were building
            return "stale"

        assert cache.get_or_build("key", build_and_invalidate) == "stale"
        assert cache.get("key") is None
        assert len(cache) == 0

    def test_cache_builds_single_flight_per_key(self):
        """Callers of a key under construction wait for its one build;
        another key builds meanwhile (no cache-wide lock is held)."""
        cache = GenerationalCache(GenerationClock())
        entered, release = threading.Event(), threading.Event()

        def slow_build():
            entered.set()
            assert release.wait(10)
            return object()

        results = []
        callers = [threading.Thread(
            target=lambda: results.append(cache.get_or_build("slow",
                                                             slow_build)))
            for _ in range(4)]
        for caller in callers:
            caller.start()
        assert entered.wait(10)
        assert cache.get_or_build("other", lambda: "built") == "built"
        release.set()
        for caller in callers:
            caller.join(10)
            assert not caller.is_alive()
        assert len(results) == 4 and all(r is results[0] for r in results)
        assert cache.build_counts() == {"slow": 1, "other": 1}

    @pytest.mark.timeout(60)
    def test_cache_under_advances_never_serves_an_older_generation(self):
        """Eight readers race a writer that keeps advancing the clock: no
        read returns a value built before the generation it started in,
        and once the clock rests the memo holds the current generation."""
        clock = GenerationClock()
        cache = GenerationalCache(clock)
        done = threading.Event()
        stale = []

        def build():
            built_at = clock.value
            time.sleep(0)  # let an advance land mid-build
            return built_at

        def reader():
            while not done.is_set():
                started = clock.value
                built_at = cache.get_or_build("key", build)
                if built_at < started:
                    stale.append((started, built_at))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            readers = [threading.Thread(target=reader) for _ in range(8)]
            for thread in readers:
                thread.start()
            for _ in range(200):
                clock.advance()
                time.sleep(0.0005)
            done.set()
            for thread in readers:
                thread.join(30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert stale == []
        assert cache.get_or_build("key", build) == clock.value

    def test_cache_lapse_hook_sees_every_dropped_entry(self):
        clock = GenerationClock()
        lapsed = []
        cache = GenerationalCache(clock, on_lapse=lambda key, value:
                                  lapsed.append((key, value)))
        cache.get_or_build("a", lambda: 1)
        cache.get_or_build("b", lambda: 2)
        cache.discard("b")
        cache.discard("b")  # idempotent
        assert lapsed == [("b", 2)]
        clock.advance()
        cache.reconcile()
        assert lapsed == [("b", 2), ("a", 1)]
        assert cache.build_counts() == {"a": 1, "b": 1}

    def test_item_matrix_refresh_drives_every_consumer(self, stream_setup):
        _, split, features, make_model = stream_setup
        recommender = Recommender(make_model(0),
                                  store=EmbeddingStore(features),
                                  train_sequences=split.train_sequences,
                                  config=ServingConfig(k=5))
        matrix = recommender.item_matrix()
        engine = recommender.engine()
        clock = recommender.generation_clock
        stamp = clock.value
        recommender.refresh_item_matrix()
        assert clock.value == stamp + 1
        assert recommender.item_matrix() is not matrix
        if engine is not None:
            assert recommender.engine() is not engine


# --------------------------------------------------------------------- #
# Interaction log
# --------------------------------------------------------------------- #
class TestInteractionLog:
    def test_append_read_round_trip(self, tmp_path):
        with _log(tmp_path) as log:
            offsets = log.append_many([(1, 10, 0.5), (2, 20, 1.5)])
            assert offsets == [0, 1]
            assert log.append(3, 30, 2.5) == 2
            events = list(log.read(0))
        assert [(e.offset, e.user_id, e.item_id, e.timestamp)
                for e in events] == [(0, 1, 10, 0.5), (1, 2, 20, 1.5),
                                     (2, 3, 30, 2.5)]
        assert events[0].to_interaction_tuple() == (1, 10, 0.5)

    def test_segment_rolling_and_seek(self, tmp_path):
        with _log(tmp_path, segment_max_bytes=128) as log:
            log.append_many([(u, u + 100, float(u)) for u in range(40)])
            assert log.num_segments > 1
            assert log.end_offset == 40
            # Seek into the middle: only the tail comes back, offsets dense.
            tail = list(log.read(17))
            assert [e.offset for e in tail] == list(range(17, 40))
            window = list(log.read(5, max_events=7))
            assert [e.offset for e in window] == list(range(5, 12))

    def test_reopen_resumes_offsets(self, tmp_path):
        with _log(tmp_path, segment_max_bytes=128) as log:
            log.append_many([(u, 1, 0.0) for u in range(25)])
        with _log(tmp_path, segment_max_bytes=128) as log:
            assert log.end_offset == 25
            assert log.append(9, 9, 9.0) == 25
            assert [e.offset for e in log.read(24)] == [24, 25]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        with _log(tmp_path) as log:
            log.append_many([(u, 1, 0.0) for u in range(10)])
            segment = log._segment_paths[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"u":99,"i":')  # crash mid-write, no newline
        with _log(tmp_path) as log:
            assert log.end_offset == 10
            assert log.append(5, 5, 5.0) == 10
            assert [e.user_id for e in log.read(9)] == [9, 5]

    def test_torn_newline_with_bad_payload_is_truncated(self, tmp_path):
        with _log(tmp_path) as log:
            log.append_many([(u, 1, 0.0) for u in range(4)])
            segment = log._segment_paths[-1]
        with open(segment, "ab") as handle:
            handle.write(b'{"u":99}\n')  # newline landed, payload did not
        with _log(tmp_path) as log:
            assert log.end_offset == 4

    def test_commit_offsets_are_durable_and_validated(self, tmp_path):
        with _log(tmp_path) as log:
            log.append_many([(u, 1, 0.0) for u in range(8)])
            assert log.committed("trainer") == 0
            assert log.lag("trainer") == 8
            log.commit("trainer", 5)
            assert log.committed("trainer") == 5
            assert log.lag("trainer") == 3
            with pytest.raises(ValueError, match="outside the log extent"):
                log.commit("trainer", 9)
            with pytest.raises(ValueError, match="invalid consumer"):
                log.commit("../escape", 1)
        with _log(tmp_path) as log:  # commit survives reopen
            assert log.committed("trainer") == 5

    def test_describe_reports_consumers(self, tmp_path):
        with _log(tmp_path) as log:
            log.append_many([(1, 1, 0.0)] * 3)
            log.commit("trainer", 2)
            status = log.describe()
        assert status["end_offset"] == 3
        assert status["committed"] == {"trainer": 2}
        json.dumps(status)  # JSON-serialisable contract

    def test_read_snapshot_excludes_concurrent_appends(self, tmp_path):
        with _log(tmp_path) as log:
            log.append_many([(u, 1, 0.0) for u in range(5)])
            iterator = log.read(0)
            first = next(iterator)
            log.append_many([(9, 9, 9.0)] * 5)
            rest = list(iterator)
        assert first.offset == 0
        assert [e.offset for e in rest] == [1, 2, 3, 4]


# --------------------------------------------------------------------- #
# Online whitening statistics
# --------------------------------------------------------------------- #
class TestOnlineWhitener:
    def test_statistics_match_batch_fit(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(200, 8)) @ rng.normal(size=(8, 8))
        whitener = OnlineWhitener(dim=8, eps=1e-5)
        for start in range(0, 200, 13):  # uneven batches on purpose
            whitener.ingest(rows[start:start + 13])
        mean, covariance = centered_covariance(rows, eps=1e-5)
        assert whitener.count == 200
        np.testing.assert_allclose(whitener.mean, mean, atol=1e-12)
        np.testing.assert_allclose(whitener.covariance(), covariance,
                                   atol=1e-10)

    def test_transform_matches_batch_transform(self):
        rng = np.random.default_rng(1)
        rows = rng.normal(size=(120, 6)) * np.linspace(0.5, 3.0, 6)
        whitener = OnlineWhitener(dim=6, method="zca", eps=1e-5)
        whitener.ingest(rows[:50])
        whitener.ingest(rows[50:])
        online = whitener.transform()
        batch = get_whitening("zca", eps=1e-5)
        batch.fit(rows)
        np.testing.assert_allclose(online.matrix_, batch.matrix_, atol=1e-10)
        np.testing.assert_allclose(online.transform(rows),
                                   batch.transform(rows), atol=1e-9)

    def test_drift_triggers_refit_and_refit_resets(self):
        rng = np.random.default_rng(2)
        base = rng.normal(size=(100, 4))
        whitener = OnlineWhitener(dim=4, drift_threshold=0.2)
        whitener.ingest(base)
        assert whitener.drift() == pytest.approx(0.0)
        assert not whitener.needs_refit
        whitener.ingest(base + 8.0)  # a very different regime
        assert whitener.needs_refit
        catalogue = np.vstack([base, base + 8.0])
        whitener.refit(catalogue)
        assert not whitener.needs_refit
        assert whitener.refit_count == 1
        mean, covariance = centered_covariance(catalogue, eps=0.0)
        np.testing.assert_allclose(whitener.covariance(ridge=False),
                                   covariance, atol=1e-10)
        np.testing.assert_allclose(whitener.mean, mean, atol=1e-12)

    def test_rejects_non_matrix_methods_and_bad_shapes(self):
        with pytest.raises((ValueError, KeyError)):
            OnlineWhitener(dim=4, method="iterative-normalization")
        whitener = OnlineWhitener(dim=4)
        with pytest.raises(ValueError, match="batch"):
            whitener.ingest(np.zeros((3, 5)))
        with pytest.raises(RuntimeError):
            whitener.covariance()


# --------------------------------------------------------------------- #
# Detached snapshots (the serving-aliasing hazard)
# --------------------------------------------------------------------- #
class TestDetachedSnapshots:
    def test_snapshot_shares_no_memory_with_model(self, stream_setup):
        _, _, features, make_model = stream_setup
        model = make_model(0)
        checkpoint = Checkpoint.snapshot(model, feature_table=features)
        params = dict(model.named_parameters())
        assert set(checkpoint.state) == set(params)
        for name, values in checkpoint.state.items():
            assert not np.shares_memory(values, params[name].data), name
        assert not np.shares_memory(checkpoint.feature_table, features)
        checkpoint.assert_detached_from(model)  # must not raise

    def test_assert_detached_catches_aliasing(self, stream_setup):
        _, _, features, make_model = stream_setup
        model = make_model(0)
        aliased = Checkpoint.snapshot(model, feature_table=features)
        name = next(iter(aliased.state))
        aliased.state[name] = dict(model.named_parameters())[name].data
        with pytest.raises(ValueError, match="aliases live parameter"):
            aliased.assert_detached_from(model)

    def test_save_checkpoint_rejects_aliased_state(self, stream_setup,
                                                   tmp_path):
        _, _, features, make_model = stream_setup
        model = make_model(0)
        aliased = Checkpoint.snapshot(model)
        name = next(iter(aliased.state))
        aliased.state[name] = dict(model.named_parameters())[name].data
        with pytest.raises(ValueError, match="aliases live parameter"):
            save_checkpoint(aliased, tmp_path / "bad.npz",
                            detached_from=model)

    def test_clone_model_is_independent(self, stream_setup):
        _, split, features, make_model = stream_setup
        model = make_model(0)
        clone = clone_model(model, feature_table=features,
                            train_sequences=split.train_sequences)
        source = dict(model.named_parameters())
        for name, param in clone.named_parameters():
            assert not np.shares_memory(param.data, source[name].data), name
            np.testing.assert_array_equal(param.data, source[name].data)

    def test_fine_tune_after_publish_cannot_move_served_scores(
            self, stream_setup, tmp_path):
        """The ISSUE's regression: once published, a deployment's scores are
        frozen no matter how hard the trainer keeps stepping in place."""
        _, split, features, make_model = stream_setup
        registry = ModelRegistry()
        with _log(tmp_path) as log:
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences,
                learning_rate=0.1, seed=0)
            publisher = Publisher(registry, tmp_path / "ckpt")
            publisher.publish(trainer, "arts")
            served = registry.get("arts")
            histories = [case.history for case in split.test[:6]]
            before = served.recommender.topk(histories, k=5)

            log.append_many([(1, (i % 30) + 1, 0.0) for i in range(60)])
            trainer.micro_epoch(passes=2)

            after = served.recommender.topk(histories, k=5)
            np.testing.assert_array_equal(before.items, after.items)
            np.testing.assert_array_equal(before.scores, after.scores)
            # ...while the trainer's own model genuinely moved:
            moved = dict(trainer.model.named_parameters())
            source = {name: values
                      for name, values in registry.get("arts")
                      .recommender.model.named_parameters()}
            assert any(not np.array_equal(moved[name].data, param.data)
                       for name, param in source.items())
        registry.close_all()


# --------------------------------------------------------------------- #
# Incremental trainer
# --------------------------------------------------------------------- #
class TestIncrementalTrainer:
    def test_micro_epoch_consumes_and_commits(self, stream_setup, tmp_path):
        _, split, features, make_model = stream_setup
        with _log(tmp_path) as log:
            users = sorted(split.train_sequences)[:4]
            log.append_many([(user, (user % 20) + 1, 0.0) for user in users])
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences, seed=0)
            assert trainer.events_behind == 4
            report = trainer.micro_epoch()
            assert (report.start_offset, report.end_offset) == (0, 4)
            assert report.events == 4
            assert report.examples == 4  # seeded histories -> every event
            assert np.isfinite(report.loss)
            assert report.ingest_lag_s >= 0.0
            assert report.users_touched == users
            assert trainer.events_behind == 0
            assert log.committed("trainer") == 4
            # Nothing pending: a no-op report, offset unchanged.
            idle = trainer.micro_epoch()
            assert idle.events == 0 and idle.end_offset == 4

    def test_at_least_once_resume_from_committed_offset(self, stream_setup,
                                                        tmp_path):
        _, split, features, make_model = stream_setup
        with _log(tmp_path) as log:
            log.append_many([(user, 3, 0.0)
                             for user in sorted(split.train_sequences)[:6]])
            first = IncrementalTrainer(make_model(0), log,
                                       feature_table=features,
                                       train_sequences=split.train_sequences)
            first.micro_epoch(max_events=4)
            assert log.committed("trainer") == 4
            # A crashed-and-restarted trainer resumes exactly at the commit.
            second = IncrementalTrainer(make_model(0), log,
                                        feature_table=features,
                                        train_sequences=split.train_sequences)
            assert second.offset == 4
            assert second.micro_epoch().events == 2

    def test_out_of_catalogue_items_are_skipped(self, stream_setup, tmp_path):
        dataset, split, features, make_model = stream_setup
        with _log(tmp_path) as log:
            user = sorted(split.train_sequences)[0]
            log.append_many([(user, dataset.num_items + 50, 0.0),
                             (user, 1, 0.0)])
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences)
            report = trainer.micro_epoch()
            assert report.events == 2
            assert report.examples == 1  # the unknown item trains nothing
            assert trainer.offset == 2  # ...but the offset still advances

    def test_run_until_caught_up_drains_in_bounded_epochs(self, stream_setup,
                                                          tmp_path):
        _, split, features, make_model = stream_setup
        with _log(tmp_path) as log:
            users = sorted(split.train_sequences)
            log.append_many([(users[i % len(users)], (i % 20) + 1, 0.0)
                             for i in range(10)])
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences)
            reports = trainer.run_until_caught_up(max_events_per_epoch=4)
            assert [r.events for r in reports] == [4, 4, 2]
            assert trainer.events_behind == 0


# --------------------------------------------------------------------- #
# Publisher: versioned hot-swap + freshness end-to-end
# --------------------------------------------------------------------- #
class TestPublisher:
    def test_publish_registers_then_bumps_versions(self, stream_setup,
                                                   tmp_path):
        _, split, features, make_model = stream_setup
        registry = ModelRegistry()
        with _log(tmp_path) as log:
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences)
            publisher = Publisher(registry, tmp_path / "ckpt")
            first = publisher.publish(trainer, "arts")
            assert (first.version, registry.get("arts").version) == (1, 1)
            second = publisher.publish(trainer, "arts")
            assert (second.version, registry.get("arts").version) == (2, 2)
            assert first.checkpoint_path != second.checkpoint_path
            assert publisher.publishes == 2
            for report in (first, second):
                assert report.total_ms >= 0.0
                json.dumps(report.to_dict())
        registry.close_all()

    def test_publish_rejects_non_checkpoint_sources(self, tmp_path):
        publisher = Publisher(ModelRegistry(), tmp_path / "ckpt")
        with pytest.raises(TypeError, match="IncrementalTrainer or "
                                            "Checkpoint"):
            publisher.publish(object(), "arts")

    def test_refresh_advances_the_shared_clock(self, stream_setup, tmp_path):
        _, split, features, make_model = stream_setup
        registry = ModelRegistry()
        with _log(tmp_path) as log:
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences)
            publisher = Publisher(registry, tmp_path / "ckpt")
            publisher.publish(trainer, "arts")
            recommender = registry.get("arts").recommender
            stamp = recommender.generation_clock.value
            assert publisher.refresh("arts") == stamp + 1
        registry.close_all()

    def test_event_to_visible_freshness(self, stream_setup, tmp_path):
        """ISSUE acceptance: an appended interaction is reflected in that
        user's served top-k after at most one publish cycle."""
        dataset, split, features, make_model = stream_setup
        registry = ModelRegistry()
        service = RecommenderService(registry)
        with _log(tmp_path) as log:
            trainer = IncrementalTrainer(
                make_model(0), log, feature_table=features,
                train_sequences=split.train_sequences,
                learning_rate=0.05, seed=0)
            publisher = Publisher(registry, tmp_path / "ckpt",
                                  service=service)
            publisher.publish(trainer, "arts")

            user = sorted(split.train_sequences)[0]
            history = list(split.train_sequences[user])
            target = (history[-1] % dataset.num_items) + 1
            payload = {"history": history[-10:], "k": 10}
            before = service.recommend(payload)
            assert before.deployment_version == 1

            log.append_many([(user, target, 0.0)] * 40)
            trainer.run_until_caught_up(passes=3)
            report = publisher.publish(trainer, "arts")

            after = service.recommend(payload)
            assert after.deployment_version == 2
            assert target in list(np.asarray(after.items).ravel())

            # What is served after the swap is exactly the published
            # checkpoint, ids and scores.
            reference = Deployment.from_checkpoint(
                "reference", report.checkpoint_path,
                config=ServingConfig(k=10))
            expected = reference.recommender.topk([payload["history"]], k=10)
            np.testing.assert_array_equal(after.items, expected.items[0])
            np.testing.assert_array_equal(after.scores, expected.scores[0])
            reference.close()
        service.close()
        registry.close_all()


# --------------------------------------------------------------------- #
# Hot swap under concurrent traffic: old or new, never torn
# --------------------------------------------------------------------- #
class TestHotSwapUnderTraffic:
    @pytest.mark.parametrize("config", [
        ServingConfig(k=5),
        ServingConfig(k=5, shards=2, shard_backend="local"),
    ], ids=["batched", "sharded"])
    def test_concurrent_requests_see_old_or_new_never_torn(
            self, stream_setup, tmp_path, config):
        _, split, features, make_model = stream_setup
        old_model, new_model = make_model(0), make_model(1)
        path = save_checkpoint(new_model, tmp_path / "v2.npz",
                               feature_table=features)

        registry = ModelRegistry()
        registry.register(Deployment(
            "m",
            Recommender(old_model, store=EmbeddingStore(features),
                        train_sequences=split.train_sequences, config=config),
            config=config))
        service = RecommenderService(registry)

        histories = [case.history for case in split.test[:8]]
        # Bit-exact per-version references from independent recommenders.
        reference = {
            1: Recommender(make_model(0), store=EmbeddingStore(features),
                           train_sequences=split.train_sequences,
                           config=config).topk(histories, k=5),
            2: Recommender(make_model(1), store=EmbeddingStore(features),
                           train_sequences=split.train_sequences,
                           config=config).topk(histories, k=5),
        }
        assert not np.array_equal(reference[1].items, reference[2].items), \
            "swap test needs models that disagree"

        results = []
        errors = []
        stop = threading.Event()

        def traffic(worker):
            row = worker
            while not stop.is_set():
                payload = {"history": histories[row], "k": 5,
                           "request_id": f"w{worker}"}
                try:
                    response = service.recommend(payload)
                except Exception as error:  # noqa: BLE001 - recorded, asserted
                    errors.append(error)
                    return
                results.append((row, response.deployment_version,
                                np.asarray(response.items).copy(),
                                np.asarray(response.scores).copy()))
                row = (row + 1) % len(histories)

        workers = [threading.Thread(target=traffic, args=(index,))
                   for index in range(4)]
        for worker in workers:
            worker.start()
        time.sleep(0.05)
        fresh = service.reload("m", checkpoint_path=path, config=config)
        assert fresh.version == 2
        time.sleep(0.05)
        stop.set()
        for worker in workers:
            worker.join(timeout=30)

        assert not errors, errors
        versions = {version for _, version, _, _ in results}
        assert versions <= {1, 2}
        assert 2 in versions, "no request observed the new version"
        for row, version, items, scores in results:
            np.testing.assert_array_equal(
                items, reference[version].items[row],
                err_msg=f"torn read: version {version}, row {row}")
            np.testing.assert_array_equal(
                scores, reference[version].scores[row],
                err_msg=f"torn scores: version {version}, row {row}")
        service.close()
        registry.close_all()


class TestStreamCommand:
    def test_temporary_log_is_removed(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        assert cli_main(["stream", "run", "arts", "--cycles", "1"]) == 0
        assert "cycle 1:" in capsys.readouterr().out
        assert list(tmp_path.glob("repro-stream-*")) == []

    def test_given_log_and_checkpoints_are_kept(self, tmp_path, capsys):
        log_dir, checkpoints = tmp_path / "log", tmp_path / "ckpt"
        with InteractionLog(log_dir, durable=False) as log:
            log.append_many([(1, 2, 0.0), (2, 3, 0.0)])
        assert cli_main(["stream", "run", "arts", "--cycles", "1",
                         "--log", str(log_dir),
                         "--checkpoints", str(checkpoints)]) == 0
        capsys.readouterr()
        assert log_dir.is_dir()
        assert sorted(path.name for path in checkpoints.iterdir()) == [
            "arts-v000001.npz", "arts-v000002.npz"]
