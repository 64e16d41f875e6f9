"""Chaos suite for `repro.resilience`: overload, deadlines, failure injection.

Covers: the circuit-breaker state machine on an injected clock (no sleeps),
seeded retry backoff, the deterministic FaultPlan (same seed -> byte-equal
fired-fault signatures), pool-level fault injection (kill / delay / drop map
to the pool's typed errors), the ResilientShardClient degradation ladder
(retry -> breaker -> bit-identical in-process fallback), bounded-queue
admission policies and the batcher worker-crash regression (no stranded
futures, service keeps answering), deadline propagation (an expired request
never reaches scoring), the HTTP status mapping (429 + Retry-After / 504 /
clean 500) with the split liveness/readiness probes, and the load
generator's outcome classification.
"""

from __future__ import annotations

import json
import io
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro.data import load_dataset
from repro.data.splits import leave_one_out_split
from repro.models import ModelConfig, build_model
from repro.observability import (find_max_sustainable_rps, run_open_loop,
                                 session_requests)
from repro.resilience import (BREAKER_STATE_CODES, BatcherCrashed,
                              CircuitBreaker, DeadlineExceeded, FaultAction,
                              FaultPlan, InflightGate, OverloadError,
                              ResilientShardClient, RetryPolicy,
                              deadline_from_budget_ms, expired, remaining_s)
from repro.service import (Deployment, DynamicBatcher, ModelRegistry,
                           RecommenderService, RecommendRequest, RequestError,
                           ServiceHTTPServer, ServingConfig, serve_jsonl)
from repro.serving import EmbeddingStore, Recommender
from repro.shard import (LocalShardClient, ShardPool, ShardTimeout,
                         WorkerCrashed)
from repro.text import encode_items


@pytest.fixture(scope="module")
def rsetup():
    """Tiny untrained-but-deterministic model + split (serving-path tests)."""
    dataset = load_dataset("arts", scale="tiny", seed=3,
                           num_users=150, num_items=90, min_sequence_length=4)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=16, seed=3)
    config = ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                         dropout=0.1, max_seq_length=12, seed=0)
    model = build_model("whitenrec", dataset.num_items,
                        feature_table=features, config=config)
    return dataset, split, features, model


def _recommender(rsetup, **kwargs):
    _, split, features, model = rsetup
    return Recommender(model, store=EmbeddingStore(features),
                       train_sequences=split.train_sequences, **kwargs)


@pytest.fixture(scope="module")
def shard_matrix():
    """A small deterministic item matrix for pool-level fault tests."""
    rng = np.random.default_rng(11)
    return rng.standard_normal((60, 8)).astype(np.float32)


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# --------------------------------------------------------------------- #
# Circuit breaker
# --------------------------------------------------------------------- #
class TestCircuitBreaker:
    def make(self, clock, **kwargs):
        defaults = dict(window=10, failure_threshold=0.5, min_calls=4,
                        reset_after_s=5.0, probe_calls=2, clock=clock)
        defaults.update(kwargs)
        return CircuitBreaker(**defaults)

    def test_volume_gate_before_tripping(self):
        breaker = self.make(FakeClock())
        for _ in range(3):  # 100% failures but below min_calls
            breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()  # 4th: volume gate met, rate 1.0 >= 0.5
        assert breaker.state == "open"
        assert breaker.opens == 1
        assert not breaker.allow()

    def test_failure_rate_threshold(self):
        breaker = self.make(FakeClock())
        for _ in range(6):
            breaker.record_success()
        for _ in range(5):
            breaker.record_failure()
        # window of 10 holds 5 ok + 5 failed = 50% >= threshold
        assert breaker.state == "open"

    def test_cooldown_half_open_and_probe_budget(self):
        clock = FakeClock()
        breaker = self.make(clock, min_calls=1, failure_threshold=0.5)
        breaker.record_failure()
        assert breaker.state == "open"
        clock.advance(4.9)
        assert not breaker.allow()
        clock.advance(0.2)  # past reset_after_s
        assert breaker.state == "half-open"
        assert breaker.allow()   # probe 1
        assert breaker.allow()   # probe 2
        assert not breaker.allow()  # probe budget exhausted

    def test_probe_failure_reopens_and_restarts_cooldown(self):
        clock = FakeClock()
        breaker = self.make(clock, min_calls=1)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "open"
        assert breaker.opens == 2
        clock.advance(4.0)  # cooldown restarted: still open
        assert breaker.state == "open"

    def test_probe_successes_close_and_clear_window(self):
        clock = FakeClock()
        breaker = self.make(clock, min_calls=1)
        breaker.record_failure()
        clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "half-open"  # one of two probes
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.failure_rate() == 0.0  # window cleared

    def test_state_codes_and_stats(self):
        clock = FakeClock()
        breaker = self.make(clock, min_calls=1)
        assert breaker.state_code == BREAKER_STATE_CODES["closed"] == 0
        breaker.record_failure()
        assert breaker.state_code == 2
        stats = breaker.stats()
        assert stats["state"] == "open"
        assert stats["state_code"] == 2
        assert stats["opens"] == 1
        clock.advance(5.1)
        assert breaker.state_code == 1

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            CircuitBreaker(window=0)
        with pytest.raises(ValueError):
            CircuitBreaker(failure_threshold=0.0)
        with pytest.raises(ValueError):
            CircuitBreaker(reset_after_s=0.0)


# --------------------------------------------------------------------- #
# Retry policy & fault plans
# --------------------------------------------------------------------- #
class TestRetryPolicy:
    def test_attempt_gating(self):
        policy = RetryPolicy(max_retries=1)
        assert policy.should_retry(0)
        assert not policy.should_retry(1)

    def test_seeded_backoff_is_deterministic_and_bounded(self):
        first = RetryPolicy(max_retries=3, base_backoff_ms=10.0, seed=42)
        second = RetryPolicy(max_retries=3, base_backoff_ms=10.0, seed=42)
        for attempt in range(3):
            a, b = first.backoff_s(attempt), second.backoff_s(attempt)
            assert a == b
            assert 0.0 <= a <= 10.0 * (2 ** attempt) / 1000.0


class TestFaultPlan:
    def test_action_validation(self):
        with pytest.raises(ValueError):
            FaultAction(kind="explode", shard=0, at_search=0)
        with pytest.raises(ValueError):
            FaultAction(kind="delay", shard=0, at_search=0)  # delay_s <= 0
        with pytest.raises(ValueError):
            FaultAction(kind="kill", shard=-1, at_search=0)

    def test_seeded_plans_are_reproducible(self):
        first = FaultPlan.seeded(7, num_shards=3, searches=20,
                                 kills=2, delays=1, drops=1)
        second = FaultPlan.seeded(7, num_shards=3, searches=20,
                                  kills=2, delays=1, drops=1)
        assert first.describe() == second.describe()
        different = FaultPlan.seeded(8, num_shards=3, searches=20,
                                     kills=2, delays=1, drops=1)
        assert first.describe() != different.describe()

    def test_replay_log_signatures_are_byte_identical(self):
        plans = [FaultPlan.seeded(3, num_shards=2, searches=10,
                                  kills=1, drops=1) for _ in range(2)]
        for plan in plans:
            for search_index in range(10):
                plan.actions_for(search_index)
        assert plans[0].signature() == plans[1].signature()
        assert plans[0].pending == 0

    def test_same_search_actions_fire_in_canonical_order(self):
        scrambled = FaultPlan([
            FaultAction("drop", shard=1, at_search=2),
            FaultAction("kill", shard=0, at_search=2),
        ])
        fired = scrambled.actions_for(2)
        assert [(a.shard, a.kind) for a in fired] == [(0, "kill"), (1, "drop")]


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #
class TestInflightGate:
    def test_unlimited_gate_admits_everything(self):
        gate = InflightGate(None)
        for _ in range(100):
            gate.acquire()
        assert gate.inflight == 100
        assert gate.rejected == 0

    def test_limit_sheds_with_typed_error(self):
        gate = InflightGate(2, retry_after_s=3.0)
        gate.acquire()
        gate.acquire()
        with pytest.raises(OverloadError) as excinfo:
            gate.acquire()
        assert excinfo.value.retry_after_s == 3.0
        assert gate.rejected == 1
        gate.release()
        gate.acquire()  # space freed
        assert gate.peak == 2

    def test_context_manager_releases(self):
        gate = InflightGate(1)
        with gate:
            assert gate.inflight == 1
        assert gate.inflight == 0

    def test_limit_validation(self):
        with pytest.raises(ValueError):
            InflightGate(0)


class TestBatcherAdmission:
    """Bounded-queue overload policies on a manual-mode batcher (the queue
    never drains by itself, so 'full' is deterministic)."""

    @pytest.fixture()
    def recommender(self, rsetup):
        return _recommender(rsetup)

    def test_reject_policy_sheds_the_arrival(self, rsetup, recommender):
        _, split, _, _ = rsetup
        history = split.test[0].history
        with DynamicBatcher(recommender, start=False, max_queue=2,
                            overload_policy="reject") as batcher:
            batcher.submit(history)
            batcher.submit(history)
            with pytest.raises(OverloadError):
                batcher.submit(history)
            assert batcher.stats().rejected == 1
            assert batcher.queue_depth == 2
            batcher.flush()

    def test_shed_oldest_policy_evicts_the_stalest_future(self, rsetup,
                                                          recommender):
        _, split, _, _ = rsetup
        history = split.test[0].history
        with DynamicBatcher(recommender, start=False, max_queue=2,
                            overload_policy="shed-oldest") as batcher:
            oldest = batcher.submit(history)
            second = batcher.submit(history)
            third = batcher.submit(history)  # evicts `oldest`
            with pytest.raises(OverloadError):
                oldest.result(timeout=1.0)
            assert batcher.stats().shed == 1
            batcher.flush()
            assert second.result(timeout=5.0).items.size > 0
            assert third.result(timeout=5.0).items.size > 0

    def test_block_policy_honours_the_deadline(self, rsetup, recommender):
        _, split, _, _ = rsetup
        history = split.test[0].history
        with DynamicBatcher(recommender, start=False, max_queue=1,
                            overload_policy="block") as batcher:
            batcher.submit(history)
            deadline = time.monotonic() + 0.05
            started = time.perf_counter()
            with pytest.raises(DeadlineExceeded):
                batcher.submit(history, deadline=deadline)
            waited = time.perf_counter() - started
            assert waited < 2.0  # bounded by the deadline, not forever
            assert batcher.stats().expired == 1
            batcher.flush()

    def test_invalid_admission_configuration(self, recommender):
        with pytest.raises(ValueError):
            DynamicBatcher(recommender, start=False, max_queue=0)
        with pytest.raises(ValueError):
            DynamicBatcher(recommender, start=False,
                           overload_policy="drop-newest")


# --------------------------------------------------------------------- #
# Batcher worker crash (the stranded-futures regression)
# --------------------------------------------------------------------- #
class TestBatcherWorkerCrash:
    def test_worker_death_fails_futures_with_typed_error(self, rsetup):
        _, split, _, _ = rsetup
        recommender = _recommender(rsetup)
        batcher = DynamicBatcher(recommender, start=False, max_wait_ms=1.0)

        def explode(batch):
            raise MemoryError("simulated worker OOM")

        batcher._process = explode  # crash the worker loop itself
        batcher.start()
        future = batcher.submit(split.test[0].history)
        with pytest.raises(BatcherCrashed) as excinfo:
            future.result(timeout=10.0)
        assert isinstance(excinfo.value.__cause__, MemoryError)
        stats = batcher.stats()
        assert stats.worker_crashes == 1
        assert stats.failed >= 1
        assert isinstance(batcher.worker_error, MemoryError)
        assert batcher.closed  # refuses new work instead of stranding it
        with pytest.raises(RuntimeError):
            batcher.submit(split.test[0].history)

    def test_service_keeps_answering_after_worker_crash(self, rsetup):
        _, split, _, _ = rsetup
        registry = ModelRegistry()
        registry.register(Deployment("arts", _recommender(rsetup),
                                     config=ServingConfig(k=5)))
        with RecommenderService(registry, max_wait_ms=1.0) as service:
            history = split.test[0].history
            baseline = service.recommend({"history": history})
            batcher = next(iter(service._batchers.values()))

            def explode(batch):
                raise MemoryError("simulated worker OOM")

            batcher._process = explode
            # This request rides the crashing worker; the service catches the
            # BatcherCrashed future and re-serves it on the direct path.
            crashed = service.recommend({"history": history}, timeout=10.0)
            assert crashed.items == baseline.items
            # Subsequent requests keep flowing (direct path, same bits).
            after = service.recommend({"history": history}, timeout=10.0)
            assert after.items == baseline.items
            assert after.scores == baseline.scores


# --------------------------------------------------------------------- #
# Deadline propagation
# --------------------------------------------------------------------- #
class TestDeadlinePropagation:
    def test_deadline_helpers(self):
        deadline = deadline_from_budget_ms(50.0)
        assert not expired(deadline)
        assert 0.0 < remaining_s(deadline) <= 0.05 + 1e-6
        past = deadline_from_budget_ms(1.0) - 1.0
        assert expired(past)
        assert remaining_s(past) < 0.0  # negative by contract, never clamped
        assert remaining_s(None) is None
        assert not expired(None)

    def test_envelope_validates_deadline_ms(self):
        request = RecommendRequest(history=[1, 2], deadline_ms=250)
        assert request.deadline_ms == 250.0
        assert request.to_dict()["deadline_ms"] == 250.0
        for bad in (0, True, "fast", float("nan"), float("inf")):
            with pytest.raises(RequestError):
                RecommendRequest(history=[1], deadline_ms=bad)

    def test_expired_deadline_never_reaches_scoring(self, rsetup):
        _, split, _, _ = rsetup
        recommender = _recommender(rsetup)
        calls = {"count": 0}
        original = recommender.score

        def counting_score(*args, **kwargs):
            calls["count"] += 1
            return original(*args, **kwargs)

        recommender.score = counting_score
        with pytest.raises(DeadlineExceeded):
            recommender.topk([split.test[0].history], k=5,
                             deadline=time.monotonic() - 0.001)
        assert calls["count"] == 0

    def test_batcher_fails_expired_requests_at_dequeue(self, rsetup):
        _, split, _, _ = rsetup
        recommender = _recommender(rsetup)
        with DynamicBatcher(recommender, start=False) as batcher:
            dead = batcher.submit(split.test[0].history,
                                  deadline=time.monotonic() - 0.001)
            live = batcher.submit(split.test[1].history)
            batcher.flush()
            with pytest.raises(DeadlineExceeded):
                dead.result(timeout=1.0)
            assert live.result(timeout=5.0).items.size > 0
            stats = batcher.stats()
            assert stats.expired == 1
            assert stats.completed == 1

    def test_service_counts_deadline_expiry(self, rsetup):
        _, split, _, _ = rsetup
        registry = ModelRegistry()
        registry.register(Deployment("arts", _recommender(rsetup),
                                     config=ServingConfig(k=5)))
        with RecommenderService(registry, max_wait_ms=20.0) as service:
            with pytest.raises(DeadlineExceeded):
                # 1 microsecond of budget expires in the batcher queue
                service.recommend({"history": split.test[0].history,
                                   "deadline_ms": 0.001}, timeout=10.0)
            assert service.stats()["deadline_expired"] == 1
            # an un-deadlined request is untouched
            response = service.recommend({"history": split.test[0].history})
            assert len(response.items) == 5


# --------------------------------------------------------------------- #
# The resilient shard client (unit level, scripted primary)
# --------------------------------------------------------------------- #
class _ScriptedClient:
    """A ShardClient stand-in whose search follows a scripted outcome list."""

    def __init__(self, outcomes, matrix=None):
        self.outcomes = list(outcomes)
        self.calls = 0
        self.ranges = [(0, 10)]
        self.num_rows = 10
        self.dim = 4
        self.closed = False

    def search(self, queries, k, *, exclude=None, backend="exact",
               timeout=None):
        self.calls += 1
        outcome = (self.outcomes.pop(0) if self.outcomes else "ok")
        if outcome == "crash":
            raise WorkerCrashed("scripted crash")
        if outcome == "timeout":
            raise ShardTimeout("scripted timeout")
        batch = np.asarray(queries).shape[0]
        return (np.tile(np.arange(1, k + 1, dtype=np.int64), (batch, 1)),
                np.zeros((batch, k), dtype=np.float32))

    def stats(self):
        return {"restarts": 0, "timeouts": 0, "calls": self.calls}

    def close(self):
        self.closed = True


class TestResilientShardClient:
    QUERIES = np.zeros((2, 4), dtype=np.float32)

    def make(self, outcomes, fallback=True, **kwargs):
        primary = _ScriptedClient(outcomes)
        fallback_client = _ScriptedClient([])
        factory = (lambda: fallback_client) if fallback else None
        guard = ResilientShardClient(
            primary, fallback_factory=factory,
            retry=kwargs.pop("retry", RetryPolicy(max_retries=1,
                                                  base_backoff_ms=0.0,
                                                  seed=0)),
            breaker=kwargs.pop("breaker", CircuitBreaker()),
            sleep=lambda seconds: None)
        return guard, primary, fallback_client

    def test_healthy_path_reports_no_degradation(self):
        guard, primary, _ = self.make([])
        ids, scores, info = guard.search_ex(self.QUERIES, 3, exclude=None)
        assert ids.shape == (2, 3)
        assert info == {"degraded": False, "retries": 0,
                        "breaker_state": "closed"}
        assert primary.calls == 1

    def test_worker_crash_is_retried_once(self):
        guard, primary, fallback = self.make(["crash"])
        ids, _, info = guard.search_ex(self.QUERIES, 3, exclude=None)
        assert primary.calls == 2  # crash + successful retry
        assert info["retries"] == 1
        assert not info["degraded"]
        assert fallback.calls == 0
        assert guard.stats()["retries"] == 1

    def test_exhausted_retries_degrade_to_fallback(self):
        guard, primary, fallback = self.make(["crash", "crash"])
        _, _, info = guard.search_ex(self.QUERIES, 3, exclude=None)
        assert primary.calls == 2
        assert fallback.calls == 1
        assert info["degraded"]
        stats = guard.stats()
        assert stats["degraded_requests"] == 1
        assert stats["fallback_built"]

    def test_no_fallback_reraises_the_crash(self):
        guard, _, _ = self.make(["crash", "crash"], fallback=False)
        with pytest.raises(WorkerCrashed):
            guard.search_ex(self.QUERIES, 3, exclude=None)

    def test_timeouts_are_never_retried(self):
        guard, primary, fallback = self.make(["timeout"])
        with pytest.raises(ShardTimeout):
            guard.search_ex(self.QUERIES, 3, exclude=None)
        assert primary.calls == 1  # no retry: may be the caller's own budget
        assert fallback.calls == 0

    def test_open_breaker_routes_straight_to_fallback(self):
        breaker = CircuitBreaker(min_calls=1, failure_threshold=0.5)
        breaker.record_failure()  # trip it
        guard, primary, fallback = self.make([], breaker=breaker)
        _, _, info = guard.search_ex(self.QUERIES, 3, exclude=None)
        assert primary.calls == 0  # the pool gets its cooldown
        assert fallback.calls == 1
        assert info["degraded"]
        assert info["breaker_state"] == "open"

    def test_sustained_failure_trips_the_breaker(self):
        breaker = CircuitBreaker(window=10, min_calls=2,
                                 failure_threshold=0.5)
        guard, primary, fallback = self.make(["crash"] * 10, breaker=breaker)
        guard.search_ex(self.QUERIES, 3, exclude=None)
        assert breaker.state == "open"  # two recorded failures tripped it
        # and while open the pool is left alone
        calls_before = primary.calls
        guard.search_ex(self.QUERIES, 3, exclude=None)
        assert primary.calls == calls_before

    def test_delegation_and_stats_merge(self):
        guard, primary, _ = self.make([])
        assert guard.ranges == primary.ranges
        assert guard.num_rows == primary.num_rows
        assert guard.calls == primary.calls  # __getattr__ pass-through
        stats = guard.stats()
        assert stats["restarts"] == 0  # primary keys preserved
        assert stats["breaker_state"] == "closed"
        guard.close()
        assert primary.closed


# --------------------------------------------------------------------- #
# Pool-level fault injection
# --------------------------------------------------------------------- #
@pytest.mark.timeout(180)
class TestPoolFaultInjection:
    def queries(self):
        rng = np.random.default_rng(5)
        return rng.standard_normal((3, 8)).astype(np.float32)

    def test_kill_fault_raises_worker_crashed_then_recovers(self,
                                                            shard_matrix):
        plan = FaultPlan([FaultAction("kill", shard=0, at_search=0)])
        pool = ShardPool.from_matrix(shard_matrix, 2, timeout=30.0)
        try:
            pool.ping()
            pool.set_fault_plan(plan)
            with pytest.raises(WorkerCrashed):
                pool.search(self.queries(), 5)
            # the next search respawns the worker and serves
            ids, scores = pool.search(self.queries(), 5)
            assert ids.shape == (3, 5)
            assert pool.stats()["restarts"] >= 1
        finally:
            pool.close()
        assert plan.log == [(0, 0, "kill", 0.0)]

    def test_drop_fault_raises_shard_timeout(self, shard_matrix):
        plan = FaultPlan([FaultAction("drop", shard=1, at_search=0)])
        pool = ShardPool.from_matrix(shard_matrix, 2, timeout=60.0)
        try:
            pool.timeout = 0.5  # tight gather budget once workers are warm
            pool.set_fault_plan(plan)
            with pytest.raises(ShardTimeout):
                pool.search(self.queries(), 5)
            timeouts = pool.stats()["timeouts"]
            assert timeouts >= 1
            # stale-reply draining: the pool stays serviceable afterwards
            pool.set_fault_plan(None)
            ids, _ = pool.search(self.queries(), 5)
            assert ids.shape == (3, 5)
        finally:
            pool.close()

    def test_delay_fault_slows_but_preserves_bits(self, shard_matrix):
        reference = LocalShardClient(shard_matrix, 2)
        expected_ids, expected_scores = reference.search(self.queries(), 5)
        plan = FaultPlan([FaultAction("delay", shard=0, at_search=0,
                                      delay_s=0.3)])
        pool = ShardPool.from_matrix(shard_matrix, 2, timeout=30.0)
        try:
            pool.ping()
            pool.set_fault_plan(plan)
            started = time.perf_counter()
            ids, scores = pool.search(self.queries(), 5)
            elapsed = time.perf_counter() - started
        finally:
            pool.close()
        assert elapsed >= 0.25
        assert np.array_equal(ids, expected_ids)
        assert np.array_equal(scores, expected_scores)

    def test_identical_seeded_runs_fire_identical_fault_sequences(
            self, shard_matrix):
        signatures = []
        outcome_runs = []
        for _ in range(2):
            plan = FaultPlan.seeded(13, num_shards=2, searches=6,
                                    kills=1, drops=1)
            pool = ShardPool.from_matrix(shard_matrix, 2, timeout=60.0)
            outcomes = []
            try:
                pool.timeout = 0.5  # tight gather budget once workers are warm
                pool.set_fault_plan(plan)
                for _ in range(6):
                    try:
                        pool.search(self.queries(), 5)
                        outcomes.append("ok")
                    except WorkerCrashed:
                        outcomes.append("crash")
                        # The next search respawns the killed worker — a
                        # fresh interpreter that re-imports numpy and
                        # re-attaches the matrix.  On a loaded single-core
                        # box that startup can exceed the tight gather
                        # budget and turn a deterministic "ok" into a
                        # spurious "timeout", so wait for the respawn on a
                        # wide budget before resuming the tight one.
                        pool.ping(timeout=60.0)
                    except ShardTimeout:
                        outcomes.append("timeout")
            finally:
                pool.close()
            signatures.append(plan.signature())
            outcome_runs.append(outcomes)
        assert signatures[0] == signatures[1]  # byte-identical replay log
        assert outcome_runs[0] == outcome_runs[1]
        assert set(outcome_runs[0]) & {"crash", "timeout"}  # faults fired


# --------------------------------------------------------------------- #
# Guarded sharded serving (integration: retry + degrade, bit-identity)
# --------------------------------------------------------------------- #
@pytest.mark.timeout(180)
class TestGuardedShardedServing:
    def test_process_pool_is_wrapped_in_the_guard(self, rsetup):
        recommender = _recommender(rsetup, config=ServingConfig(
            shards=2, shard_backend="process"))
        try:
            client = recommender.shard_client()
            assert isinstance(client, ResilientShardClient)
            stats = recommender.shard_stats()
            assert stats["breaker_state"] == "closed"
            assert stats["degraded_requests"] == 0
            assert "restarts" in stats  # pool keys still exposed
        finally:
            recommender.close()

    def test_worker_kill_under_traffic_retries_transparently(self, rsetup):
        _, split, _, _ = rsetup
        histories = [case.history for case in split.test[:6]]
        reference = _recommender(rsetup)
        expected = reference.topk(histories, k=8)
        recommender = _recommender(rsetup, config=ServingConfig(
            shards=2, shard_backend="process"))
        try:
            recommender.shard_client().ping()  # spawn before injecting
            plan = FaultPlan([FaultAction("kill", shard=0, at_search=0)])
            recommender.shard_client().set_fault_plan(plan)
            result = recommender.topk(histories, k=8)
            assert result.shard_retries == 1
            assert not result.degraded  # retry absorbed it, no fallback
            assert np.array_equal(result.items, expected.items)
            assert np.array_equal(result.scores, expected.scores)
            assert plan.signature() == json.dumps([[0, 0, "kill", 0.0]],
                                                  sort_keys=True)
        finally:
            recommender.close()

    def test_open_breaker_degrades_bit_identically(self, rsetup):
        _, split, _, _ = rsetup
        histories = [case.history for case in split.test[:6]]
        reference = _recommender(rsetup)
        expected = reference.topk(histories, k=8)
        recommender = _recommender(rsetup, config=ServingConfig(
            shards=2, shard_backend="process"))
        try:
            client = recommender.shard_client()
            tripped = CircuitBreaker(min_calls=1, failure_threshold=0.5,
                                     reset_after_s=3600.0)
            tripped.record_failure()
            client.breaker = tripped
            result = recommender.topk(histories, k=8)
            assert result.degraded
            assert np.array_equal(result.items, expected.items)
            assert np.array_equal(result.scores, expected.scores)
            stats = recommender.shard_stats()
            assert stats["degraded_requests"] >= 1
            assert stats["breaker_state"] == "open"
        finally:
            recommender.close()


# --------------------------------------------------------------------- #
# Service edge: shedding, metrics, recovery under live traffic
# --------------------------------------------------------------------- #
class TestServiceOverload:
    def test_inflight_gate_sheds_and_counts(self, rsetup):
        _, split, _, _ = rsetup
        registry = ModelRegistry()
        registry.register(Deployment("arts", _recommender(rsetup),
                                     config=ServingConfig(k=5)))
        with RecommenderService(registry, max_inflight=1) as service:
            service._gate.acquire()  # simulate one admitted request in flight
            try:
                with pytest.raises(OverloadError):
                    service.recommend({"history": split.test[0].history})
            finally:
                service._gate.release()
            stats = service.stats()
            assert stats["requests_shed"] == 1
            assert stats["request_errors"] == 0  # shedding is not an error
            # the slot freed: traffic flows again
            response = service.recommend({"history": split.test[0].history})
            assert len(response.items) == 5

    def test_bounded_queue_shedding_through_the_service(self, rsetup):
        _, split, _, _ = rsetup
        registry = ModelRegistry()
        registry.register(Deployment("arts", _recommender(rsetup),
                                     config=ServingConfig(k=5)))
        service = RecommenderService(registry, autostart_batchers=False,
                                     max_queue=1, overload_policy="reject")
        try:
            deployment = service.registry.get("arts")
            first = service._submit(
                RecommendRequest(history=split.test[0].history), deployment)
            assert first is not None
            with pytest.raises(OverloadError):
                service.recommend({"history": split.test[1].history})
            assert service.stats()["requests_shed"] == 1
            service.flush()
            assert first.result(timeout=5.0).items.size > 0
        finally:
            service.close()

    def test_resilience_metrics_are_exported(self, rsetup):
        _, split, _, _ = rsetup
        registry = ModelRegistry()
        registry.register(Deployment("arts", _recommender(rsetup),
                                     config=ServingConfig(k=5)))
        with RecommenderService(registry) as service:
            service.recommend({"history": split.test[0].history})
            text = service.render_metrics()
        assert "repro_requests_shed_total" in text
        assert "repro_deadline_expired_total" in text
        assert "repro_queue_depth" in text


@pytest.mark.timeout(180)
class TestChaosRecovery:
    """The acceptance scenario: a worker is killed under live traffic and
    nothing hangs — every request completes, at most the one retried window
    pays extra latency, and the breaker metrics show recovery."""

    def test_worker_kill_under_live_traffic_leaves_no_hung_requests(
            self, rsetup):
        _, split, _, _ = rsetup
        histories = [split.test[i % len(split.test)].history
                     for i in range(12)]
        reference = _recommender(rsetup)
        expected = {tuple(h): reference.topk([h], k=5) for h in histories}

        registry = ModelRegistry()
        registry.register(Deployment(
            "arts",
            _recommender(rsetup, config=ServingConfig(
                shards=2, shard_backend="process")),
            config=ServingConfig(k=5, shards=2, shard_backend="process")))
        with RecommenderService(registry, max_wait_ms=1.0) as service:
            recommender = registry.get("arts").recommender
            recommender.shard_client().ping()
            # index 0: the batcher may coalesce the burst into very few pool
            # searches, so only the first scatter is guaranteed to happen
            plan = FaultPlan([FaultAction("kill", shard=1, at_search=0)])
            recommender.shard_client().set_fault_plan(plan)

            responses = [None] * len(histories)
            errors = []

            def drive(position):
                try:
                    responses[position] = service.recommend(
                        {"history": histories[position]}, timeout=60.0)
                except Exception as error:  # noqa: BLE001
                    errors.append(error)

            threads = [threading.Thread(target=drive, args=(position,))
                       for position in range(len(histories))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120.0)
            assert not any(thread.is_alive() for thread in threads), \
                "a request hung after the worker kill"
            assert not errors, f"requests failed: {errors!r}"
            assert all(response is not None for response in responses)

            retried = sum(response.shard_retries for response in responses)
            assert retried >= 1  # the kill was absorbed by a retry
            for position, response in enumerate(responses):
                want = expected[tuple(histories[position])]
                assert response.items == [int(i) for i in want.items[0]]

            # recovery is observable: the breaker closed again and the
            # retry/degraded counters surface through the Prometheus text
            service.collect_metrics()
            text = service.render_metrics()
            assert 'repro_breaker_state{deployment="arts"} 0' in text
            assert "repro_shard_retries_total" in text
            stats = recommender.shard_stats()
            assert stats["breaker_state"] == "closed"
            assert stats["retries"] >= 1


# --------------------------------------------------------------------- #
# HTTP front-end: status mapping and probes
# --------------------------------------------------------------------- #
class _HTTPHarness:
    def __init__(self, service):
        self.server = ServiceHTTPServer(service, port=0)
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        self.base = f"http://127.0.0.1:{self.server.port}"

    def request(self, path, payload=None):
        try:
            if payload is None:
                with urllib.request.urlopen(self.base + path,
                                            timeout=30.0) as response:
                    return (response.status, dict(response.headers),
                            json.loads(response.read().decode("utf-8")))
            body = json.dumps(payload).encode("utf-8")
            request = urllib.request.Request(
                self.base + path, data=body,
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return (response.status, dict(response.headers),
                        json.loads(response.read().decode("utf-8")))
        except urllib.error.HTTPError as error:
            return (error.code, dict(error.headers),
                    json.loads(error.read().decode("utf-8")))

    def close(self):
        self.server.shutdown()
        self.server.server_close()


@pytest.fixture()
def http_service(rsetup):
    registry = ModelRegistry()
    registry.register(Deployment("arts", _recommender(rsetup),
                                 config=ServingConfig(k=5)))
    service = RecommenderService(registry)
    harness = _HTTPHarness(service)
    yield service, harness
    harness.close()
    service.close()


class TestHTTPStatusMapping:
    def test_overload_maps_to_429_with_retry_after(self, rsetup, http_service):
        service, harness = http_service
        _, split, _, _ = rsetup

        def shed(request, timeout=None):
            raise OverloadError("queue full", retry_after_s=2.0)

        service.recommend = shed
        status, headers, payload = harness.request(
            "/recommend", {"history": split.test[0].history})
        assert status == 429
        assert headers["Retry-After"] == "2"
        assert payload["overloaded"] is True
        assert "queue full" in payload["error"]

    def test_deadline_maps_to_504(self, rsetup, http_service):
        service, harness = http_service
        _, split, _, _ = rsetup

        def expire(request, timeout=None):
            raise DeadlineExceeded("budget spent")

        service.recommend = expire
        status, _, payload = harness.request(
            "/recommend", {"history": split.test[0].history})
        assert status == 504
        assert payload["deadline_exceeded"] is True

    def test_shard_timeout_maps_to_504(self, rsetup, http_service):
        service, harness = http_service
        _, split, _, _ = rsetup
        def stall(request, timeout=None):
            raise ShardTimeout("shard 1 did not reply")

        service.recommend = stall
        status, _, payload = harness.request(
            "/recommend", {"history": split.test[0].history})
        assert status == 504

    def test_unhandled_exception_maps_to_clean_500(self, rsetup, http_service):
        service, harness = http_service
        _, split, _, _ = rsetup

        def boom(request, timeout=None):
            raise RuntimeError("wires crossed")

        service.recommend = boom
        status, _, payload = harness.request(
            "/recommend", {"history": split.test[0].history})
        assert status == 500
        assert payload == {"error": "internal error: wires crossed"}
        # GET-side crashes get the same clean envelope
        service.stats = boom
        status, _, payload = harness.request("/stats")
        assert status == 500
        assert "internal error" in payload["error"]

    def test_degraded_responses_stay_200(self, rsetup, http_service):
        service, harness = http_service
        _, split, _, _ = rsetup
        status, _, payload = harness.request(
            "/recommend", {"history": split.test[0].history})
        assert status == 200
        assert "degraded" not in payload  # healthy wire format unchanged

    def test_request_errors_stay_400(self, rsetup, http_service):
        _, harness = http_service
        status, _, payload = harness.request("/recommend", {"history": "oops"})
        assert status == 400


class TestProbes:
    def test_liveness_is_unconditional(self, http_service):
        _, harness = http_service
        status, _, payload = harness.request("/livez")
        assert status == 200
        assert payload["ok"] is True

    def test_readiness_reflects_healthy_deployments(self, http_service):
        _, harness = http_service
        status, _, payload = harness.request("/readyz")
        assert status == 200
        assert payload["ready"] is True
        assert payload["deployments"]["arts"]["breaker_open"] is False

    def test_healthz_keeps_the_compat_contract(self, http_service):
        _, harness = http_service
        status, _, payload = harness.request("/healthz")
        assert status == 200
        assert payload["ok"] is True
        assert payload["deployments"] == 1

    @pytest.mark.timeout(180)
    def test_readiness_drops_while_the_breaker_is_open(self, rsetup):
        registry = ModelRegistry()
        sharded = _recommender(rsetup, config=ServingConfig(
            shards=2, shard_backend="process"))
        registry.register(Deployment(
            "arts", sharded,
            config=ServingConfig(k=5, shards=2, shard_backend="process")))
        service = RecommenderService(registry)
        harness = _HTTPHarness(service)
        try:
            client = sharded.shard_client()
            tripped = CircuitBreaker(min_calls=1, reset_after_s=3600.0)
            tripped.record_failure()
            client.breaker = tripped
            status, _, payload = harness.request("/readyz")
            assert status == 503
            assert payload["ready"] is False
            report = payload["deployments"]["arts"]
            assert report["breaker_open"] is True
            assert report["breaker_state"] == "open"
            # liveness is deliberately unaffected: do not restart a replica
            # that is serving correct (degraded) answers
            status, _, _ = harness.request("/livez")
            assert status == 200
        finally:
            harness.close()
            service.close()
            sharded.close()


class TestJSONLErrorEnvelopes:
    def run_lines(self, service, lines):
        stdin = io.StringIO("\n".join(lines) + "\n")
        stdout = io.StringIO()
        serve_jsonl(service, input_stream=stdin, output_stream=stdout)
        return [json.loads(line) for line in
                stdout.getvalue().strip().splitlines()]

    def test_typed_errors_are_answered_in_band(self, rsetup):
        _, split, _, _ = rsetup
        registry = ModelRegistry()
        registry.register(Deployment("arts", _recommender(rsetup),
                                     config=ServingConfig(k=5)))
        service = RecommenderService(registry)
        outcomes = iter(["overload", "deadline", "boom", "ok"])

        original = service.recommend

        def scripted(payload, timeout=None):
            outcome = next(outcomes)
            if outcome == "overload":
                raise OverloadError("queue full", retry_after_s=1.5)
            if outcome == "deadline":
                raise DeadlineExceeded("budget spent")
            if outcome == "boom":
                raise RuntimeError("wires crossed")
            return original(payload, timeout)

        service.recommend = scripted
        history = list(split.test[0].history)
        answers = self.run_lines(service, [
            json.dumps({"history": history, "request_id": "a"}),
            json.dumps({"history": history, "request_id": "b"}),
            json.dumps({"history": history, "request_id": "c"}),
            json.dumps({"history": history, "request_id": "d"}),
        ])
        assert answers[0]["overloaded"] is True
        assert answers[0]["retry_after_s"] == 1.5
        assert answers[0]["request_id"] == "a"
        assert answers[1]["deadline_exceeded"] is True
        assert answers[2]["internal"] is True
        assert "items" in answers[3]  # the loop survived all three


# --------------------------------------------------------------------- #
# Load generator outcome classification
# --------------------------------------------------------------------- #
class TestLoadgenClassification:
    def scripted_sender(self, script):
        lock = threading.Lock()
        cursor = {"next": 0}

        def send(payload):
            with lock:
                outcome = script[cursor["next"] % len(script)]
                cursor["next"] += 1
            if outcome == "shed":
                raise OverloadError("full")
            if outcome == "deadline":
                raise DeadlineExceeded("late")
            if outcome == "error":
                raise RuntimeError("broken")
            return {"items": [1]}

        return send

    def payloads_and_offsets(self, count):
        return (session_requests(count, catalogue=50, seed=0),
                [0.001 * position for position in range(count)])

    def test_outcomes_are_classified_not_lumped(self):
        payloads, offsets = self.payloads_and_offsets(8)
        send = self.scripted_sender(
            ["ok", "shed", "deadline", "error", "ok", "shed", "ok", "ok"])
        report = run_open_loop(send, payloads, offsets, concurrency=1)
        assert report.completed == 4
        assert report.shed == 2
        assert report.deadline_expired == 1
        assert report.errors == 1
        summary = report.to_dict()
        assert summary["shed"] == 2
        assert summary["deadline_expired"] == 1
        assert summary["goodput_rps"] > 0

    def test_goodput_counts_only_in_slo_completions(self):
        payloads, offsets = self.payloads_and_offsets(4)
        slow = {"first": True}

        def send(payload):
            if slow.pop("first", False):
                time.sleep(0.2)
            return {"items": [1]}

        report = run_open_loop(send, payloads, offsets, concurrency=1,
                               slo_ms=50.0)
        assert report.completed == 4
        assert report.goodput_rps < report.achieved_rps

    def test_find_max_treats_shedding_as_unsustained_not_failure(self):
        send = self.scripted_sender(["ok", "shed"])
        result = find_max_sustainable_rps(
            send, catalogue=50, slo_p95_ms=1000.0, rates=[50.0, 100.0],
            step_duration_s=0.2, concurrency=2, seed=0)
        assert result["sustainable_rps"] == 0.0
        first = result["steps"][0]
        assert first["sustained"] is False
        assert first["shed"] > 0
        assert first["errors"] == 0  # shed is not an error
