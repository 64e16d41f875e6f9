"""Tests for the graph-free compiled inference engine (`repro.infer`).

Covers: plan compilation + **bit-identity** against the ``nn.no_grad`` graph
path for every registered model family at float32 and float64, buffer-arena
reuse (zero growth across repeated calls), program LRU eviction, and the
serving-layer integration (engine routing, per-response diagnostics).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.data.dataloader import SequenceBatch, pad_sequences
from repro.infer import (
    BufferArena,
    UnsupportedModelError,
    compile_plan,
)
from repro.models import ModelConfig, available_models, build_model
from repro.models.registry import TEXT_MODELS
from repro.models.base import NextItemRecommender, SequentialRecommender
from repro.nn.functional import catalogue_scores, padded_catalogue_scores
from repro.serving import Recommender, ServingConfig
from repro.serving.recommender import full_sort_topk

NUM_ITEMS = 70
MAX_SEQ = 10


@pytest.fixture(scope="module")
def infer_setup(rng):
    features = rng.standard_normal((NUM_ITEMS + 1, 20))
    features[0] = 0.0
    train_sequences = {
        user: [int(item) for item in rng.integers(1, NUM_ITEMS + 1, size=6)]
        for user in range(15)
    }
    histories = [
        [int(item) for item in rng.integers(1, NUM_ITEMS + 1,
                                            size=int(rng.integers(2, MAX_SEQ)))]
        for _ in range(7)
    ]
    return features, train_sequences, histories


def _build(name, features, train_sequences, dtype="float64", seed=0,
           num_layers=2):
    config = ModelConfig(hidden_dim=16, num_layers=num_layers, num_heads=2,
                         dropout=0.2, max_seq_length=MAX_SEQ, seed=seed)
    kwargs = {}
    if name in TEXT_MODELS:
        kwargs["feature_table"] = features
    if name == "grcn":
        kwargs["train_sequences"] = train_sequences
    with nn.autocast(dtype):
        model = build_model(name, NUM_ITEMS, config=config, **kwargs)
    model.eval()
    return model


def _padded(histories):
    return pad_sequences([history[-MAX_SEQ:] for history in histories], MAX_SEQ)


def _graph_reference_topk(recommender, histories, k):
    """``full_sort_topk`` over the ``no_grad`` graph encoder and the shared
    scoring kernel: the reference a compiled ``topk`` must match bit for bit
    (``histories`` all warm, seen items masked)."""
    model = recommender.model
    item_ids, lengths = _padded(histories)
    users = model.encode_sequences(item_ids, lengths,
                                   item_matrix=model.inference_item_matrix())
    scores = padded_catalogue_scores(users, recommender.item_matrix(),
                                     recommender.dtype)
    for row, history in enumerate(histories):
        scores[row, [0] + history] = -np.inf
    return full_sort_topk(scores, k)


# --------------------------------------------------------------------- #
# Plan compilation & bit-identity
# --------------------------------------------------------------------- #
class TestPlanBitIdentity:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", sorted(available_models()))
    def test_every_family_bitwise_equal_to_graph(self, name, dtype, infer_setup):
        """Acceptance criterion: the compiled engine is bit-identical (ids
        AND scores) to the no_grad graph path per family, at both dtypes.

        Besides the fixture's histories, three edge inputs: one length-1
        history (the graph path computes fewer rows than the packed-row
        floor), a length-0 row (every position computed) and a ``lengths``
        value above the window (clipped to it)."""
        features, train_sequences, histories = infer_setup
        model = _build(name, features, train_sequences, dtype=dtype)
        matrix = model.inference_item_matrix()
        plan = compile_plan(model)

        over_long = _padded(histories[:3])
        over_long[1][1] = MAX_SEQ + 4
        edge_inputs = [_padded([histories[0][:1]]), _padded([histories[1], []]),
                       over_long]
        for item_ids, lengths in edge_inputs:
            reference = model.encode_sequences(item_ids, lengths, item_matrix=matrix)
            assert np.array_equal(reference, plan.encode(item_ids, lengths, matrix))

        item_ids, lengths = _padded(histories)
        reference = model.encode_sequences(item_ids, lengths, item_matrix=matrix)
        compiled = plan.encode(item_ids, lengths, matrix)
        assert compiled.dtype == reference.dtype
        assert np.array_equal(reference, compiled)

        # Scores and extracted ids are bitwise equal too (same users in,
        # same scoring matmul).
        scoring = matrix.astype(np.float32, copy=False)
        ref_scores = catalogue_scores(reference, scoring)
        got_scores = catalogue_scores(compiled, scoring)
        assert np.array_equal(ref_scores, got_scores)
        ref_ids, ref_top = full_sort_topk(ref_scores, k=10)
        got_ids, got_top = full_sort_topk(got_scores, k=10)
        assert np.array_equal(ref_ids, got_ids)
        assert np.array_equal(ref_top, got_top)

    def test_family_dispatch(self, infer_setup):
        features, train_sequences, _ = infer_setup
        expected = {
            "sasrec_id": "transformer",
            "whitenrec_plus": "transformer",
            "vqrec": "transformer",
            "fdsa": "fdsa",
            "gru4rec": "gru",
            "grcn": "meanpool",
            "bm3": "meanpool",
        }
        for name, family in expected.items():
            model = _build(name, features, train_sequences)
            assert compile_plan(model).family == family

    @pytest.mark.parametrize("base", [SequentialRecommender,
                                      NextItemRecommender])
    def test_unknown_encode_override_is_rejected(self, base):
        class Exotic(base):
            model_name = "exotic"

            def __init__(self, num_items):
                super().__init__(num_items, ModelConfig(
                    hidden_dim=16, num_layers=1, num_heads=2,
                    max_seq_length=MAX_SEQ, seed=0))
                self.item_embedding = nn.Embedding(
                    num_items + 1, self.hidden_dim, padding_idx=0, rng=self._rng)

            def item_representations(self, rows=None):
                return self.item_embedding.all_embeddings(rows)

            def encode_sequence(self, batch, item_matrix=None):
                if item_matrix is None:
                    item_matrix = self.item_representations()
                return item_matrix.take_rows(batch.item_ids[:, -1]) * 2.0

        model = Exotic(NUM_ITEMS)
        model.eval()
        with pytest.raises(UnsupportedModelError):
            compile_plan(model)
        # The serving layer falls back to the graph path instead of failing.
        recommender = Recommender(model)
        assert recommender.engine() is None
        assert recommender.engine_name == "graph"
        result = recommender.topk([[1, 2, 3]], k=5)
        assert result.engine == "graph"

    @pytest.mark.parametrize("name", ["sasrec_id", "fdsa", "gru4rec", "grcn",
                                      "bm3"])
    def test_sequence_length_contract_matches_graph(self, infer_setup, name):
        """A history wider than the window is refused by graph and plan."""
        features, train_sequences, _ = infer_setup
        model = _build(name, features, train_sequences)
        plan = compile_plan(model)
        too_long = np.ones((1, MAX_SEQ + 3), dtype=np.int64)
        lengths = np.array([MAX_SEQ + 3])
        batch = SequenceBatch(item_ids=too_long, lengths=lengths,
                              targets=np.zeros(1, dtype=np.int64),
                              users=np.zeros(1, dtype=np.int64))
        with pytest.raises(ValueError, match="exceeds max_seq_length"):
            model.encode_sequence(batch)
        with pytest.raises(ValueError, match="exceeds max_seq_length"):
            plan.encode(too_long, lengths, model.inference_item_matrix())

    def test_plan_is_immune_to_later_weight_mutation(self, infer_setup):
        """Snapshots are copies: in-place weight updates do not leak in.

        (The item matrix is the caller's responsibility — for ID models it
        aliases the live embedding table — so the test pins a copy of it and
        mutates every parameter.)
        """
        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        item_ids, lengths = _padded(histories)
        matrix = model.inference_item_matrix().copy()
        plan = compile_plan(model)
        before = plan.encode(item_ids, lengths, matrix)
        for parameter in model.parameters():
            parameter.data += 0.25
        after = plan.encode(item_ids, lengths, matrix)
        assert np.array_equal(before, after)


# --------------------------------------------------------------------- #
# Arena reuse & program cache
# --------------------------------------------------------------------- #
class TestArena:
    def test_get_reuses_and_counts(self):
        arena = BufferArena()
        first = arena.get("x", (3, 4), np.float64)
        second = arena.get("x", (3, 4), np.float64)
        assert first is second
        assert arena.allocations == 1
        third = arena.get("x", (5, 4), np.float64)
        assert third is not first
        assert arena.allocations == 2
        assert arena.num_buffers == 2
        assert arena.nbytes == first.nbytes + third.nbytes
        assert arena.release_prefix("x") == 2
        assert arena.num_buffers == 0

    def test_no_growth_across_100_calls(self, infer_setup):
        """Satellite criterion: steady-state encoding allocates nothing new —
        the same buffer objects serve every call."""
        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        item_ids, lengths = _padded(histories)
        matrix = model.inference_item_matrix()
        plan = compile_plan(model)
        plan.encode(item_ids, lengths, matrix)  # warmup compiles the bucket

        allocations = plan.arena.allocations
        buffer_ids = sorted(id(buffer) for buffer in plan.arena.buffers())
        for _ in range(100):
            plan.encode(item_ids, lengths, matrix)
        assert plan.arena.allocations == allocations
        assert sorted(id(buffer) for buffer in plan.arena.buffers()) == buffer_ids

    def test_eviction_does_not_release_prefix_colliding_bucket(self, infer_setup):
        """Regression: evicting bucket (1, 2) must not unregister bucket
        (1, 20)'s buffers — "b1s2" is a string prefix of "b1s20"."""
        features, train_sequences, _ = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        matrix = model.inference_item_matrix()
        plan = compile_plan(model, max_programs=2)
        short = (np.array([[0, 3]], dtype=np.int64), np.array([2]))
        long = (np.ones((1, MAX_SEQ), dtype=np.int64), np.array([MAX_SEQ]))
        plan.encode(*short, item_matrix=matrix)       # bucket (1, 2)
        plan.encode(*long, item_matrix=matrix)        # bucket (1, MAX_SEQ)
        long_buffers = plan.arena.num_buffers // 2
        reference = plan.encode(*long, item_matrix=matrix)
        middle = (np.ones((2, 3), dtype=np.int64), np.array([3, 3]))
        plan.encode(*middle, item_matrix=matrix)      # evicts bucket (1, 2)
        # The long bucket's ledger entries must survive the eviction …
        assert plan.arena.num_buffers >= long_buffers
        allocations = plan.arena.allocations
        # … and re-running it neither reallocates nor changes values.
        assert np.array_equal(plan.encode(*long, item_matrix=matrix), reference)
        assert plan.arena.allocations == allocations

    def test_program_lru_eviction_releases_buffers(self, infer_setup):
        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        matrix = model.inference_item_matrix()
        plan = compile_plan(model, max_programs=2)
        for batch in (1, 2, 3):
            item_ids, lengths = _padded(histories[:batch])
            plan.encode(item_ids, lengths, matrix)
        assert plan.num_programs == 2
        # The evicted (batch=1) bucket must have released its arena buffers:
        # re-encoding batch=1 recompiles and re-allocates.
        buffers_before = plan.arena.num_buffers
        item_ids, lengths = _padded(histories[:1])
        plan.encode(item_ids, lengths, matrix)
        assert plan.num_programs == 2
        assert plan.arena.num_buffers == buffers_before


# --------------------------------------------------------------------- #
# Last-position pruning of the final block's compiled program
# --------------------------------------------------------------------- #
class TestLastPositionProgram:
    STREAMS = [("sasrec_id", [""]), ("fdsa", ["/item", "/feature"])]

    @pytest.mark.parametrize("name, streams", STREAMS)
    def test_final_block_buffers_have_batch_rows(self, name, streams, infer_setup):
        features, train_sequences, histories = infer_setup
        model = _build(name, features, train_sequences, dtype="float32")
        item_ids, lengths = _padded(histories)
        plan = compile_plan(model)
        plan.encode(item_ids, lengths, model.inference_item_matrix())

        batch, seq = item_ids.shape
        hidden, heads = 16, 2
        final_block = {
            "q": (batch, hidden), "scores": (batch, heads, seq),
            "context": (batch, heads, 1, hidden // heads),
            "last": (batch, hidden), "ffn_hidden": (batch, 4 * hidden),
            "ffn_act": (batch, 4 * hidden), "ffn_out": (batch, hidden),
        }
        first_block = {"q": (batch * seq, hidden),
                       "ffn_hidden": (batch * seq, 4 * hidden)}
        # ``get`` allocates what is not registered under exactly this shape.
        allocations = plan.arena.allocations
        for stream in streams:
            tag = plan._bucket_tag(batch, seq) + stream
            for block, shapes in (("block1", final_block), ("block0", first_block)):
                for buffer, shape in shapes.items():
                    plan.arena.get(f"{tag}/{block}/{buffer}", shape, np.float32)
        assert plan.arena.allocations == allocations

    @pytest.mark.parametrize("name", ["sasrec_id", "fdsa"])
    def test_describe_reports_the_smaller_arena(self, name, infer_setup):
        """A whole one-block plan (inputs, mask, pruned block) holds fewer
        bytes than the one all-positions block a second layer adds."""
        features, train_sequences, histories = infer_setup
        item_ids, lengths = _padded(histories)
        nbytes = {}
        for num_layers in (1, 2):
            model = _build(name, features, train_sequences, num_layers=num_layers)
            plan = compile_plan(model)
            plan.encode(item_ids, lengths, model.inference_item_matrix())
            nbytes[num_layers] = plan.describe()["arena"]["nbytes"]
            assert nbytes[num_layers] == plan.arena.nbytes
        assert nbytes[1] < nbytes[2] - nbytes[1]

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["sasrec_id", "fdsa"])
    def test_buckets_do_not_alias(self, name, dtype, infer_setup):
        """Encode at one (batch, seq) bucket, at a second, and back."""
        features, train_sequences, histories = infer_setup
        model = _build(name, features, train_sequences, dtype=dtype)
        matrix = model.inference_item_matrix()
        plan = compile_plan(model)
        wide = _padded(histories)
        narrow = pad_sequences([history[-4:] for history in histories[:3]], 4)
        expected = [model.encode_sequences(*bucket, item_matrix=matrix)
                    for bucket in (wide, narrow)]
        for _ in range(2):
            for bucket, reference in zip((wide, narrow), expected):
                assert np.array_equal(plan.encode(*bucket, matrix), reference)
        assert plan.num_programs == 2


# --------------------------------------------------------------------- #
# Serving integration
# --------------------------------------------------------------------- #
class TestServingIntegration:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["whitenrec", "gru4rec", "fdsa", "bm3"])
    def test_topk_compiled_vs_graph_bit_identity(self, name, dtype, infer_setup):
        features, train_sequences, histories = infer_setup
        model = _build(name, features, train_sequences, dtype=dtype)
        recommender = Recommender(model, train_sequences=train_sequences)
        compiled = recommender.topk(histories, k=10)
        graph_items, graph_scores = _graph_reference_topk(
            recommender, histories, 10)
        assert compiled.engine == "compiled"
        assert np.array_equal(compiled.items, graph_items)
        assert np.array_equal(compiled.scores, graph_scores)

    def test_topk_reports_engine_and_encode_ms(self, infer_setup):
        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        recommender = Recommender(model)
        result = recommender.topk(histories[:2], k=5)
        assert result.engine == "compiled"
        assert result.encode_ms > 0.0
        # A fully cold batch does no sequence encoding.
        cold = recommender.topk([[NUM_ITEMS + 50]], k=5)
        assert cold.encode_ms == 0.0

    def test_default_config_uses_compiled_engine(self, infer_setup):
        features, train_sequences, _ = infer_setup
        model = _build("whitenrec", features, train_sequences)
        recommender = Recommender(model)
        assert recommender.engine_name == "compiled"
        recommender.topk([[1, 2, 3]], k=5)
        assert recommender.engine_stats()["compiled"] is True

    def test_refresh_item_matrix_recompiles_engine(self, infer_setup):
        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        recommender = Recommender(model)
        recommender.topk(histories[:2], k=5)
        stale_engine = recommender.engine()
        # Fine-tune in place, then refresh: the engine must be rebuilt and
        # agree with the graph path on the new weights.
        model.item_embedding.weight.data += 0.05
        recommender.refresh_item_matrix()
        fresh_engine = recommender.engine()
        assert fresh_engine is not stale_engine
        compiled = recommender.topk(histories, k=10)
        graph_items, graph_scores = _graph_reference_topk(
            recommender, histories, 10)
        assert np.array_equal(compiled.items, graph_items)
        assert np.array_equal(compiled.scores, graph_scores)

    def test_ann_backend_uses_compiled_encoder(self, infer_setup):
        features, train_sequences, histories = infer_setup
        model = _build("whitenrec", features, train_sequences)
        recommender = Recommender(
            model, train_sequences=train_sequences,
            index_params={"n_lists": 4, "nprobe": 4, "seed": 0})
        exact = recommender.topk(histories, config=ServingConfig(
            k=5, backend="exact"))
        ann = recommender.topk(histories, config=ServingConfig(
            k=5, backend="ivf"))
        assert ann.engine == "compiled"
        assert np.array_equal(exact.items, ann.items)


    def test_config_validation(self):
        """The engine is not a serving knob: the removed fields are rejected
        at construction and over the JSON protocol alike."""
        for removed in ({"engine": "graph"}, {"session_cache": 8}):
            with pytest.raises(TypeError):
                ServingConfig(**removed)
            with pytest.raises(ValueError, match="unknown ServingConfig"):
                ServingConfig.from_dict(removed)
        assert "engine" not in ServingConfig().to_dict()


# --------------------------------------------------------------------- #
# Service layer & CLI plumbing
# --------------------------------------------------------------------- #
class TestServiceAndCli:
    def test_response_reports_engine_and_encode_ms(self, infer_setup):
        from repro.service import Deployment, ModelRegistry, RecommenderService

        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        registry = ModelRegistry()
        registry.register(Deployment(
            name="main", recommender=Recommender(model),
            config=ServingConfig(k=5)))
        with RecommenderService(registry, batching=False) as service:
            response = service.recommend({"history": histories[0]})
            payload = response.to_dict()
            assert payload["engine"] == "compiled"
            assert payload["stages_ms"]["encode"] > 0.0

    def test_deployment_describe_includes_engine_stats(self, infer_setup):
        from repro.service import Deployment

        features, train_sequences, histories = infer_setup
        model = _build("sasrec_id", features, train_sequences)
        deployment = Deployment(name="main", recommender=Recommender(model))
        assert deployment.describe()["engine"]["compiled"] is False  # lazy
        deployment.recommender.topk([histories[0]], k=5)
        described = deployment.describe()["engine"]
        assert described["compiled"] is True
        assert described["encode_calls"] == 1
        import json
        json.dumps(deployment.describe())  # stats endpoint serialisability


# --------------------------------------------------------------------- #
# Bench regression gate (benchmarks/check_regression.py)
# --------------------------------------------------------------------- #
class TestBenchRegressionGate:
    @pytest.fixture()
    def gate(self):
        import importlib.util
        import pathlib

        path = (pathlib.Path(__file__).resolve().parents[1]
                / "benchmarks" / "check_regression.py")
        spec = importlib.util.spec_from_file_location("check_regression", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module

    def _run(self, gate, tmp_path, baseline, fresh, **kwargs):
        import json

        (tmp_path / "baseline").mkdir(exist_ok=True)
        (tmp_path / "baseline" / "BENCH_x.json").write_text(json.dumps(baseline))
        gate.FRESH_DIR.mkdir(exist_ok=True)
        fresh_path = gate.FRESH_DIR / "BENCH_x.json"
        fresh_path.write_text(json.dumps(fresh))
        try:
            argv = ["--baseline-dir", str(tmp_path / "baseline"),
                    "--files", "BENCH_x.json"]
            for key, value in kwargs.items():
                argv += [f"--{key}", str(value)]
            return gate.main(argv)
        finally:
            fresh_path.unlink()

    def test_passes_within_tolerance(self, gate, tmp_path):
        baseline = {"speedup": 2.5, "identical_topk": True, "encode_rps": 100.0}
        fresh = {"speedup": 2.1, "identical_topk": True, "encode_rps": 90.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_fails_on_throughput_regression(self, gate, tmp_path):
        baseline = {"families": {"a": {"compiled_seq_per_s": 1000.0}}}
        fresh = {"families": {"a": {"compiled_seq_per_s": 600.0}}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_absolute_metrics_get_the_wider_tolerance(self, gate, tmp_path):
        """A 30% absolute-throughput drop passes (hardware variance band)
        while the same drop on a relative speedup metric fails."""
        baseline = {"rate_rps": 1000.0}
        fresh = {"rate_rps": 700.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 0
        baseline = {"speedup": 3.0}
        fresh = {"speedup": 2.1}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_unclamped_goodput_speedup_is_gated(self, gate, tmp_path):
        """`goodput_speedup_raw` is the tracked ratio: its per-round samples
        differ, so the rank test can see a drop (the clamped
        `min(ratio, 3.0)` samples it replaced were all ties)."""
        baseline = {"goodput_speedup_raw": 6.5,
                    "samples": {"goodput_speedup_raw": [6.4, 8.5, 6.5]}}
        steady = {"goodput_speedup_raw": 7.0,
                  "samples": {"goodput_speedup_raw": [6.1, 7.0, 9.0]}}
        dropped = {"goodput_speedup_raw": 2.0,
                   "samples": {"goodput_speedup_raw": [1.9, 2.0, 2.2]}}
        assert self._run(gate, tmp_path, baseline, steady) == 0
        assert self._run(gate, tmp_path, baseline, dropped) == 1
        assert self._run(gate, tmp_path, {"goodput_speedup_raw": 6.5},
                         {"goodput_speedup_raw": 2.0}) == 1

    def test_fails_on_parity_flip(self, gate, tmp_path):
        baseline = {"identical_results": True, "rps": 10.0}
        fresh = {"identical_results": False, "rps": 10.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_fails_on_missing_tracked_metric(self, gate, tmp_path):
        baseline = {"speedup": 2.0}
        fresh = {"other": 1.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_declared_skip_excuses_missing_throughput_metric(self, gate,
                                                             tmp_path):
        """A fresh run may omit a tracked throughput metric it cannot
        measure meaningfully (scan_speedup on a single-core runner) by
        declaring it in `skipped_metrics` — reported as a note, not a
        disappeared-metric failure."""
        baseline = {"scan_speedup": 1.14, "rate_rps": 10.0}
        fresh = {"rate_rps": 10.0,
                 "skipped_metrics": {
                     "scan_speedup": "cpu_count=1: single-core noise"}}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_declared_skip_cannot_cover_parity_flags(self, gate, tmp_path):
        """Parity flags are correctness guarantees — a skip declaration
        must not excuse one going missing."""
        baseline = {"identical_topk": True}
        fresh = {"skipped_metrics": {"identical_topk": "not today"}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_declared_skip_only_excuses_named_keys(self, gate, tmp_path):
        baseline = {"speedup": 2.0}
        fresh = {"skipped_metrics": {"other_speedup": "cpu_count=1"}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_shard_bench_declares_single_core_speedup_skip(self):
        """run_shard_bench must omit scan_speedup on single-core machines
        (a 4-vs-1 ratio there is scheduler noise, and committing it would
        make the gate track noise) and declare the skip instead."""
        module = self._load_bench_module("test_bench_shard")

        assert module._speedup_fields(10.0, 25.0, 4) == {"scan_speedup": 2.5}
        for cores in (1, None):
            fields = module._speedup_fields(10.0, 25.0, cores)
            assert "scan_speedup" not in fields
            assert "scan_speedup" in fields["skipped_metrics"]

    @staticmethod
    def _load_bench_module(stem):
        import importlib.util
        import pathlib
        import sys

        bench_dir = (pathlib.Path(__file__).resolve().parents[1]
                     / "benchmarks")
        saved_conftest = sys.modules.pop("conftest", None)
        sys.path.insert(0, str(bench_dir))
        try:
            spec = importlib.util.spec_from_file_location(
                f"bench_{stem}_module", bench_dir / f"{stem}.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
        finally:
            sys.path.remove(str(bench_dir))
            sys.modules.pop("conftest", None)
            if saved_conftest is not None:
                sys.modules["conftest"] = saved_conftest
        return module

    @pytest.mark.timeout(120)
    def test_shard_bench_reads_worker_rss_not_the_parents(self, tmp_path):
        """The scans run in ShardPool worker processes, so the recorded
        footprint must be the workers' peak RSS: one parent-process reading
        gave the same number for every worker count and codec."""
        import subprocess
        import sys

        from repro.data.synthetic import synthetic_item_matrix_layout

        module = self._load_bench_module("test_bench_shard")
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(30)"])
        try:
            peak = module._workers_rss_peak_mb([child.pid])
        finally:
            child.kill()
            child.wait(timeout=30)
        if peak is None:
            pytest.skip("/proc/<pid>/status unreadable")
        assert peak > 0.0

        layout = synthetic_item_matrix_layout(tmp_path / "layout", 3000, 8,
                                              seed=0)
        layout.ensure_int8_sidecar()
        peaks = [module._bench_workers(layout, workers, 1, codec=codec)[
                     "workers_rss_peak_mb"]
                 for workers, codec in ((1, "fp32"), (4, "fp32"), (1, "int8"))]
        # Four interpreters against one: equal values mean the parent's.
        assert peaks[1] > 2.0 * peaks[0], peaks

    def test_resilience_bench_declares_single_core_skips(self):
        """On single-core machines the resilience bench must declare its
        contention-bound metrics — the goodput pair AND recovery_ms (gated
        by its _ms suffix) — so a 1-core refresh cannot commit numbers the
        gate classifies as regressions of multi-core baselines."""
        module = self._load_bench_module("test_bench_resilience")
        assert module._single_core_skips(4) == {}
        for cores in (1, None):
            skips = module._single_core_skips(cores)["skipped_metrics"]
            assert set(skips) == {"goodput_admission_rps",
                                  "goodput_speedup_raw",
                                  "healthy_search_ms", "recovery_ms"}
            assert all(f"cpu_count={cores}" in reason
                       for reason in skips.values())

    def test_fails_on_null_tracked_metric(self, gate, tmp_path):
        """A NaN/inf measurement serialises to JSON null; the gate must not
        let a tracked metric silently stop being a number."""
        baseline = {"scan_rate_per_s": 500.0}
        fresh = {"scan_rate_per_s": None}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_fails_on_non_numeric_tracked_metric(self, gate, tmp_path):
        baseline = {"speedup": 2.0}
        fresh = {"speedup": "fast"}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_fails_on_non_boolean_parity_value(self, gate, tmp_path):
        baseline = {"identical_topk": True}
        fresh = {"identical_topk": None}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_tracks_shard_bench_file(self, gate):
        assert "BENCH_shard.json" in gate.TRACKED_FILES

    def test_tracks_metrics_overhead_bench_file(self, gate):
        assert "BENCH_metrics_overhead.json" in gate.TRACKED_FILES

    # -- repeated-samples (Mann-Whitney) mode --------------------------- #
    def test_mann_whitney_pvalue_directionality(self, gate):
        clearly_lower = gate.mann_whitney_drop_pvalue(
            [100.0, 101.0, 102.0, 103.0], [50.0, 51.0, 52.0, 53.0])
        assert clearly_lower < 0.05
        no_evidence = gate.mann_whitney_drop_pvalue(
            [100.0, 98.0, 102.0], [99.0, 97.0, 101.0])
        assert no_evidence > 0.05
        higher = gate.mann_whitney_drop_pvalue(
            [50.0, 51.0, 52.0], [100.0, 101.0, 102.0])
        assert higher > 0.5  # an improvement is never "dropped"
        assert gate.mann_whitney_drop_pvalue([], [1.0]) is None
        assert gate.mann_whitney_drop_pvalue(
            [7.0, 7.0, 7.0], [7.0, 7.0, 7.0]) is None  # degenerate variance

    def test_samples_mode_fails_on_significant_drop(self, gate, tmp_path):
        baseline = {"sustainable_rps": 100.0,
                    "samples": {"sustainable_rps": [100.0, 100.0, 100.0]}}
        fresh = {"sustainable_rps": 50.0,
                 "samples": {"sustainable_rps": [50.0, 50.0, 50.0]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_samples_mode_passes_noise_a_threshold_would_flag(self, gate,
                                                              tmp_path):
        """Three quiet rounds beat one noisy number: a drop inside the
        samples' own spread is not significant, even past the threshold."""
        baseline = {"sustainable_rps": 400.0,
                    "samples": {"sustainable_rps": [400.0, 100.0, 400.0]}}
        fresh = {"sustainable_rps": 100.0,
                 "samples": {"sustainable_rps": [100.0, 400.0, 100.0]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_samples_mode_all_tied_passes(self, gate, tmp_path):
        baseline = {"sustainable_rps": 200.0,
                    "samples": {"sustainable_rps": [200.0, 200.0, 200.0]}}
        fresh = {"sustainable_rps": 200.0,
                 "samples": {"sustainable_rps": [200.0, 200.0, 200.0]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_samples_mode_respects_alpha(self, gate, tmp_path):
        """3v3 fully-separated samples land around p~0.02: significant at
        the default alpha, not at 0.01."""
        baseline = {"sustainable_rps": 100.0,
                    "samples": {"sustainable_rps": [100.0, 100.0, 100.0]}}
        fresh = {"sustainable_rps": 50.0,
                 "samples": {"sustainable_rps": [50.0, 50.0, 50.0]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1
        assert self._run(gate, tmp_path, baseline, fresh, alpha=0.01) == 0

    def test_samples_mode_honours_declared_skip(self, gate, tmp_path):
        baseline = {"sustainable_rps": 100.0,
                    "samples": {"sustainable_rps": [100.0, 100.0, 100.0]}}
        fresh = {"sustainable_rps": 50.0,
                 "samples": {"sustainable_rps": [50.0, 50.0, 50.0]},
                 "skipped_metrics": {
                     "sustainable_rps": "cpu_count=1: scheduler noise"}}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_too_few_samples_fall_back_to_threshold(self, gate, tmp_path):
        """Under MIN_SAMPLES per side the threshold test runs as before —
        a 50% absolute drop fails even though the pair of samples alone
        could never reach significance."""
        baseline = {"sustainable_rps": 100.0,
                    "samples": {"sustainable_rps": [100.0, 100.0]}}
        fresh = {"sustainable_rps": 50.0,
                 "samples": {"sustainable_rps": [50.0, 50.0]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_samples_subtree_is_provenance_not_metrics(self, gate, tmp_path):
        """A fresh run without a samples map must not trip the
        disappeared-metric check for the baseline's `samples.*` keys."""
        baseline = {"sustainable_rps": 100.0,
                    "samples": {"sustainable_rps": [100.0, 100.0, 100.0]}}
        fresh = {"sustainable_rps": 95.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    # -- lower-is-better metrics (bytes per item, latency) -------------- #
    def test_fails_on_bytes_per_item_rise(self, gate, tmp_path):
        """A memory regression — the quantized footprint growing — must
        fail the gate even though every throughput metric is steady."""
        baseline = {"quantized_bytes_per_item": 36.0, "scan_rate_per_s": 10.0}
        fresh = {"quantized_bytes_per_item": 72.0, "scan_rate_per_s": 10.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_bytes_per_item_within_tolerance_passes(self, gate, tmp_path):
        baseline = {"quantized_bytes_per_item": 36.0}
        fresh = {"quantized_bytes_per_item": 36.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_lower_is_better_improvement_passes(self, gate, tmp_path):
        """Shrinking is the good direction — a large drop must not trip
        the higher-is-better threshold logic."""
        baseline = {"quantized_bytes_per_item": 132.0, "p95_ms": 40.0}
        fresh = {"quantized_bytes_per_item": 36.0, "p95_ms": 10.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_latency_rise_gets_the_wider_absolute_tolerance(self, gate,
                                                            tmp_path):
        """A 30% latency rise sits inside the hardware-variance band while
        the same rise on a bytes-per-item footprint (a format property)
        fails at the tighter relative tolerance."""
        baseline = {"p95_ms": 100.0}
        fresh = {"p95_ms": 130.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 0
        baseline = {"quantized_bytes_per_item": 100.0}
        fresh = {"quantized_bytes_per_item": 130.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_fails_on_large_latency_rise(self, gate, tmp_path):
        baseline = {"p95_ms": 100.0}
        fresh = {"p95_ms": 200.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_fails_on_rss_peak_rise(self, gate, tmp_path):
        """A resident-memory blow-up — the scan faulting 5x the baseline
        into RSS — must fail the gate like a latency rise does."""
        baseline = {"rss_peak_mb": 80.0}
        fresh = {"rss_peak_mb": 428.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_rss_peak_within_tolerance_or_shrinking_passes(self, gate,
                                                           tmp_path):
        baseline = {"rss_peak_mb": 80.0}
        fresh = {"rss_peak_mb": 100.0}  # +25%: inside the 35% band
        assert self._run(gate, tmp_path, baseline, fresh) == 0
        fresh = {"rss_peak_mb": 20.0}  # shrinking is the good direction
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_missing_lower_is_better_metric_fails(self, gate, tmp_path):
        baseline = {"quantized_bytes_per_item": 36.0}
        fresh = {"other": 1.0}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_declared_skip_excuses_lower_is_better_metric(self, gate,
                                                          tmp_path):
        baseline = {"rss_peak_scan_ms": 12.0}
        fresh = {"skipped_metrics": {
            "rss_peak_scan_ms": "cpu_count=1: timer noise"}}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_samples_mode_fails_on_significant_latency_rise(self, gate,
                                                            tmp_path):
        """With per-round samples on both sides the Mann-Whitney test runs
        in the rise direction for lower-is-better metrics."""
        baseline = {"scan_ms": 10.0,
                    "samples": {"scan_ms": [10.0, 10.5, 10.2, 10.1]}}
        fresh = {"scan_ms": 20.0,
                 "samples": {"scan_ms": [20.0, 20.5, 20.2, 20.1]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 1

    def test_samples_mode_passes_latency_improvement(self, gate, tmp_path):
        baseline = {"scan_ms": 20.0,
                    "samples": {"scan_ms": [20.0, 20.5, 20.2, 20.1]}}
        fresh = {"scan_ms": 10.0,
                 "samples": {"scan_ms": [10.0, 10.5, 10.2, 10.1]}}
        assert self._run(gate, tmp_path, baseline, fresh) == 0

    def test_missing_fresh_file_fails(self, gate, tmp_path):
        import json

        (tmp_path / "baseline").mkdir()
        (tmp_path / "baseline" / "BENCH_missing.json").write_text(
            json.dumps({"speedup": 1.0}))
        assert gate.main(["--baseline-dir", str(tmp_path / "baseline"),
                          "--files", "BENCH_missing.json"]) == 1

    def test_new_benchmark_without_baseline_is_skipped(self, gate, tmp_path):
        (tmp_path / "baseline").mkdir()
        assert gate.main(["--baseline-dir", str(tmp_path / "baseline"),
                          "--files", "BENCH_not_committed_yet.json"]) == 0
