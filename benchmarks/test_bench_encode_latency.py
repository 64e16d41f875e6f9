"""Benchmark: cold-path sequence encoding — graph vs compiled engine.

Warm traffic is served from cached scores and coalesced GEMMs (PR 4), but a
*cold-path* request — a new or freshly-updated user history — must run the
sequence encoder before anything can be scored.  On the graph path that
means the full autodiff substrate under ``nn.no_grad``: Tensor wrappers,
per-op allocation, module walks.  The compiled engine (:mod:`repro.infer`)
lowers the same forward to straight-line numpy over a preallocated buffer
arena.

This benchmark replays a stream of single-row cold requests (each history
distinct, no caching anywhere) through both engines for two model families —
the shared Transformer encoder (WhitenRec, the paper's model, at the CLI
serving configuration) and the recurrent GRU4Rec — and records per-request
encode p50/p95 latency plus sequences/second in
``benchmarks/out/BENCH_encode.json`` (uploaded as a CI artifact; gated by
``benchmarks/check_regression.py``).

Hard assertions: the served (compiled) top-k is **bit-identical** (ids and
scores) to a full sort over the graph encoder's scores, and the compiled
engine encodes at least 2x faster per family.

A second section exercises the **int8 catalogue codec** (:mod:`repro.quant`)
end to end through the serving stack: a Recommender constructed with
``catalogue_codec="int8"`` must return top-k ids *and* scores bit-identical
to the dense fp32 Recommender (``identical_quantized_topk`` — never
skippable), while storing ``quantized_bytes_per_item`` vs
``dense_bytes_per_item`` (measured from the actual arrays, not assumed) and
serving at ``quantized_topk_speedup`` of the dense rate.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once, write_bench_result

from repro.data import leave_one_out_split, load_dataset
from repro.infer import InferenceEngine
from repro.models import ModelConfig, build_model
from repro.serving import (EmbeddingStore, Recommender, ServingConfig,
                           full_sort_topk)
from repro.text import encode_items
from repro.training.evaluation import padded_catalogue_scores

K = 10
#: interleaved timing rounds per engine; the best is reported (single-core
#: CI machines are noisy)
ROUNDS = 5

#: families under test: the shared Transformer encoder at the CLI serving
#: configuration (hidden 32, 2 layers — see `repro serve`) and the recurrent
#: GRU4Rec whose graph path unrolls ~20 Tensor-op steps per request
FAMILIES = ("whitenrec", "gru4rec")


def _percentile(samples, q):
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))


def _time_stream(encode, requests, matrix):
    """One pass over the cold-request stream; per-request latencies + total."""
    latencies_ms = np.zeros(len(requests))
    started = time.perf_counter()
    for position, (item_ids, lengths) in enumerate(requests):
        request_started = time.perf_counter()
        encode(item_ids, lengths, item_matrix=matrix)
        latencies_ms[position] = (time.perf_counter() - request_started) * 1000.0
    return latencies_ms, time.perf_counter() - started


def _bench_family(name, dataset, split, features, num_requests) -> dict:
    from repro.data.dataloader import pad_sequences

    config = ModelConfig(hidden_dim=32, num_layers=2, num_heads=2,
                         dropout=0.2, max_seq_length=20, seed=0)
    kwargs = {"feature_table": features} if name == "whitenrec" else {}
    model = build_model(name, dataset.num_items, config=config, **kwargs)
    model.eval()
    matrix = model.inference_item_matrix()
    engine = InferenceEngine(model)

    cases = split.test
    histories = [list(cases[index % len(cases)].history)
                 for index in range(num_requests)]
    requests = [pad_sequences([history[-20:]], 20) for history in histories]

    # Parity gate first: the served top-k must be bit-identical to a full
    # sort over the graph encoder's scores (seen items allowed, so the
    # reference masks the padding item only).
    recommender = Recommender(model, store=EmbeddingStore(features),
                              train_sequences=split.train_sequences)
    served = recommender.topk(
        histories[:48], config=ServingConfig(k=K, exclude_seen=False))
    item_ids, lengths = pad_sequences(
        [history[-20:] for history in histories[:48]], 20)
    graph_scores = padded_catalogue_scores(
        model.encode_sequences(item_ids, lengths, item_matrix=matrix),
        recommender.item_matrix(), recommender.dtype)
    graph_scores[:, 0] = -np.inf
    graph_items, graph_top = full_sort_topk(graph_scores, K)
    identical = (served.engine == "compiled"
                 and np.array_equal(served.items, graph_items)
                 and np.array_equal(served.scores, graph_top))

    # Encode-identity across the whole stream (single-row, both engines).
    encode_identical = all(
        np.array_equal(
            model.encode_sequences(item_ids, lengths, item_matrix=matrix),
            engine.encode_sequences(item_ids, lengths, item_matrix=matrix))
        for item_ids, lengths in requests[:32]
    )

    graph_seconds = compiled_seconds = float("inf")
    graph_latencies = compiled_latencies = None
    for _ in range(ROUNDS):  # interleaved so drift hits both engines alike
        latencies, seconds = _time_stream(model.encode_sequences, requests, matrix)
        if seconds < graph_seconds:
            graph_seconds, graph_latencies = seconds, latencies
        latencies, seconds = _time_stream(engine.encode_sequences, requests, matrix)
        if seconds < compiled_seconds:
            compiled_seconds, compiled_latencies = seconds, latencies

    graph_rps = num_requests / graph_seconds
    compiled_rps = num_requests / compiled_seconds
    return {
        "model": name,
        "plan_family": engine.family,
        "num_requests": num_requests,
        "num_items": dataset.num_items,
        "identical_topk": bool(identical),
        "identical_encodings": bool(encode_identical),
        "graph_seq_per_s": graph_rps,
        "compiled_seq_per_s": compiled_rps,
        "speedup": compiled_rps / graph_rps,
        "graph_p50_ms": _percentile(graph_latencies, 50),
        "graph_p95_ms": _percentile(graph_latencies, 95),
        "compiled_p50_ms": _percentile(compiled_latencies, 50),
        "compiled_p95_ms": _percentile(compiled_latencies, 95),
        "arena_buffers": engine.plan.arena.num_buffers,
        "arena_kb": round(engine.plan.arena.nbytes / 1024.0, 1),
    }


def _bench_quantized_serving(dataset, split, features, num_requests) -> dict:
    """Dense vs int8 Recommender over the same request stream.

    The codec is a construction-time property (per-call overrides are
    rejected), so two Recommenders share one model and the comparison is
    purely the catalogue representation.
    """
    from repro.quant import quantize_matrix

    config = ModelConfig(hidden_dim=32, num_layers=2, num_heads=2,
                         dropout=0.2, max_seq_length=20, seed=0)
    model = build_model("whitenrec", dataset.num_items, config=config,
                        feature_table=features)
    model.eval()

    cases = split.test
    histories = [list(cases[index % len(cases)].history)
                 for index in range(num_requests)]
    batches = [histories[start:start + 16]
               for start in range(0, num_requests, 16)]

    def _make(codec):
        return Recommender(
            model, store=EmbeddingStore(features),
            train_sequences=split.train_sequences,
            config=ServingConfig(k=K, catalogue_codec=codec))

    dense = _make("fp32")
    quant = _make("int8")

    dense_topk = dense.topk(histories)
    quant_topk = quant.topk(histories)
    identical = (np.array_equal(dense_topk.items, quant_topk.items)
                 and np.array_equal(dense_topk.scores, quant_topk.scores))

    def _stream(recommender):
        started = time.perf_counter()
        for batch in batches:
            recommender.topk(batch)
        return time.perf_counter() - started

    dense_seconds = quant_seconds = float("inf")
    for _ in range(ROUNDS):  # interleaved so drift hits both paths alike
        dense_seconds = min(dense_seconds, _stream(dense))
        quant_seconds = min(quant_seconds, _stream(quant))

    matrix = dense.item_matrix()
    quantized = quantize_matrix(np.ascontiguousarray(matrix,
                                                     dtype=np.float32))
    dense_rps = num_requests / dense_seconds
    quant_rps = num_requests / quant_seconds
    return {
        "model": "whitenrec",
        "num_requests": num_requests,
        "num_items": int(matrix.shape[0]),
        "identical_quantized_topk": bool(identical),
        "dense_seq_per_s": dense_rps,
        "quantized_seq_per_s": quant_rps,
        "quantized_topk_speedup": quant_rps / dense_rps,
        "dense_bytes_per_item": matrix.nbytes / matrix.shape[0],
        "quantized_bytes_per_item": (
            (quantized.codes.nbytes + quantized.scales.nbytes)
            / matrix.shape[0]),
    }


def run_encode_latency(scale: str = "bench") -> dict:
    dataset_scale = "small" if scale == "full" else "tiny"
    num_requests = 256 if scale == "full" else 96

    dataset = load_dataset("arts", scale=dataset_scale, seed=3)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=32, seed=3)

    families = {name: _bench_family(name, dataset, split, features, num_requests)
                for name in FAMILIES}
    quantized = _bench_quantized_serving(dataset, split, features,
                                         num_requests)
    return {
        "k": K,
        "families": families,
        "quantized_serving": quantized,
        "min_speedup": min(entry["speedup"] for entry in families.values()),
        "identical_topk_all": all(entry["identical_topk"]
                                  for entry in families.values()),
        "identical_encodings_all": all(entry["identical_encodings"]
                                       for entry in families.values()),
        "identical_quantized_topk": quantized["identical_quantized_topk"],
    }


def test_encode_latency_cold_path(benchmark, scale):
    result = run_once(benchmark, run_encode_latency, scale=scale)
    for name, entry in result["families"].items():
        print(
            f"\n{name} cold-path encode ({entry['num_requests']} single-row "
            f"requests, {entry['num_items']} items): "
            f"compiled {entry['compiled_seq_per_s']:,.0f} seq/s "
            f"(p50 {entry['compiled_p50_ms']:.2f}ms / "
            f"p95 {entry['compiled_p95_ms']:.2f}ms, "
            f"{entry['arena_buffers']} arena buffers, "
            f"{entry['arena_kb']:.0f} KiB) vs "
            f"graph {entry['graph_seq_per_s']:,.0f} seq/s "
            f"(p50 {entry['graph_p50_ms']:.2f}ms / "
            f"p95 {entry['graph_p95_ms']:.2f}ms) "
            f"-> {entry['speedup']:.2f}x"
        )
    quantized = result["quantized_serving"]
    print(
        f"int8 serving ({quantized['num_requests']} requests, "
        f"{quantized['num_items']} items): "
        f"{quantized['quantized_seq_per_s']:,.0f} seq/s vs dense "
        f"{quantized['dense_seq_per_s']:,.0f} seq/s "
        f"({quantized['quantized_topk_speedup']:.2f}x), "
        f"{quantized['quantized_bytes_per_item']:.0f} vs "
        f"{quantized['dense_bytes_per_item']:.0f} bytes/item"
    )
    write_bench_result("encode", result)

    assert result["identical_topk_all"], (
        "compiled engine's top-k diverged from the graph path"
    )
    assert result["identical_encodings_all"], (
        "compiled engine's encodings are not bit-identical to the graph path"
    )
    for name, entry in result["families"].items():
        assert entry["speedup"] >= 2.0, (
            f"{name}: compiled engine only {entry['speedup']:.2f}x faster "
            f"than the graph path (expected >= 2x)"
        )
    assert result["identical_quantized_topk"], (
        "int8 Recommender's top-k diverged from the dense fp32 path"
    )
    assert (quantized["quantized_bytes_per_item"]
            <= 0.3 * quantized["dense_bytes_per_item"]), (
        "int8 catalogue stores more than 0.3x the dense bytes per item"
    )
