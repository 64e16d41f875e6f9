"""In-process layer ladder of the traced run (SNIPPETS.md Snippet 1 style:
one computation, several implementations, timed side by side).

The same payloads go through each rung in turn, single-threaded, after
warm-ups, inside the launcher process (the scenario lives there).  A rung's
self time is its p50 minus the p50 of the rung beneath.  Spans are recorded
here, in the benchmark's own code, around the calls into each layer's
public functions.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

from . import K
from .stats import Span, median, now
from .workloads import Scenario

WARMUPS = 32
BATCH = 16
#: optimiser steps timed for the nn rungs (one epoch is timed after them),
#: and whole-split evaluations
TRAIN_STEPS = 12
EVALUATIONS = 3


def _timed(name: str, calls: Sequence[Callable[[], Any]], spans: List[Span],
           warmups: int = WARMUPS) -> float:
    """p50 milliseconds of ``calls`` (each called once) after warm-ups."""
    for call in calls[:warmups]:
        call()
    samples = []
    for index, call in enumerate(calls):
        begin = now()
        call()
        end = now()
        spans.append(Span(name, begin, end, parent="ladder",
                          request_id=index))
        samples.append((end - begin) * 1000.0)
    return median(samples)


def _once_ms(call: Callable[[], Any]) -> float:
    begin = time.perf_counter()
    call()
    return (time.perf_counter() - begin) * 1000.0


def run_ladder(scenario: Scenario, service, histories: List[List[int]],
               workdir: Path, seed: int, training: bool) -> Dict[str, Any]:
    """Every rung, in order.  ``training=False`` leaves out the training
    rungs: the offline workload's traced run takes them from the real job."""
    import numpy as np

    from repro.data import pad_sequences
    from repro.experiments.persistence import load_checkpoint, save_checkpoint
    from repro.index import build_index
    from repro.quant.codec import quantize_matrix
    from repro.service import Deployment, RecommenderService
    from repro.serving import EmbeddingStore, Recommender, ServingConfig
    from repro.shard import LocalShardClient, ShardPool
    from repro.whitening import build_whitening

    spans: List[Span] = []
    metrics: Dict[str, float] = {}
    model = scenario.model
    window = model.max_seq_length
    batches = [histories[start:start + BATCH]
               for start in range(0, len(histories), BATCH)]
    # b16 rungs cycle the batches so they, too, have WARMUPS + samples
    batches = (batches * (1 + (WARMUPS + 64) // len(batches)))[:WARMUPS + 64]

    # -- setup layers, on a fresh recommender so nothing is cached --------
    fresh = Recommender(model, store=EmbeddingStore(scenario.features),
                        train_sequences=scenario.split.train_sequences)
    metrics["serving.item_matrix_build_ms"] = _once_ms(fresh.item_matrix)
    metrics["infer.compile_ms"] = _once_ms(fresh.engine)
    table = np.asarray(scenario.features[1:], dtype=np.float64)
    metrics["whitening.zca_fit_ms"] = _once_ms(
        lambda: build_whitening("zca", 1).fit(table))
    metrics["whitening.group_fit_ms"] = _once_ms(
        lambda: build_whitening("zca", 4).fit(table))
    checkpoint = workdir / "ladder-checkpoint.npz"
    metrics["experiments.persistence.save_ms"] = _once_ms(
        lambda: save_checkpoint(model, checkpoint,
                                feature_table=scenario.features))
    metrics["experiments.persistence.load_ms"] = _once_ms(
        lambda: load_checkpoint(checkpoint))

    # -- infer: the compiled engine's encode ------------------------------
    engine = fresh.engine()
    native = model.inference_item_matrix()
    matrix32 = fresh.item_matrix()

    def padded(rows: List[List[int]]):
        return pad_sequences([row[-window:] for row in rows], window)

    singles = [padded([history]) for history in histories]
    groups = [padded(batch) for batch in batches]
    encode_b1 = _timed("infer.encode", [
        (lambda ids=ids, lengths=lengths:
         engine.encode_sequences(ids, lengths, native))
        for ids, lengths in singles], spans)
    encode_b16 = _timed("infer.encode_b16", [
        (lambda ids=ids, lengths=lengths:
         engine.encode_sequences(ids, lengths, native))
        for ids, lengths in groups], spans)
    metrics["infer.encode_b1_p50_ms"] = encode_b1
    metrics["infer.encode_b16_p50_ms"] = encode_b16

    users = [engine.encode_sequences(ids, lengths, native)
             .astype(np.float32) for ids, lengths in singles]
    users16 = [engine.encode_sequences(ids, lengths, native)
               .astype(np.float32) for ids, lengths in groups]

    # -- shard / quant / index: the catalogue scan ------------------------
    def scan(client, name: str) -> List[float]:
        return [
            _timed(name, [
                (lambda query=query, history=history:
                 client.search(query, K, exclude=[history]))
                for query, history in zip(users, histories)], spans),
            _timed(name + "_b16", [
                (lambda query=query, batch=batch:
                 client.search(query, K, exclude=batch))
                for query, batch in zip(users16, batches)], spans),
        ]

    exact = LocalShardClient(matrix32)
    scan_b1, scan_b16 = scan(exact, "shard.exact_scan")
    metrics["shard.exact_scan_b1_p50_ms"] = scan_b1
    metrics["shard.exact_scan_b16_p50_ms"] = scan_b16
    metrics["shard.items_scanned_per_s"] = (
        scenario.num_items / (scan_b1 / 1000.0))

    begin = time.perf_counter()
    quantized = quantize_matrix(matrix32)
    metrics["quant.quantize_ms"] = (time.perf_counter() - begin) * 1000.0
    metrics["quant.bytes_per_item"] = float(quantized.bytes_per_item)
    int8 = LocalShardClient(matrix32, codec="int8", quantized=quantized)
    int8_b1, int8_b16 = scan(int8, "quant.int8_scan")
    metrics["quant.int8_scan_b1_p50_ms"] = int8_b1
    metrics["quant.int8_scan_b16_p50_ms"] = int8_b16
    identical = True
    for query, history in list(zip(users, histories))[:64]:
        wanted = exact.search(query, K, exclude=[history])
        got = int8.search(query, K, exclude=[history])
        identical = identical and all(
            np.array_equal(a, b) for a, b in zip(wanted, got))
    metrics["quant.identical_topk"] = 1.0 if identical else 0.0

    begin = time.perf_counter()
    index = build_index("ivf", seed=seed)
    index.build(matrix32[1:],
                ids=np.arange(1, matrix32.shape[0], dtype=np.int64))
    metrics["index.ivf_build_ms"] = (time.perf_counter() - begin) * 1000.0
    scanned: List[float] = []
    hits = 0

    def ivf_search(query):
        result = index.search(query, K)
        scanned.append(float(np.mean(index.last_scan_counts)))
        return result

    metrics["index.ivf_search_b1_p50_ms"] = _timed(
        "index.ivf_search", [(lambda query=query: ivf_search(query))
                             for query in users], spans)
    for query in users[:64]:
        wanted, _ = exact.search(query, K)
        got, _ = index.search(query, K)
        hits += len(set(wanted[0].tolist()) & set(got[0].tolist()))
    metrics["index.ivf_recall_at_10"] = hits / (64.0 * K)
    metrics["index.ivf_scanned_share"] = (
        median(scanned) / scenario.num_items)

    begin = time.perf_counter()
    pool = ShardPool.from_matrix(matrix32, 2)
    try:
        metrics["shard.pool_start_ms"] = (
            (time.perf_counter() - begin) * 1000.0)
        metrics["shard.pool2_scan_b1_p50_ms"] = _timed(
            "shard.pool2_scan", [
                (lambda query=query, history=history:
                 pool.search(query, K, exclude=[history]))
                for query, history in zip(users, histories)], spans)
    finally:
        pool.close()

    # -- serving / service: the same payloads, one rung up each time ------
    unattributed: List[float] = []

    def topk(history: List[int]) -> None:
        begin = time.perf_counter()
        result = fresh.topk([history], k=K)
        wall = (time.perf_counter() - begin) * 1000.0
        unattributed.append(wall - result.encode_ms - result.score_ms
                            - result.merge_ms)

    topk_b1 = _timed("serving.topk", [
        (lambda history=history: topk(history)) for history in histories],
        spans)
    metrics["serving.topk_b1_p50_ms"] = topk_b1
    metrics["serving.topk_b16_p50_ms"] = _timed("serving.topk_b16", [
        (lambda batch=batch: fresh.topk(batch, k=K))
        for batch in batches], spans)
    # topk's own time: its wall-clock minus the encode / score / merge
    # stages it reports (the default shards=1 path scores with a dense
    # matmul, not through the shard client, so that rung is not beneath it)
    metrics["serving.self_p50_ms"] = median(unattributed[WARMUPS:])

    payloads = [{"history": history, "k": K} for history in histories]
    rungs = {}
    for name, batching in (("service.direct", False),
                           ("service.batched", True)):
        with RecommenderService(batching=batching) as rung:
            rung.deploy(Deployment("ladder", fresh,
                                   config=ServingConfig(k=K)))
            rungs[name] = _timed(name, [
                (lambda payload=payload: rung.recommend(payload))
                for payload in payloads], spans)
    metrics["service.direct_p50_ms"] = rungs["service.direct"]
    metrics["service.self_p50_ms"] = rungs["service.direct"] - topk_b1
    metrics["service.batched_p50_ms"] = rungs["service.batched"]
    metrics["service.batcher.self_p50_ms"] = (
        rungs["service.batched"] - rungs["service.direct"])
    fresh.close()

    # -- observability: one scrape of the live service --------------------
    begin = time.perf_counter()
    exposition = service.render_metrics() or ""
    metrics["observability.render_metrics_ms"] = (
        (time.perf_counter() - begin) * 1000.0)
    metrics["observability.exposition_bytes"] = float(len(exposition))

    if training:
        metrics.update(_training_rungs(scenario, seed, spans))
    return {"metrics": metrics,
            "spans": [span.to_dict() for span in spans]}


def traced_steps(trainer, spans: List[Span], parent: str,
                 limit: Optional[int] = None) -> Dict[str, Any]:
    """Optimiser steps one by one, by the calls ``Trainer.train_one_epoch``
    makes, with a span around each: ``training.step`` > ``data.loader``
    (fetching the batch) + ``nn.forward`` + ``nn.backward`` +
    ``nn.optim_step``.  Runs one epoch, or ``limit`` steps.  Returns the
    milliseconds of every span by name, and the summed ``loss``."""
    from repro.nn.optim import clip_grad_norm

    model = trainer.model
    model.train()
    names = ("data.loader", "nn.forward", "nn.backward", "nn.optim_step")
    taken: Dict[str, Any] = {name: [] for name in names}
    taken["loss"] = 0.0
    batches = iter(trainer.loader)
    step = 0
    while limit is None or step < limit:
        marks = [now()]
        batch = next(batches, None)
        if batch is None:
            if limit is None:
                break
            batches = iter(trainer.loader)
            continue
        marks.append(now())
        trainer.optimizer.zero_grad()
        loss = model.loss(batch)
        marks.append(now())
        loss.backward()
        marks.append(now())
        if trainer.config.grad_clip_norm is not None:
            clip_grad_norm(model.parameters(), trainer.config.grad_clip_norm)
        trainer.optimizer.step()
        marks.append(now())
        taken["loss"] += float(loss.item()) * len(batch)
        spans.append(Span("training.step", marks[0], marks[4], parent, step))
        for index, name in enumerate(names):
            spans.append(Span(name, marks[index], marks[index + 1],
                              "training.step", step))
            taken[name].append((marks[index + 1] - marks[index]) * 1000.0)
        step += 1
    return taken


def _training_rungs(scenario: Scenario, seed: int,
                    spans: List[Span]) -> Dict[str, float]:
    """nn / data / training rungs on a clone of the served model (which is
    never trained)."""
    from repro.stream import clone_model
    from repro.training import Trainer, TrainingConfig

    model = clone_model(scenario.model, feature_table=scenario.features,
                        train_sequences=scenario.split.train_sequences)
    trainer = Trainer(model, scenario.split, TrainingConfig(seed=seed))
    taken = traced_steps(trainer, spans, parent="ladder", limit=TRAIN_STEPS)
    metrics = {
        "data.loader_batches_per_s": (
            TRAIN_STEPS / (sum(taken["data.loader"]) / 1000.0)),
        "nn.forward_p50_ms": median(taken["nn.forward"]),
        "nn.backward_p50_ms": median(taken["nn.backward"]),
        "nn.optim_step_p50_ms": median(taken["nn.optim_step"]),
    }
    begin = time.perf_counter()
    trainer.train_one_epoch()
    metrics["training.epoch_p50_s"] = time.perf_counter() - begin
    evaluations = []
    for _ in range(EVALUATIONS):
        begin = time.perf_counter()
        trainer.evaluate(scenario.split.test)
        evaluations.append(time.perf_counter() - begin)
    metrics["training.eval_p50_s"] = median(evaluations)
    return metrics
