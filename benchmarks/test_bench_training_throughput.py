"""Benchmark: training throughput — fused float32 hot path vs the seed path.

Like the serving-throughput benchmark this guards an engineering property
rather than a paper artefact: Table IX's "time per epoch" is the one paper
efficiency result this repository regenerates, and the training hot path is
where it is decided.  Two models (SASRec_ID and WhitenRec — an ID-embedding
and a frozen-text-feature item encoder) are trained on the synthetic dataset
in two modes:

* **seed-style**: float64, reference (allocation-per-op) kernels
  (``nn.functional.fused_kernels(False)``), the allocating ``Adam(fused=False)``
  step and per-batch python padding via ``make_batch`` — the way the seed
  trained;
* **fast**: float32 parameters (``nn.autocast("float32")``), the fused
  kernels, the in-place optimiser and the pre-padded vectorised
  ``SequenceDataLoader``.

The benchmark asserts the fast path reaches at least ``MIN_SPEEDUP`` the
examples/second of the seed-style path while landing within tolerance of the
same validation metrics, and records the measured numbers in
``benchmarks/out/BENCH_train.json`` so future PRs have a training
performance trajectory to regress against (the committed baseline sits at
the repository root).
"""

from __future__ import annotations

import time

import numpy as np
from conftest import run_once, write_bench_result

from repro import nn
from repro.nn import functional as F
from repro.data import load_dataset, leave_one_out_split
from repro.data.dataloader import SequenceDataLoader, make_batch
from repro.data.splits import training_examples
from repro.models import ModelConfig, build_model
from repro.text import encode_items
from repro.training.evaluation import evaluate_model


MIN_SPEEDUP = 2.0
#: |ndcg difference| must stay under max(METRIC_ATOL, METRIC_RTOL * seed).
METRIC_ATOL = 0.02
METRIC_RTOL = 0.25

BATCH_SIZE = 256
LEARNING_RATE = 1e-3
GRAD_CLIP = 5.0
WARMUP_EPOCHS = 1
TIMED_EPOCHS = 3


def _build(model_name: str, num_items: int, features: np.ndarray,
           config: ModelConfig):
    kwargs = {} if model_name == "sasrec_id" else {"feature_table": features}
    return build_model(model_name, num_items, config=config, **kwargs)


def _train_step(model, optimizer, batch) -> None:
    optimizer.zero_grad()
    loss = model.loss(batch)
    loss.backward()
    nn.clip_grad_norm(model.parameters(), GRAD_CLIP)
    optimizer.step()


def _train_seed_style(model_name, num_items, features, config, examples,
                      max_length):
    """The seed's loop: float64, reference kernels, python-loop batching."""
    with F.fused_kernels(False):
        model = _build(model_name, num_items, features, config)
        optimizer = nn.Adam(model.parameters(), lr=LEARNING_RATE, fused=False)
        rng = np.random.default_rng(0)
        order = np.arange(len(examples))

        def epoch():
            rng.shuffle(order)
            for start in range(0, len(order), BATCH_SIZE):
                chunk = [examples[i] for i in order[start: start + BATCH_SIZE]]
                _train_step(model, optimizer, make_batch(chunk, max_length))

        for _ in range(WARMUP_EPOCHS):
            epoch()
        start_time = time.perf_counter()
        for _ in range(TIMED_EPOCHS):
            epoch()
        seconds = time.perf_counter() - start_time
    return model, seconds


def _train_fast(model_name, num_items, features, config, examples, max_length):
    """The overhauled loop: float32, fused kernels, pre-padded loader."""
    with nn.autocast("float32"):
        model = _build(model_name, num_items, features, config)
    optimizer = nn.Adam(model.parameters(), lr=LEARNING_RATE)
    loader = SequenceDataLoader(examples, batch_size=BATCH_SIZE,
                                max_length=max_length, shuffle=True, seed=0)

    def epoch():
        for batch in loader:
            _train_step(model, optimizer, batch)

    for _ in range(WARMUP_EPOCHS):
        epoch()
    start_time = time.perf_counter()
    for _ in range(TIMED_EPOCHS):
        epoch()
    seconds = time.perf_counter() - start_time
    return model, seconds


def run_training_throughput(scale: str = "bench") -> dict:
    dataset_scale = "small" if scale == "full" else "tiny"
    hidden_dim = 64 if scale == "full" else 32
    max_length = 50 if scale == "full" else 20

    dataset = load_dataset("arts", scale=dataset_scale, seed=3)
    split = leave_one_out_split(dataset.interactions)
    features = encode_items(dataset.items, embedding_dim=hidden_dim, seed=3)
    config = ModelConfig(hidden_dim=hidden_dim, num_layers=2, num_heads=2,
                         dropout=0.1, max_seq_length=max_length, seed=0)
    examples = training_examples(split, max_sequence_length=max_length,
                                 augment_prefixes=True)
    timed_examples = TIMED_EPOCHS * len(examples)

    results = {
        "dataset": {"scale": dataset_scale, "num_items": dataset.num_items,
                    "num_examples": len(examples)},
        "protocol": {"batch_size": BATCH_SIZE, "warmup_epochs": WARMUP_EPOCHS,
                     "timed_epochs": TIMED_EPOCHS, "hidden_dim": hidden_dim,
                     "max_length": max_length},
        "models": {},
    }
    for model_name in ("sasrec_id", "whitenrec"):
        seed_model, seed_seconds = _train_seed_style(
            model_name, dataset.num_items, features, config, examples, max_length
        )
        fast_model, fast_seconds = _train_fast(
            model_name, dataset.num_items, features, config, examples, max_length
        )
        seed_metrics = evaluate_model(seed_model, split.validation, ks=(20,),
                                      max_sequence_length=max_length)
        fast_metrics = evaluate_model(fast_model, split.validation, ks=(20,),
                                      max_sequence_length=max_length)
        results["models"][model_name] = {
            "seed_examples_per_sec": timed_examples / seed_seconds,
            "fast_examples_per_sec": timed_examples / fast_seconds,
            "speedup": seed_seconds / fast_seconds,
            "seed_seconds_per_epoch": seed_seconds / TIMED_EPOCHS,
            "fast_seconds_per_epoch": fast_seconds / TIMED_EPOCHS,
            "seed_validation": seed_metrics,
            "fast_validation": fast_metrics,
            "fast_dtype": str(fast_model.dtype),
        }
    return results


def test_training_throughput(benchmark, scale):
    result = run_once(benchmark, run_training_throughput, scale=scale)

    for model_name, row in result["models"].items():
        print(
            f"\n{model_name}: seed-style {row['seed_examples_per_sec']:,.0f} ex/s "
            f"vs fp32 fused {row['fast_examples_per_sec']:,.0f} ex/s "
            f"-> {row['speedup']:.2f}x "
            f"(ndcg@20 {row['seed_validation']['ndcg@20']:.4f} vs "
            f"{row['fast_validation']['ndcg@20']:.4f})"
        )

    write_bench_result("train", result)

    for model_name, row in result["models"].items():
        assert row["fast_dtype"] == "float32", model_name
        assert row["speedup"] >= MIN_SPEEDUP, (
            f"{model_name}: fp32 fused training only {row['speedup']:.2f}x the "
            f"seed-style path (expected >= {MIN_SPEEDUP}x)"
        )
        for metric, seed_value in row["seed_validation"].items():
            fast_value = row["fast_validation"][metric]
            tolerance = max(METRIC_ATOL, METRIC_RTOL * seed_value)
            assert abs(fast_value - seed_value) <= tolerance, (
                f"{model_name}: fp32 {metric} {fast_value:.4f} deviates from "
                f"float64 {seed_value:.4f} by more than {tolerance:.4f}"
            )
