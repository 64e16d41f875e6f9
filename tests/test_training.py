"""Tests for the training harness: metrics, evaluator, trainer, early stopping."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.data import load_dataset
from repro.data.splits import EvaluationCase, leave_one_out_split
from repro.models import ModelConfig, SASRecID, WhitenRec, build_model
from repro.text import encode_items
from repro.training import (
    Trainer,
    TrainingConfig,
    compute_metrics,
    evaluate_model,
    ndcg_at_k,
    recall_at_k,
    target_ranks,
)
from repro.training.trainer import quick_train


class TestRankingMetrics:
    def test_target_ranks_basic(self):
        scores = np.array([
            [0.0, 0.9, 0.5, 0.1],   # target 2 -> one item scored higher -> rank 2
            [0.0, 0.1, 0.2, 0.9],   # target 3 -> rank 1
        ])
        ranks = target_ranks(scores, np.array([2, 3]))
        np.testing.assert_array_equal(ranks, [2, 1])

    def test_target_ranks_with_ties_counts_strictly_higher(self):
        scores = np.array([[0.5, 0.5, 0.5]])
        assert target_ranks(scores, np.array([1]))[0] == 1

    def test_recall_at_k(self):
        ranks = np.array([1, 5, 21, 3])
        assert recall_at_k(ranks, 20) == pytest.approx(0.75)
        assert recall_at_k(ranks, 2) == pytest.approx(0.25)
        assert recall_at_k(np.array([]), 20) == 0.0

    def test_ndcg_at_k(self):
        # rank 1 -> 1.0; rank 2 -> 1/log2(3); out of range -> 0
        ranks = np.array([1, 2, 30])
        expected = (1.0 + 1.0 / np.log2(3) + 0.0) / 3
        assert ndcg_at_k(ranks, 20) == pytest.approx(expected)
        assert ndcg_at_k(np.array([]), 20) == 0.0

    def test_ndcg_upper_bounded_by_recall(self):
        rng = np.random.default_rng(0)
        ranks = rng.integers(1, 100, size=200)
        for k in (10, 20, 50):
            assert ndcg_at_k(ranks, k) <= recall_at_k(ranks, k) + 1e-12

    def test_compute_metrics_keys(self):
        metrics = compute_metrics(np.array([1, 2, 3]), ks=[20, 50])
        assert set(metrics) == {"recall@20", "ndcg@20", "recall@50", "ndcg@50"}


class TestEvaluateModel:
    @pytest.fixture(scope="class")
    def model(self):
        return SASRecID(30, ModelConfig(hidden_dim=16, num_layers=1, num_heads=2,
                                        max_seq_length=8, dropout=0.0, seed=0))

    @pytest.fixture(scope="class")
    def cases(self):
        rng = np.random.default_rng(0)
        return [
            EvaluationCase(user_id=u, history=list(rng.integers(1, 31, size=4)),
                           target=int(rng.integers(1, 31)))
            for u in range(25)
        ]

    def test_metrics_in_unit_interval(self, model, cases):
        metrics = evaluate_model(model, cases, ks=(5, 20), max_sequence_length=8)
        for value in metrics.values():
            assert 0.0 <= value <= 1.0

    def test_empty_cases(self, model):
        metrics = evaluate_model(model, [], ks=(20,))
        assert metrics["recall@20"] == 0.0

    def test_candidate_restriction_improves_or_keeps_metrics(self, model, cases):
        unrestricted = evaluate_model(model, cases, ks=(20,), max_sequence_length=8)
        restricted = evaluate_model(model, cases, ks=(20,), max_sequence_length=8,
                                    candidate_items=range(1, 11))
        assert restricted["recall@20"] >= unrestricted["recall@20"] - 1e-9

    @pytest.mark.parametrize("candidate_items", [None, range(1, 11)],
                             ids=["full", "restricted"])
    def test_batching_does_not_change_result(self, model, cases, candidate_items):
        small = evaluate_model(model, cases, ks=(20,), batch_size=3, max_sequence_length=8,
                               candidate_items=candidate_items)
        large = evaluate_model(model, cases, ks=(20,), batch_size=100, max_sequence_length=8,
                               candidate_items=candidate_items)
        assert small == large


class TestTrainer:
    def test_training_reduces_loss(self, tiny_split, tiny_features, tiny_model_config):
        model = WhitenRec(tiny_split.num_items, tiny_features, tiny_model_config)
        config = TrainingConfig(num_epochs=3, batch_size=128, learning_rate=3e-3,
                                max_sequence_length=12, seed=0)
        trainer = Trainer(model, tiny_split, config)
        result = trainer.fit()
        losses = [record.train_loss for record in result.history]
        assert len(losses) == 3
        assert losses[-1] < losses[0]

    def test_last_position_pruning_keeps_the_training_trajectory(
            self, tiny_split, tiny_features, tiny_model_config):
        """Two fp32 epochs against the same run on the all-positions encoder."""
        losses = {}
        for pruned in (True, False):
            with nn.autocast("float32"):
                model = WhitenRec(tiny_split.num_items, tiny_features,
                                  tiny_model_config)
            if not pruned:
                encoder = model.encoder
                encoder.forward_last = (
                    lambda rows, layout, encoder=encoder:
                    encoder.forward(layout.pad(rows), layout.lengths)[:, -1])
            trainer = Trainer(model, tiny_split, TrainingConfig(
                batch_size=128, max_sequence_length=12, seed=0))
            examples = len(trainer.loader.examples)
            losses[pruned] = [trainer.train_one_epoch() / examples
                              for _ in range(2)]
        assert losses[True][1] < losses[True][0]
        assert losses[True] == pytest.approx(losses[False], rel=1e-5)

    def test_trained_model_beats_untrained(self, tiny_split, tiny_features, tiny_model_config):
        untrained = WhitenRec(tiny_split.num_items, tiny_features, tiny_model_config)
        before = evaluate_model(untrained, tiny_split.test, ks=(20,),
                                max_sequence_length=12)
        model = WhitenRec(tiny_split.num_items, tiny_features, tiny_model_config)
        result = quick_train(model, tiny_split, num_epochs=4, learning_rate=3e-3,
                             max_sequence_length=12, seed=0)
        assert result.test_metrics["ndcg@20"] >= before["ndcg@20"]

    def test_early_stopping_restores_best_state(self, tiny_split, tiny_features,
                                                tiny_model_config):
        model = WhitenRec(tiny_split.num_items, tiny_features, tiny_model_config)
        config = TrainingConfig(num_epochs=4, batch_size=128, learning_rate=3e-3,
                                max_sequence_length=12, early_stopping_patience=1, seed=0)
        trainer = Trainer(model, tiny_split, config)
        result = trainer.fit()
        assert 1 <= result.best_epoch <= len(result.history)
        best_ndcg = max(r.validation_metrics["ndcg@20"] for r in result.history)
        assert result.best_validation["ndcg@20"] == pytest.approx(best_ndcg)

    def test_history_records_diagnostics_when_enabled(self, tiny_split, tiny_features,
                                                      tiny_model_config):
        model = WhitenRec(tiny_split.num_items, tiny_features, tiny_model_config)
        config = TrainingConfig(num_epochs=2, batch_size=128, max_sequence_length=12,
                                track_condition_number=True,
                                track_alignment_uniformity=True, seed=0)
        result = Trainer(model, tiny_split, config).fit()
        for record in result.history:
            assert record.condition_number is not None and record.condition_number > 0
            assert record.alignment is not None
            assert record.user_uniformity is not None

    def test_result_bookkeeping(self, tiny_split, tiny_features, tiny_model_config):
        model = SASRecID(tiny_split.num_items, tiny_model_config)
        result = quick_train(model, tiny_split, num_epochs=2, max_sequence_length=12, seed=0)
        assert result.num_parameters == model.num_parameters()
        assert result.total_seconds > 0
        assert result.seconds_per_epoch > 0
        assert set(result.test_metrics) == {"recall@20", "ndcg@20", "recall@50", "ndcg@50"}

    def test_seconds_per_epoch_is_mean_epoch_time(self, tiny_split, tiny_model_config):
        model = SASRecID(tiny_split.num_items, tiny_model_config)
        result = quick_train(model, tiny_split, num_epochs=2, max_sequence_length=12, seed=0)
        seconds = [record.seconds for record in result.history]
        assert result.seconds_per_epoch == pytest.approx(sum(seconds) / len(seconds))
        # the final test pass is not charged to the epochs
        assert result.seconds_per_epoch <= result.total_seconds / len(result.history)

    def test_seconds_per_epoch_empty_history(self):
        from repro.training.trainer import TrainingResult

        empty = TrainingResult(best_epoch=-1, best_validation={}, test_metrics={})
        assert empty.seconds_per_epoch == 0.0


def test_a_training_step_holds_one_graph():
    """``tracemalloc`` bounds on the steps ``train_one_epoch`` takes.

    WhitenRec fp32 on arts/small at batch 256.  After ``backward()`` only the
    parameter gradients are left of the step, and step 2's forward (run
    while step 1's loss is still referenced) peaks near step 1's live
    forward state instead of on top of step 1's whole graph.
    """
    dataset = load_dataset("arts", scale="small", seed=0)
    features = encode_items(dataset.items, embedding_dim=32, seed=0)
    split = leave_one_out_split(dataset.interactions)
    config = ModelConfig(hidden_dim=32, num_layers=2, num_heads=2,
                         dropout=0.1, max_seq_length=20, seed=0)
    with nn.autocast("float32"):
        model = build_model("whitenrec", dataset.num_items,
                            feature_table=features, config=config)
    trainer = Trainer(model, split, TrainingConfig(batch_size=256, seed=0))
    model.train()
    batches = iter(trainer.loader)
    first, second = next(batches), next(batches)
    mib = 2 ** 20
    tracemalloc.start()
    try:
        trainer.optimizer.zero_grad()
        base = tracemalloc.get_traced_memory()[0]
        loss = model.loss(first)
        forward_live = tracemalloc.get_traced_memory()[0] - base
        loss.backward()
        grad_bytes = sum(param.grad.nbytes for param in model.parameters()
                         if param.grad is not None)
        held = tracemalloc.get_traced_memory()[0] - base - grad_bytes
        trainer.optimizer.step()
        trainer.optimizer.zero_grad()
        tracemalloc.reset_peak()
        model.loss(second)
        second_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert loss is not None  # step 1's loss outlives step 2's forward
    assert forward_live > 8 * mib  # the bounds below measure a real graph
    assert held < 1 * mib, f"{held / mib:.1f} MiB held after backward()"
    assert second_peak < 1.25 * forward_live, (
        f"step 2 forward peaked at {second_peak / mib:.1f} MiB against "
        f"{forward_live / mib:.1f} MiB of live forward state")


@settings(max_examples=20, deadline=None)
@given(
    num_cases=st.integers(min_value=1, max_value=30),
    num_items=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=100),
)
def test_property_rank_metrics_consistent(num_cases, num_items, seed):
    """Recall@K is monotone in K and NDCG stays within [0, Recall]."""
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((num_cases, num_items + 1))
    targets = rng.integers(1, num_items + 1, size=num_cases)
    ranks = target_ranks(scores, targets)
    assert (ranks >= 1).all() and (ranks <= num_items + 1).all()
    previous = 0.0
    for k in (1, 5, 10, 20):
        current = recall_at_k(ranks, k)
        assert current >= previous - 1e-12
        assert 0.0 <= ndcg_at_k(ranks, k) <= current + 1e-12
        previous = current
