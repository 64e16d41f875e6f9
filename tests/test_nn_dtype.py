"""Tests for the dtype policy, fused kernels and in-place optimiser contract.

Covers the float32 training substrate introduced with the hot-path overhaul:
``set_default_dtype`` / ``autocast`` semantics, each fused kernel against its
closed-form numpy reference (forward values) and float64 central differences
(gradients), Adam bit for bit against the closed-form update,
float32-vs-float64 gradient agreement on a real SASRec step, dtype-preserving
checkpoints and the float32 evaluation fast path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor
from repro.data.dataloader import make_batch
from repro.models import ModelConfig, build_model
from repro.training.evaluation import evaluate_model, target_ranks

from gradcheck import check_gradient


@pytest.fixture(autouse=True)
def _restore_global_modes():
    """Every test leaves the substrate in its default configuration."""
    yield
    nn.set_default_dtype(np.float64)


def small_batch(max_length: int = 8):
    examples = [(1, [1, 2, 3], 4), (2, [2, 3], 1), (3, [4, 1, 2, 3], 2)]
    return make_batch(examples, max_length=max_length)


def build_sasrec(num_items: int = 6, seed: int = 0):
    config = ModelConfig(hidden_dim=8, num_layers=1, num_heads=2,
                         dropout=0.0, max_seq_length=8, seed=seed)
    return build_model("sasrec_id", num_items, config=config)


# ---------------------------------------------------------------------- #
# Default dtype / autocast
# ---------------------------------------------------------------------- #
class TestDtypePolicy:
    def test_default_is_float64(self):
        assert nn.get_default_dtype() == np.float64
        assert Tensor([1.0, 2.0]).dtype == np.float64

    def test_set_default_dtype_round_trip(self):
        previous = nn.set_default_dtype("float32")
        assert previous == np.float64
        assert Tensor([1.0]).dtype == np.float32
        assert nn.Parameter(np.zeros(3)).dtype == np.float32
        restored = nn.set_default_dtype(previous)
        assert restored == np.float32
        assert Tensor([1.0]).dtype == np.float64

    def test_set_default_dtype_rejects_non_float(self):
        with pytest.raises(ValueError):
            nn.set_default_dtype(np.int64)
        with pytest.raises(ValueError):
            nn.set_default_dtype("float16")

    def test_autocast_restores_on_exit(self):
        with nn.autocast("float32"):
            assert nn.get_default_dtype() == np.float32
        assert nn.get_default_dtype() == np.float64

    def test_autocast_nesting(self):
        with nn.autocast("float32"):
            with nn.autocast(np.float64):
                assert Tensor([1.0]).dtype == np.float64
            assert Tensor([1.0]).dtype == np.float32
        assert nn.get_default_dtype() == np.float64

    def test_no_grad_nesting(self):
        assert nn.is_grad_enabled()
        with nn.no_grad():
            assert not nn.is_grad_enabled()
            with nn.no_grad():
                assert not nn.is_grad_enabled()
            # Restoring the inner context must not re-enable gradients early.
            assert not nn.is_grad_enabled()
        assert nn.is_grad_enabled()

    def test_ops_follow_operand_dtype_not_global_default(self):
        with nn.autocast("float32"):
            x = Tensor(np.arange(4.0), requires_grad=True)
        # Outside the autocast block the default is float64 again; mixing a
        # python scalar or a float64 array in must not upcast the graph.
        y = ((x * 2.0 + np.ones(4)) / 3.0 - 0.5).gelu()
        assert y.dtype == np.float32
        y.sum().backward()
        assert x.grad.dtype == np.float32

    def test_model_built_under_autocast_is_float32(self):
        with nn.autocast("float32"):
            model = build_sasrec()
        assert model.dtype == np.float32
        assert all(p.dtype == np.float32 for p in model.parameters())
        loss = model.loss(small_batch())
        assert loss.dtype == np.float32
        loss.backward()
        assert all(p.grad is None or p.grad.dtype == np.float32
                   for p in model.parameters())

    def test_bm3_auxiliary_loss_stays_float32(self):
        """The BYOL-style bootstrap branch must not re-wrap into float64."""
        rng = np.random.default_rng(0)
        features = rng.standard_normal((7, 8))
        features[0] = 0.0
        config = ModelConfig(hidden_dim=8, num_layers=1, num_heads=2,
                             dropout=0.1, max_seq_length=8, seed=0)
        with nn.autocast("float32"):
            model = build_model("bm3", 6, feature_table=features, config=config)
        loss = model.loss(small_batch())
        assert loss.dtype == np.float32


# ---------------------------------------------------------------------- #
# Fused kernels against closed-form numpy and central differences
# ---------------------------------------------------------------------- #
#: tolerances of a float64 central difference (step 1e-6) on these sizes;
#: a wrong sign or a dropped term is off by O(1)
GRAD_TOL = dict(atol=1e-7, rtol=1e-6)


def _numpy_gelu(x):
    return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi)
                                    * (x + 0.044715 * (x * x * x))))


def _numpy_layer_norm(x, weight, bias, eps=1e-12):
    inv_count = 1.0 / x.shape[-1]
    centered = x - x.sum(axis=-1, keepdims=True) * inv_count
    var = (centered * centered).sum(axis=-1, keepdims=True) * inv_count
    return centered / np.sqrt(var + eps) * weight + bias


def _dropout_cases():
    """``(name, apply(x, p, rng), x_shape, draws(rng, dtype))`` for the three
    dropout entries; ``draws`` is the part of the mask stream ``x`` sees."""
    full = (3, 5, 4)  # the padded tensor the row variants draw masks for
    rows = (np.array([0, 0, 2]), np.array([1, 4, 3]))
    last = (Ellipsis, full[1] - 1, slice(None))
    return [
        ("dropout", lambda x, p, rng: F.dropout(x, p, True, rng),
         (8, 8), lambda rng, dtype: rng.random((8, 8), dtype=dtype)),
        ("dropout_rows",
         lambda x, p, rng: F.dropout_rows(x, p, True, rng, full, rows),
         (3, 4), lambda rng, dtype: rng.random(full, dtype=dtype)[rows]),
        ("dropout_last",
         lambda x, p, rng: F.dropout_last(x, p, True, rng, full[1]),
         (3, 4), lambda rng, dtype: rng.random(full, dtype=dtype)[last]),
    ]


class TestFusedKernels:
    def test_softmax_matches_reference(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal((4, 3, 5))
        for axis in (-1, 1):
            shifted = data - data.max(axis=axis, keepdims=True)
            exps = np.exp(shifted)
            expected = exps / exps.sum(axis=axis, keepdims=True)
            value = F.softmax(Tensor(data), axis=axis).data
            np.testing.assert_array_equal(value, expected)
            readout = Tensor(rng.standard_normal(data.shape))
            check_gradient(lambda t: (F.softmax(t, axis=axis)
                                      * readout).sum(), data, **GRAD_TOL)

    def test_layer_norm_matches_reference(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((6, 7))
        weight_values = rng.standard_normal(7)
        bias_values = np.arange(7.0)
        out = F.layer_norm(Tensor(data), nn.Parameter(weight_values),
                           nn.Parameter(bias_values))
        np.testing.assert_array_equal(
            out.data, _numpy_layer_norm(data, weight_values, bias_values))
        readout = Tensor(rng.standard_normal((6, 7)))
        check_gradient(lambda x, w, b: (F.layer_norm(x, w, b) * readout).sum(),
                       data, weight_values, bias_values, **GRAD_TOL)
        batched = rng.standard_normal((2, 3, 7))
        check_gradient(lambda x, w, b: (F.layer_norm(x, w, b) ** 2).sum(),
                       batched, weight_values, bias_values, **GRAD_TOL)

    @pytest.mark.parametrize("reduction", ["mean", "sum", "none"])
    @pytest.mark.parametrize("ignore_index", [None, 0])
    def test_cross_entropy_matches_reference(self, reduction, ignore_index):
        rng = np.random.default_rng(2)
        data = rng.standard_normal((5, 9))
        targets = np.array([1, 0, 3, 8, 2])
        keep = (np.ones(5, dtype=bool) if ignore_index is None
                else targets != ignore_index)
        shifted = data - data.max(axis=-1, keepdims=True)
        log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        losses = (-(shifted[np.arange(5), np.where(keep, targets, 0)]
                    - log_norm[:, 0]) * keep.astype(np.float64))
        expected = {"none": losses, "sum": losses.sum(),
                    "mean": losses.sum() * (1.0 / keep.sum())}[reduction]
        loss = F.cross_entropy(Tensor(data), targets, reduction=reduction,
                               ignore_index=ignore_index)
        np.testing.assert_array_equal(loss.data, expected)
        weights = Tensor(np.arange(1.0, 6.0))

        def objective(logits):
            loss = F.cross_entropy(logits, targets, reduction=reduction,
                                   ignore_index=ignore_index)
            return (loss * weights).sum() if reduction == "none" else loss * 1.5

        check_gradient(objective, data, **GRAD_TOL)

    def test_gelu_matches_reference(self):
        rng = np.random.default_rng(3)
        data = rng.standard_normal((4, 6)) * 2.0
        np.testing.assert_array_equal(Tensor(data).gelu().data,
                                      _numpy_gelu(data))
        readout = Tensor(rng.standard_normal((4, 6)))
        check_gradient(lambda t: (t.gelu() * readout).sum(), data, **GRAD_TOL)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_dropout_matches_reference(self, dtype):
        """The mask is the fixed-seed draw; ``dx`` is ``g * mask / (1 - p)``."""
        p, scale = 0.4, 1.0 / 0.6
        for name, apply, shape, draw in _dropout_cases():
            rng = np.random.default_rng(4)
            data = rng.standard_normal(shape).astype(dtype)
            readout = rng.standard_normal(shape).astype(dtype)
            keep = draw(np.random.default_rng(7), dtype) >= p
            x = Tensor(data, requires_grad=True, dtype=dtype)
            out = apply(x, p, np.random.default_rng(7))
            (out * Tensor(readout, dtype=dtype)).sum().backward()
            np.testing.assert_array_equal(out.data, data * keep * scale,
                                          err_msg=name)
            np.testing.assert_array_equal(x.grad, readout * keep * scale,
                                          err_msg=name)
            if dtype == np.float64:
                check_gradient(lambda t: (apply(t, p, np.random.default_rng(7))
                                          * Tensor(readout)).sum(),
                               data, **GRAD_TOL)

    def test_masked_fill_matches_reference(self):
        rng = np.random.default_rng(5)
        data = rng.standard_normal((3, 4))
        # A mask of x's shape, and one broadcast over a new leading axis
        # (the gradient is then summed back onto x).
        for mask in (np.array([[True, False, False, True]] * 3),
                     rng.random((2, 3, 4)) < 0.5):
            readout = rng.standard_normal(mask.shape)
            x = Tensor(data, requires_grad=True)
            out = F.masked_fill(x, mask)
            np.testing.assert_array_equal(out.data,
                                          np.where(mask, F.MASK_VALUE, data))
            (out * Tensor(readout)).sum().backward()
            expected_grad = readout * ~mask
            if mask.ndim > data.ndim:
                expected_grad = expected_grad.sum(axis=0)
            np.testing.assert_array_equal(x.grad, expected_grad)
            # A small fill value: -1e9 would drown the difference quotient.
            check_gradient(lambda t: (F.masked_fill(t, mask, value=-7.0)
                                      * Tensor(readout)).sum(),
                           data, **GRAD_TOL)

    def test_linear_matches_reference(self):
        """2-D and 3-D inputs, with and without bias."""
        rng = np.random.default_rng(6)
        weight = np.arange(8.0).reshape(4, 2) / 7.0
        bias = np.array([0.5, -0.25])
        for shape in ((3, 5, 4), (5, 4)):
            data = rng.standard_normal(shape)
            readout = Tensor(rng.standard_normal(shape[:-1] + (2,)))
            out = F.linear(Tensor(data), Tensor(weight), Tensor(bias))
            np.testing.assert_allclose(out.data, data @ weight + bias,
                                       rtol=1e-12, atol=1e-12)
            out = F.linear(Tensor(data), Tensor(weight))
            np.testing.assert_allclose(out.data, data @ weight,
                                       rtol=1e-12, atol=1e-12)
            check_gradient(lambda x, w, b: (F.linear(x, w, b) * readout).sum(),
                           data, weight, bias, **GRAD_TOL)
            check_gradient(lambda x, w: (F.linear(x, w) * readout).sum(),
                           data, weight, **GRAD_TOL)

    def test_full_model_loss_bit_identical_across_modes(self):
        """Recording the graph changes what is kept for backward, never the
        value: the fused kernels' no-grad early returns compute the same."""
        batch = small_batch()
        for dtype in ("float64", "float32"):
            with nn.autocast(dtype):
                model = build_sasrec(seed=11)
            recorded = model.loss(batch)
            with nn.no_grad():
                plain = model.loss(batch)
            assert recorded.requires_grad and not plain.requires_grad
            assert recorded.item() == plain.item()


# ---------------------------------------------------------------------- #
# float32 vs float64 gradients on a real model step
# ---------------------------------------------------------------------- #
class TestFloat32Gradients:
    def test_sasrec_step_gradients_agree_across_precisions(self):
        batch = small_batch()
        grads = {}
        losses = {}
        for dtype in ("float64", "float32"):
            with nn.autocast(dtype):
                model = build_sasrec(seed=5)
            loss = model.loss(batch)
            loss.backward()
            losses[dtype] = loss.item()
            grads[dtype] = {name: param.grad.copy() if param.grad is not None
                            else None
                            for name, param in model.named_parameters()}
        assert losses["float32"] == pytest.approx(losses["float64"], rel=1e-5)
        for name, reference in grads["float64"].items():
            result = grads["float32"][name]
            if reference is None:
                assert result is None
                continue
            np.testing.assert_allclose(
                result, reference, rtol=1e-4, atol=1e-5,
                err_msg=f"gradient mismatch for {name}",
            )


# ---------------------------------------------------------------------- #
# Optimisers: fused in-place kernels
# ---------------------------------------------------------------------- #
class TestFusedOptimizers:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.1])
    def test_adam_fused_matches_reference(self, weight_decay):
        """The in-place step, bit for bit, against the closed-form update."""
        rng = np.random.default_rng(0)
        start = rng.standard_normal((4, 3))
        grads = [rng.standard_normal((4, 3)) for _ in range(5)]
        lr, beta1, beta2, eps = 0.05, 0.9, 0.999, 1e-8
        param = nn.Parameter(start.copy())
        optimizer = nn.Adam([param], lr=lr, betas=(beta1, beta2), eps=eps,
                            weight_decay=weight_decay)
        expected, m, v = start.copy(), np.zeros((4, 3)), np.zeros((4, 3))
        for step, grad in enumerate(grads, start=1):
            param.grad = grad.copy()
            optimizer.step()
            if weight_decay:
                grad = grad + weight_decay * expected
            m = beta1 * m + (1.0 - beta1) * grad
            v = beta2 * v + (1.0 - beta2) * grad ** 2
            m_hat = m / (1.0 - beta1 ** step)
            v_hat = v / (1.0 - beta2 ** step)
            expected = expected - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_array_equal(param.data, expected)

    def test_fused_step_updates_param_in_place(self):
        param = nn.Parameter(np.ones(4))
        buffer = param.data
        optimizer = nn.Adam([param], lr=0.1)
        param.grad = np.ones(4)
        optimizer.step()
        assert param.data is buffer  # in-place contract

    def test_clip_grad_norm_in_place_and_single_pass(self):
        param = nn.Parameter(np.zeros(4))
        param.grad = np.array([3.0, 0.0, 4.0, 0.0])
        buffer = param.grad
        total = nn.clip_grad_norm([param], max_norm=1.0)
        assert total == pytest.approx(5.0)
        assert param.grad is buffer  # scaled in place, not rebound
        np.testing.assert_allclose(param.grad, [0.6, 0.0, 0.8, 0.0])

    def test_clip_grad_norm_below_threshold_untouched(self):
        param = nn.Parameter(np.zeros(2))
        param.grad = np.array([0.3, 0.4])
        total = nn.clip_grad_norm([param], max_norm=1.0)
        assert total == pytest.approx(0.5)
        np.testing.assert_array_equal(param.grad, [0.3, 0.4])


# ---------------------------------------------------------------------- #
# Checkpoints preserve dtype
# ---------------------------------------------------------------------- #
class TestCheckpointDtype:
    def test_float32_checkpoint_round_trip(self, tmp_path):
        from repro.models.checkpoint import load_model, save_checkpoint

        with nn.autocast("float32"):
            model = build_sasrec(seed=9)
        path = save_checkpoint(model, tmp_path / "model.npz")
        # Loading runs under the (float64) default; the checkpoint dtype must
        # win and the global default must be untouched afterwards.
        restored = load_model(path)
        assert nn.get_default_dtype() == np.float64
        assert restored.dtype == np.float32
        for (name, original), (_, loaded) in zip(
            sorted(model.named_parameters()),
            sorted(restored.named_parameters()),
        ):
            assert loaded.dtype == np.float32, name
            np.testing.assert_array_equal(loaded.data, original.data)

    def test_float64_checkpoint_unchanged(self, tmp_path):
        from repro.models.checkpoint import (load_checkpoint, load_model,
                                             save_checkpoint)

        model = build_sasrec(seed=9)
        path = save_checkpoint(model, tmp_path / "model.npz")
        assert load_checkpoint(path).metadata["dtype"] == "float64"
        assert load_model(path).dtype == np.float64


# ---------------------------------------------------------------------- #
# Evaluation fast path
# ---------------------------------------------------------------------- #
class TestEvaluationFastPath:
    def _cases(self, num_items=6):
        from repro.data.splits import EvaluationCase

        rng = np.random.default_rng(0)
        cases = []
        for user in range(24):
            history = list(rng.integers(1, num_items + 1,
                                        size=rng.integers(1, 6)))
            cases.append(EvaluationCase(
                user_id=user, history=history,
                target=int(rng.integers(1, num_items + 1)),
            ))
        return cases

    def test_fast_path_ranks_match_predict_scores(self):
        from repro.data.dataloader import evaluation_batches

        model = build_sasrec(seed=13)
        cases = self._cases()
        # Reference: the seed evaluation loop (float64 predict_scores).
        reference_ranks = []
        for batch in evaluation_batches(cases, 8, 8):
            scores = model.predict_scores(batch)
            reference_ranks.append(target_ranks(scores, batch.targets))
        reference = np.concatenate(reference_ranks)

        fast_ranks = []
        item_matrix = model.inference_item_matrix()
        for batch in evaluation_batches(cases, 8, 8):
            scores = model.item_scores(batch.item_ids, batch.lengths,
                                       item_matrix=item_matrix,
                                       dtype=np.float32)
            fast_ranks.append(target_ranks(scores, batch.targets))
        np.testing.assert_array_equal(np.concatenate(fast_ranks), reference)

    def test_evaluate_model_dtypes_agree(self):
        model = build_sasrec(seed=13)
        cases = self._cases()
        fast = evaluate_model(model, cases, ks=(3, 5), batch_size=8,
                              max_sequence_length=8)
        exact = evaluate_model(model, cases, ks=(3, 5), batch_size=8,
                               max_sequence_length=8, score_dtype=None)
        assert fast == exact
