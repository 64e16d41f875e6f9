"""Tests for repro.nn.functional: softmax, losses, layer norm, masks, dropout."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import functional as F
from repro.nn.attention import PackedRows
from repro.nn.tensor import Tensor

from gradcheck import check_gradient


class TestSoftmax:
    def test_rows_sum_to_one(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 7)))
        probs = F.softmax(logits, axis=-1)
        np.testing.assert_allclose(probs.data.sum(axis=-1), np.ones(4), atol=1e-12)

    def test_invariant_to_constant_shift(self):
        logits = np.random.default_rng(1).standard_normal((3, 5))
        a = F.softmax(Tensor(logits)).data
        b = F.softmax(Tensor(logits + 100.0)).data
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_handles_large_values(self):
        probs = F.softmax(Tensor(np.array([[1e4, 0.0, -1e4]]))).data
        assert np.isfinite(probs).all()
        assert probs[0, 0] == pytest.approx(1.0)

class TestCrossEntropy:
    def test_matches_manual_computation(self):
        logits_values = np.array([[2.0, 1.0, 0.1], [0.5, 2.5, 0.3]])
        targets = np.array([0, 1])
        loss = F.cross_entropy(Tensor(logits_values), targets)
        expected = -np.mean(
            np.log(np.exp(logits_values[np.arange(2), targets])
                   / np.exp(logits_values).sum(axis=1))
        )
        assert loss.item() == pytest.approx(expected, abs=1e-10)

    def test_perfect_prediction_near_zero(self):
        logits = np.full((2, 4), -50.0)
        logits[0, 2] = 50.0
        logits[1, 0] = 50.0
        loss = F.cross_entropy(Tensor(logits), np.array([2, 0]))
        assert loss.item() == pytest.approx(0.0, abs=1e-6)

    def test_reduction_modes(self):
        logits = Tensor(np.random.default_rng(0).standard_normal((4, 5)))
        targets = np.array([0, 1, 2, 3])
        none = F.cross_entropy(logits, targets, reduction="none")
        total = F.cross_entropy(logits, targets, reduction="sum")
        mean = F.cross_entropy(logits, targets, reduction="mean")
        assert none.shape == (4,)
        assert total.item() == pytest.approx(float(none.data.sum()))
        assert mean.item() == pytest.approx(float(none.data.mean()))

    def test_ignore_index_excludes_rows(self):
        logits = np.random.default_rng(1).standard_normal((3, 5))
        with_pad = F.cross_entropy(Tensor(logits), np.array([1, 0, 2]), ignore_index=0)
        only_rows = F.cross_entropy(Tensor(logits[[0, 2]]), np.array([1, 2]))
        assert with_pad.item() == pytest.approx(only_rows.item(), abs=1e-10)

    def test_gradient_is_softmax_minus_onehot(self):
        logits_values = np.random.default_rng(2).standard_normal((3, 4))
        targets = np.array([1, 3, 0])
        logits = Tensor(logits_values, requires_grad=True)
        F.cross_entropy(logits, targets).backward()
        softmax = np.exp(logits_values) / np.exp(logits_values).sum(axis=1, keepdims=True)
        onehot = np.zeros_like(softmax)
        onehot[np.arange(3), targets] = 1.0
        np.testing.assert_allclose(logits.grad, (softmax - onehot) / 3, atol=1e-10)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.array([0, 1]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            F.cross_entropy(Tensor(np.zeros((2, 3))), np.array([0, 1]), reduction="bogus")


class TestLayerNorm:
    def test_output_statistics(self):
        x = Tensor(np.random.default_rng(0).standard_normal((5, 8)) * 3 + 2)
        out = F.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8))).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-8)
        np.testing.assert_allclose(out.std(axis=-1), np.ones(5), atol=1e-4)

    def test_weight_and_bias_applied(self):
        x = Tensor(np.random.default_rng(1).standard_normal((2, 4)))
        out = F.layer_norm(x, Tensor(np.full(4, 2.0)), Tensor(np.full(4, 1.0))).data
        base = F.layer_norm(x, Tensor(np.ones(4)), Tensor(np.zeros(4))).data
        np.testing.assert_allclose(out, base * 2.0 + 1.0, atol=1e-10)


class TestDropoutAndMasks:
    def test_dropout_disabled_in_eval(self):
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, p=0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_scales_kept_entries(self):
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, p=0.4, training=True, rng=np.random.default_rng(0)).data
        kept = out[out > 0]
        np.testing.assert_allclose(kept, np.full_like(kept, 1.0 / 0.6))
        assert abs((out == 0).mean() - 0.4) < 0.02

    def test_dropout_rejects_p_one(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), p=1.0, training=True)

    @pytest.mark.parametrize("p", [0.1, 1e-9, 0.9999999, np.float64(0.3),
                                   np.float32(0.3)], ids=repr)
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_mask_is_the_float_draw_comparison(self, dtype, p):
        """The mask and the generator state afterwards equal
        ``rng.random(shape, dtype)[index] >= p`` and its state, for 0, 1, odd
        and even draw counts from an empty or a half-word-buffered entry."""
        shapes = {"zero": (0, 3, 2), "one": (1, 1, 1), "odd": (3, 5, 3),
                  "even": (3, 5, 4)}
        for draws, shape in shapes.items():
            batch, seq_len = shape[:2]
            lengths = np.minimum(np.arange(1, batch + 1), seq_len)
            indices = {"all": Ellipsis,
                       "last": (Ellipsis, seq_len - 1, slice(None)),
                       "packed": PackedRows(lengths, batch, seq_len).rows}
            for buffered in (False, True):
                for name, index in indices.items():
                    case = f"{draws} draws, {name}, buffered={buffered}"
                    expected_rng = np.random.default_rng(17)
                    rng = np.random.default_rng(17)
                    if buffered:  # leaves a 32-bit half in PCG64's buffer
                        expected_rng.random(1, dtype=np.float32)
                        rng.random(1, dtype=np.float32)
                    expected = expected_rng.random(shape, dtype)[index] >= p
                    x = Tensor(np.ones(expected.shape, dtype=dtype),
                               dtype=dtype)
                    out = F._dropout(x, p, rng, shape, index)
                    np.testing.assert_array_equal(out.data != 0, expected,
                                                  err_msg=case)
                    assert (rng.bit_generator.state
                            == expected_rng.bit_generator.state), case
                    np.testing.assert_array_equal(
                        rng.random(3, dtype=np.float32),
                        expected_rng.random(3, dtype=np.float32), err_msg=case)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_dropout_threshold_at_a_drawn_value(self, dtype):
        """``p`` on and one float64 step beside a draw: a Python float
        compares in the draws' dtype and an ``np.float64`` in float64."""
        drawn = float(np.random.default_rng(5).random(64, dtype)[40])
        for p in (drawn, np.nextafter(drawn, 1.0), np.nextafter(drawn, 0.0)):
            for p in (float(p), np.float64(p)):
                expected = np.random.default_rng(5).random(64, dtype) >= p
                out = F.dropout(Tensor(np.ones(64, dtype=dtype), dtype=dtype),
                                p, True, np.random.default_rng(5))
                np.testing.assert_array_equal(out.data != 0, expected,
                                              err_msg=repr(p))

    def test_dropout_masks_need_a_pcg64_generator(self):
        rng = np.random.Generator(np.random.MT19937(0))
        with pytest.raises(TypeError, match="PCG64"):
            F.dropout(Tensor(np.ones(4)), 0.5, True, rng)

    def test_causal_mask(self):
        mask = F.causal_mask(4)
        assert mask.shape == (4, 4)
        assert not mask[2, 1]      # can attend to the past
        assert mask[1, 2]          # cannot attend to the future
        assert not mask.diagonal().any()

    def test_padding_mask_left_padding(self):
        mask = F.padding_mask(np.array([2, 4]), seq_len=4)
        np.testing.assert_array_equal(mask[0], [True, True, False, False])
        np.testing.assert_array_equal(mask[1], [False, False, False, False])

    def test_masked_fill(self):
        x = Tensor(np.zeros((2, 2)))
        mask = np.array([[True, False], [False, True]])
        out = F.masked_fill(x, mask, value=-7.0)
        np.testing.assert_allclose(out.data, [[-7.0, 0.0], [0.0, -7.0]])


class TestNormalizationHelpers:
    def test_l2_normalize_unit_norm(self):
        x = Tensor(np.random.default_rng(0).standard_normal((6, 5)) * 4)
        out = F.l2_normalize(x).data
        np.testing.assert_allclose(np.linalg.norm(out, axis=-1), np.ones(6), atol=1e-8)

def _composed_op_cases():
    """``op -> (forward(*tensors), numpy(*arrays), input arrays)``.

    The ops built from :class:`Tensor` primitives; the fused kernels are
    checked in ``test_nn_dtype.py::TestFusedKernels``.
    """
    rng = np.random.default_rng(11)
    x = rng.standard_normal((4, 5))
    rows = (np.array([0, 2, 3]), np.array([4, 1, 1]))

    def scattered(a):
        full = np.zeros((4, 5, 2))
        full[rows] = a
        return full

    return {
        "l2_normalize": (
            lambda t: F.l2_normalize(t, axis=0),
            lambda a: a / np.sqrt((a * a).sum(axis=0, keepdims=True) + 1e-12),
            (x,)),
        "gather_rows": (lambda t: F.gather_rows(t, rows),
                        lambda a: a[rows], (x,)),
        "scatter_rows": (
            lambda t: F.scatter_rows(t, rows, (4, 5, 2)), scattered,
            (rng.standard_normal((3, 2)),)),
    }


COMPOSED_OPS = _composed_op_cases()


class TestComposedOps:
    @pytest.mark.parametrize("op", sorted(COMPOSED_OPS))
    def test_gradient_matches_central_differences(self, op):
        forward, _, arrays = COMPOSED_OPS[op]
        value = forward(*[Tensor(a) for a in arrays]).data
        readout = Tensor(np.random.default_rng(12).standard_normal(value.shape))
        check_gradient(lambda *ts: (forward(*ts) * readout).sum(), *arrays,
                       atol=1e-7, rtol=1e-6)

    @pytest.mark.parametrize("op", sorted(COMPOSED_OPS))
    def test_forward_matches_numpy(self, op):
        forward, expected, arrays = COMPOSED_OPS[op]
        np.testing.assert_allclose(forward(*[Tensor(a) for a in arrays]).data,
                                   expected(*arrays), rtol=1e-12, atol=1e-15)

    def test_catalogue_scores_is_one_cast_gemm(self):
        rng = np.random.default_rng(13)
        users, items = rng.standard_normal((3, 4)), rng.standard_normal((6, 4))
        np.testing.assert_array_equal(
            F.catalogue_scores(Tensor(users), items),
            users.astype(np.float32) @ items.astype(np.float32).T)
        np.testing.assert_array_equal(
            F.catalogue_scores(users, Tensor(items), dtype=None),
            users @ items.T)


@settings(max_examples=20, deadline=None)
@given(
    batch=st.integers(min_value=1, max_value=6),
    classes=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_cross_entropy_nonnegative(batch, classes, seed):
    rng = np.random.default_rng(seed)
    logits = Tensor(rng.standard_normal((batch, classes)))
    targets = rng.integers(0, classes, size=batch)
    assert F.cross_entropy(logits, targets).item() >= 0.0


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=2, max_value=8),
    seed=st.integers(min_value=0, max_value=500),
)
def test_property_softmax_is_distribution(rows, cols, seed):
    rng = np.random.default_rng(seed)
    probs = F.softmax(Tensor(rng.standard_normal((rows, cols)) * 5)).data
    assert (probs >= 0).all()
    np.testing.assert_allclose(probs.sum(axis=-1), np.ones(rows), atol=1e-9)
