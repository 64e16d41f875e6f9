"""Tests for the autograd engine (repro.nn.tensor).

Analytic gradients of every differentiable op are checked against central
finite differences, including broadcasting and batched matmul cases.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.tensor import Tensor, concatenate, stack, where

from gradcheck import check_gradient


class TestBasicProperties:
    def test_tensor_wraps_numpy(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.ndim == 2
        assert t.size == 4
        assert t.dtype == np.float64

    def test_item_and_len(self):
        assert Tensor([3.5]).item() == pytest.approx(3.5)
        assert len(Tensor(np.zeros((5, 2)))) == 5

    def test_detach_stops_gradients(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        detached = t.detach()
        assert not detached.requires_grad

    def test_backward_requires_scalar_without_seed(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(ValueError):
            (t * 2.0).backward()

    def test_zero_grad(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        (t.sum()).backward()
        assert t.grad is not None
        t.zero_grad()
        assert t.grad is None

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(4).data.sum() == pytest.approx(4.0)
        r = Tensor.randn(3, 3, rng=np.random.default_rng(0))
        assert r.shape == (3, 3)


class TestArithmeticGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_add(self):
        x = self.rng.standard_normal((3, 4))
        check_gradient(lambda t: (t + 2.0).sum(), x)

    def test_sub_and_rsub(self):
        x = self.rng.standard_normal((3, 4))
        check_gradient(lambda t: (5.0 - t).sum(), x)
        check_gradient(lambda t: (t - 1.5).sum(), x)

    def test_mul(self):
        x = self.rng.standard_normal((3, 4))
        other = self.rng.standard_normal((3, 4))
        check_gradient(lambda t: (t * Tensor(other)).sum(), x)

    def test_div(self):
        x = self.rng.standard_normal((3, 4)) + 3.0
        check_gradient(lambda t: (1.0 / t).sum(), x)
        check_gradient(lambda t: (t / 2.5).sum(), x)

    def test_pow(self):
        x = np.abs(self.rng.standard_normal((3, 4))) + 0.5
        check_gradient(lambda t: (t ** 3).sum(), x)

    def test_neg(self):
        x = self.rng.standard_normal((2, 5))
        check_gradient(lambda t: (-t).sum(), x)

    def test_broadcast_add_bias(self):
        x = self.rng.standard_normal((4,))
        base = Tensor(self.rng.standard_normal((3, 4)))
        check_gradient(lambda t: (base + t).sum(), x)

    def test_broadcast_mul_row(self):
        x = self.rng.standard_normal((1, 4))
        base = Tensor(self.rng.standard_normal((3, 4)))
        check_gradient(lambda t: (base * t).sum(), x)

    def test_broadcast_operands_both_require_grad(self):
        """Both sides of each binary op, broadcast, and a reused operand."""
        x = self.rng.standard_normal((3, 4))
        row = self.rng.standard_normal((4,))
        column = self.rng.standard_normal((3, 1)) + 3.0
        readout = Tensor(self.rng.standard_normal((3, 4)))
        check_gradient(lambda a, b: ((a + b) * readout).sum(), x, row)
        check_gradient(lambda a, b: ((b - a) * readout).sum(), x, row)
        check_gradient(lambda a, b: (a * b * readout).sum(), x, column)
        check_gradient(lambda a, b: (a / b * readout).sum(), x, column)
        check_gradient(lambda a, b: ((a + b) * (a - b) * a * readout).sum(),
                       x, row)

    def test_pow_requires_scalar_exponent(self):
        t = Tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(TypeError):
            t ** Tensor([2.0])


class TestMatmulGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(1)

    def test_matrix_matrix(self):
        a = self.rng.standard_normal((3, 4))
        b = self.rng.standard_normal((4, 5))
        check_gradient(lambda t: t.matmul(Tensor(b)).sum(), a)
        check_gradient(lambda t: Tensor(a).matmul(t).sum(), b)
        readout = Tensor(self.rng.standard_normal((3, 5)))
        check_gradient(lambda s, t: (s.matmul(t) * readout).sum(), a, b)

    def test_batched_matmul(self):
        a = self.rng.standard_normal((2, 3, 4))
        b = self.rng.standard_normal((2, 4, 5))
        check_gradient(lambda t: t.matmul(Tensor(b)).sum(), a)
        check_gradient(lambda t: Tensor(a).matmul(t).sum(), b)

    def test_broadcast_batched_matmul(self):
        a = self.rng.standard_normal((2, 3, 4))
        b = self.rng.standard_normal((4, 5))
        check_gradient(lambda t: Tensor(a).matmul(t).sum(), b)

    def test_vector_inner_product(self):
        a = self.rng.standard_normal(6)
        b = self.rng.standard_normal(6)
        check_gradient(lambda t: t.matmul(Tensor(b)), a)
        check_gradient(lambda s, t: s.matmul(t) * 1.5, a, b)

    @pytest.mark.parametrize("a_shape,b_shape", [
        ((4,), (4, 3)), ((4,), (2, 4, 3)), ((3, 4), (4,)), ((2, 3, 4), (4,)),
    ])
    def test_vector_operand_paths(self, a_shape, b_shape):
        a = self.rng.standard_normal(a_shape)
        b = self.rng.standard_normal(b_shape)
        value = Tensor(a).matmul(Tensor(b)).data
        np.testing.assert_array_equal(value, np.matmul(a, b))
        readout = Tensor(self.rng.standard_normal(value.shape))
        check_gradient(lambda s, t: (s.matmul(t) * readout).sum(), a, b,
                       atol=1e-7, rtol=1e-6)

    def test_matmul_value(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        np.testing.assert_allclose(Tensor(a).matmul(Tensor(b)).data, a @ b)


class TestElementwiseGradients:
    def setup_method(self):
        self.rng = np.random.default_rng(2)

    def test_exp(self):
        check_gradient(lambda t: t.exp().sum(), self.rng.standard_normal((3, 3)))

    def test_log(self):
        check_gradient(lambda t: t.log().sum(),
                       np.abs(self.rng.standard_normal((3, 3))) + 0.5)

    def test_sqrt(self):
        check_gradient(lambda t: t.sqrt().sum(),
                       np.abs(self.rng.standard_normal((3, 3))) + 0.5)

    def test_tanh(self):
        check_gradient(lambda t: t.tanh().sum(), self.rng.standard_normal((3, 3)))

    def test_sigmoid(self):
        check_gradient(lambda t: t.sigmoid().sum(), self.rng.standard_normal((3, 3)))

    def test_relu(self):
        x = self.rng.standard_normal((4, 4)) + 0.3  # keep away from the kink
        x[np.abs(x) < 1e-3] = 0.5
        check_gradient(lambda t: t.relu().sum(), x)

    def test_gelu(self):
        check_gradient(lambda t: t.gelu().sum(), self.rng.standard_normal((3, 3)))
        readout = Tensor(self.rng.standard_normal((3, 3)))
        check_gradient(lambda t: (t.gelu() * readout).sum(),
                       self.rng.standard_normal((3, 3)) * 2.0,
                       atol=1e-7, rtol=1e-6)

    def test_relu_zeroes_negatives(self):
        out = Tensor([-1.0, 0.0, 2.0]).relu()
        np.testing.assert_allclose(out.data, [0.0, 0.0, 2.0])


class TestReductionsAndShapes:
    def setup_method(self):
        self.rng = np.random.default_rng(3)

    def test_sum_all(self):
        check_gradient(lambda t: t.sum(), self.rng.standard_normal((3, 4)))

    def test_sum_axis(self):
        check_gradient(lambda t: (t.sum(axis=0) ** 2).sum(),
                       self.rng.standard_normal((3, 4)))

    def test_sum_keepdims(self):
        check_gradient(lambda t: (t.sum(axis=1, keepdims=True) ** 2).sum(),
                       self.rng.standard_normal((3, 4)))

    def test_mean(self):
        check_gradient(lambda t: (t.mean(axis=-1) ** 2).sum(),
                       self.rng.standard_normal((3, 4)))

    def test_max_reduction_value(self):
        t = Tensor([[1.0, 5.0], [7.0, 2.0]])
        np.testing.assert_allclose(t.max(axis=1).data, [5.0, 7.0])

    def test_reshape(self):
        check_gradient(lambda t: (t.reshape(2, 6) ** 2).sum(),
                       self.rng.standard_normal((3, 4)))

    def test_transpose(self):
        base = Tensor(self.rng.standard_normal((4, 3)))
        check_gradient(lambda t: (t.transpose(1, 0) * base).sum(),
                       self.rng.standard_normal((3, 4)))

    def test_transpose_default_reverses(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.T.shape == (4, 3, 2)

    def test_swapaxes(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.swapaxes(0, 1).shape == (3, 2, 4)

    def test_getitem_slice(self):
        check_gradient(lambda t: (t[1:, :2] ** 2).sum(),
                       self.rng.standard_normal((4, 4)))

    def test_getitem_advanced_index_with_duplicates(self):
        """Integer-array indices may pick an entry twice: scatter-add."""
        values = self.rng.standard_normal((4, 3))
        rows, cols = np.array([0, 2, 2, 3, 0]), np.array([1, 1, 1, 0, 2])
        np.testing.assert_array_equal(Tensor(values)[rows, cols].data,
                                      values[rows, cols])
        readout = Tensor(self.rng.standard_normal(5))
        check_gradient(lambda t: (t[rows, cols] * readout).sum(), values,
                       atol=1e-7, rtol=1e-6)
        check_gradient(lambda t: (t[rows] * t[rows]).sum(), values,
                       atol=1e-7, rtol=1e-6)

    def test_take_rows_gradient_accumulates_duplicates(self):
        table = Tensor(self.rng.standard_normal((5, 3)), requires_grad=True)
        indices = np.array([[0, 1], [1, 1]])
        out = table.take_rows(indices)
        assert out.shape == (2, 2, 3)
        out.sum().backward()
        # Row 1 is used three times, row 0 once, others never.
        np.testing.assert_allclose(table.grad[0], np.ones(3))
        np.testing.assert_allclose(table.grad[1], 3 * np.ones(3))
        np.testing.assert_allclose(table.grad[2], np.zeros(3))
        np.testing.assert_array_equal(out.data, table.data[indices])
        readout = Tensor(self.rng.standard_normal((2, 2, 3)))
        check_gradient(lambda t: (t.take_rows(indices) * readout).sum(),
                       table.data, atol=1e-7, rtol=1e-6)


class TestCombinators:
    def setup_method(self):
        self.rng = np.random.default_rng(4)

    def test_concatenate_values_and_grads(self):
        a = Tensor(self.rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(self.rng.standard_normal((2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        out.sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 3)))
        np.testing.assert_allclose(b.grad, np.ones((2, 2)))

    def test_stack(self):
        a = Tensor(self.rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(self.rng.standard_normal((2, 3)), requires_grad=True)
        out = stack([a, b], axis=0)
        assert out.shape == (2, 2, 3)
        (out * out).sum().backward()
        np.testing.assert_allclose(a.grad, 2 * a.data)
        np.testing.assert_allclose(b.grad, 2 * b.data)

    def test_where(self):
        condition = np.array([[True, False], [False, True]])
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.full((2, 2), 5.0), requires_grad=True)
        out = where(condition, a, b)
        np.testing.assert_allclose(out.data, [[1.0, 5.0], [5.0, 1.0]])
        out.sum().backward()
        np.testing.assert_allclose(a.grad, condition.astype(float))
        np.testing.assert_allclose(b.grad, (~condition).astype(float))


class TestGraphBehaviour:
    def test_gradient_accumulates_across_reuse(self):
        x = Tensor([2.0], requires_grad=True)
        y = x * 3.0 + x * 4.0
        y.backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor([1.5], requires_grad=True)
        a = x * 2.0
        b = x * 3.0
        out = (a * b).sum()
        out.backward()
        # d/dx (2x * 3x) = 12x
        np.testing.assert_allclose(x.grad, [12 * 1.5])

    def test_no_grad_tracking_for_plain_tensors(self):
        x = Tensor([1.0, 2.0])
        y = x * 2.0
        assert y._backward is None
        assert not y.requires_grad

    def test_deep_chain_backward(self):
        x = Tensor([0.5], requires_grad=True)
        y = x
        for _ in range(50):
            y = y * 1.01
        y.backward()
        np.testing.assert_allclose(x.grad, [1.01 ** 50], rtol=1e-10)


class TestGraphLifetime:
    """backward() releases the graph it consumes; leaves keep their grads."""

    @staticmethod
    def _graph():
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        w = Tensor([0.5, 0.25, 2.0], requires_grad=True)
        h = x * w  # shared by both branches
        branches = [h.tanh(), h * h]
        loss = (branches[0] + branches[1]).sum()
        return x, w, h, branches, loss

    def test_backward_releases_every_non_leaf(self):
        x, w, h, branches, loss = self._graph()
        loss.backward()
        for node in (h, *branches, loss):
            assert node.grad is None
            assert node._prev == ()
        dh = 1.0 - np.tanh(x.data * w.data) ** 2 + 2.0 * x.data * w.data
        np.testing.assert_allclose(x.grad, dh * w.data)
        np.testing.assert_allclose(w.grad, dh * x.data)

    def test_second_backward_raises(self):
        x, _, _, _, loss = self._graph()
        loss.backward()
        grad = x.grad.copy()
        with pytest.raises(RuntimeError, match="released"):
            loss.backward()
        np.testing.assert_array_equal(x.grad, grad)

    def test_new_graph_on_a_released_node_raises(self):
        _, _, h, _, loss = self._graph()
        loss.backward()
        with pytest.raises(RuntimeError, match="released"):
            (h * 3.0).sum().backward()

    def test_separate_graphs_sum_into_a_leaf(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, 3.0 + 2.0 * x.data)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=5),
    cols=st.integers(min_value=1, max_value=5),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_sum_of_product_gradient(rows, cols, seed):
    """d/dA sum(A*B) == B for any shapes (property-based)."""
    rng = np.random.default_rng(seed)
    a_values = rng.standard_normal((rows, cols))
    b_values = rng.standard_normal((rows, cols))
    a = Tensor(a_values, requires_grad=True)
    (a * Tensor(b_values)).sum().backward()
    np.testing.assert_allclose(a.grad, b_values, atol=1e-10)


@settings(max_examples=25, deadline=None)
@given(
    rows=st.integers(min_value=2, max_value=6),
    inner=st.integers(min_value=2, max_value=6),
    cols=st.integers(min_value=2, max_value=6),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_matmul_gradient_shapes(rows, inner, cols, seed):
    """Gradients of matmul always match operand shapes."""
    rng = np.random.default_rng(seed)
    a = Tensor(rng.standard_normal((rows, inner)), requires_grad=True)
    b = Tensor(rng.standard_normal((inner, cols)), requires_grad=True)
    a.matmul(b).sum().backward()
    assert a.grad.shape == a.shape
    assert b.grad.shape == b.shape
