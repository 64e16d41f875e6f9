"""Tests for repro.nn layers, modules, attention and optimisers."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import functional as F
from repro.nn.tensor import Tensor

from gradcheck import numerical_gradient


RNG = np.random.default_rng(0)


class TestLinear:
    def test_shapes_and_values(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(1))
        x = Tensor(RNG.standard_normal((5, 4)))
        out = layer(x)
        assert out.shape == (5, 3)
        expected = x.data @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(out.data, expected)

    def test_batched_input(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(1))
        out = layer(Tensor(RNG.standard_normal((2, 6, 4))))
        assert out.shape == (2, 6, 3)

    def test_no_bias(self):
        layer = nn.Linear(4, 3, bias=False, rng=np.random.default_rng(1))
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_gradients_flow(self):
        layer = nn.Linear(4, 2, rng=np.random.default_rng(2))
        out = layer(Tensor(RNG.standard_normal((3, 4)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        assert layer.bias.grad is not None


class TestEmbedding:
    def test_lookup_shape(self):
        emb = nn.Embedding(10, 6, rng=np.random.default_rng(0))
        out = emb(np.array([[1, 2], [3, 4]]))
        assert out.shape == (2, 2, 6)

    def test_padding_idx_is_zero(self):
        emb = nn.Embedding(10, 6, padding_idx=0, rng=np.random.default_rng(0))
        np.testing.assert_allclose(emb.weight.data[0], np.zeros(6))

    def test_gradient_accumulation(self):
        emb = nn.Embedding(5, 3, rng=np.random.default_rng(0))
        out = emb(np.array([1, 1, 2]))
        out.sum().backward()
        np.testing.assert_allclose(emb.weight.grad[1], 2 * np.ones(3))
        np.testing.assert_allclose(emb.weight.grad[3], np.zeros(3))

    def test_frozen_embedding_has_no_parameters(self):
        table = RNG.standard_normal((7, 4))
        frozen = nn.FrozenEmbedding(table, padding_idx=0)
        assert frozen.parameters() == []
        np.testing.assert_allclose(frozen.all_embeddings().data[0], np.zeros(4))
        np.testing.assert_allclose(frozen.all_embeddings().data[1:], table[1:])


class TestNormalizationAndActivation:
    def test_layernorm_module(self):
        layer = nn.LayerNorm(8)
        out = layer(Tensor(RNG.standard_normal((3, 8)) * 5 + 1)).data
        np.testing.assert_allclose(out.mean(axis=-1), np.zeros(3), atol=1e-8)

    def test_dropout_module_respects_training_flag(self):
        layer = nn.Dropout(0.5, rng=np.random.default_rng(0))
        layer.eval()
        x = Tensor(np.ones((4, 4)))
        np.testing.assert_allclose(layer(x).data, x.data)
        layer.train()
        assert (layer(x).data == 0).any()

    def test_activation_modules(self):
        x = Tensor(np.array([-1.0, 0.5]))
        assert nn.ReLU()(x).data[0] == 0.0
        assert nn.Tanh()(x).data[1] == pytest.approx(np.tanh(0.5))
        assert np.isfinite(nn.GELU()(x).data).all()

    def test_sequential(self):
        model = nn.Sequential(nn.Linear(4, 8, rng=np.random.default_rng(0)),
                              nn.ReLU(),
                              nn.Linear(8, 2, rng=np.random.default_rng(1)))
        out = model(Tensor(RNG.standard_normal((3, 4))))
        assert out.shape == (3, 2)
        assert len(model) == 3
        assert len(list(iter(model))) == 3


class TestProjectionHeads:
    def test_mlp_head_depths(self):
        for depth, expected_linears in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            head = nn.MLPProjectionHead(6, 4, num_hidden_layers=depth,
                                        rng=np.random.default_rng(0))
            linear_count = sum(isinstance(m, nn.Linear) for m in head.net)
            assert linear_count == expected_linears
            assert head(Tensor(RNG.standard_normal((5, 6)))).shape == (5, 4)

    def test_mlp_head_activations(self):
        for activation in ("relu", "gelu", "tanh"):
            head = nn.MLPProjectionHead(6, 4, activation=activation,
                                        rng=np.random.default_rng(0))
            assert head(Tensor(RNG.standard_normal((2, 6)))).shape == (2, 4)
        with pytest.raises(ValueError):
            nn.MLPProjectionHead(6, 4, activation="swish")

    def test_moe_head(self):
        head = nn.MoEProjectionHead(6, 4, num_experts=3, rng=np.random.default_rng(0))
        out = head(Tensor(RNG.standard_normal((5, 6))))
        assert out.shape == (5, 4)
        # Parameters: 3 experts + gate (each with weight+bias).
        assert len(head.parameters()) == 8


class TestModuleInfrastructure:
    def test_named_parameters_recursive(self):
        model = nn.Sequential(nn.Linear(3, 3, rng=np.random.default_rng(0)), nn.ReLU())
        names = [name for name, _ in model.named_parameters()]
        assert any("weight" in name for name in names)
        assert len(names) == 2

    def test_num_parameters(self):
        layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
        assert layer.num_parameters() == 4 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Dropout(0.2))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_state_dict_roundtrip(self):
        model = nn.Linear(4, 4, rng=np.random.default_rng(0))
        state = model.state_dict()
        model.weight.data += 1.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model.weight.data, state["weight"])

    def test_load_state_dict_validates_keys(self):
        model = nn.Linear(4, 4, rng=np.random.default_rng(0))
        with pytest.raises(KeyError):
            model.load_state_dict({"missing": np.zeros(1)})

    def test_load_state_dict_validates_shapes(self):
        model = nn.Linear(4, 4, rng=np.random.default_rng(0))
        state = model.state_dict()
        state["weight"] = np.zeros((2, 2))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_zero_grad(self):
        model = nn.Linear(3, 1, rng=np.random.default_rng(0))
        model(Tensor(RNG.standard_normal((2, 3)))).sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None


class TestAttention:
    def test_output_shape(self):
        attention = nn.MultiHeadSelfAttention(8, 2, rng=np.random.default_rng(0))
        out = attention(Tensor(RNG.standard_normal((3, 5, 8))))
        assert out.shape == (3, 5, 8)

    def test_head_divisibility_enforced(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(7, 2)

    def test_causal_mask_blocks_future(self):
        """Changing a future item must not change earlier outputs under causal masking."""
        encoder = nn.TransformerEncoder(1, 8, 2, dropout=0.0, causal=True,
                                        rng=np.random.default_rng(0))
        encoder.eval()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 8))
        modified = x.copy()
        modified[0, 3] += 10.0  # perturb only the last position
        out_a = encoder(Tensor(x)).data
        out_b = encoder(Tensor(modified)).data
        np.testing.assert_allclose(out_a[0, :3], out_b[0, :3], atol=1e-10)
        assert not np.allclose(out_a[0, 3], out_b[0, 3])

    def test_bidirectional_encoder_sees_future(self):
        encoder = nn.TransformerEncoder(1, 8, 2, dropout=0.0, causal=False,
                                        rng=np.random.default_rng(0))
        encoder.eval()
        rng = np.random.default_rng(1)
        x = rng.standard_normal((1, 4, 8))
        modified = x.copy()
        modified[0, 3] += 10.0
        out_a = encoder(Tensor(x)).data
        out_b = encoder(Tensor(modified)).data
        assert not np.allclose(out_a[0, 0], out_b[0, 0])

    def test_padding_mask_blocks_padded_positions(self):
        """Changing padded positions must not affect the last position's output."""
        encoder = nn.TransformerEncoder(2, 8, 2, dropout=0.0, causal=True,
                                        rng=np.random.default_rng(0))
        encoder.eval()
        rng = np.random.default_rng(2)
        x = rng.standard_normal((1, 5, 8))
        lengths = np.array([3])  # first two positions are padding
        modified = x.copy()
        modified[0, 0] += 5.0
        out_a = encoder(Tensor(x), lengths=lengths).data
        out_b = encoder(Tensor(modified), lengths=lengths).data
        np.testing.assert_allclose(out_a[0, 4], out_b[0, 4], atol=1e-10)

    def test_gradients_reach_all_parameters(self):
        encoder = nn.TransformerEncoder(2, 8, 2, dropout=0.0, rng=np.random.default_rng(0))
        out = encoder(Tensor(RNG.standard_normal((2, 4, 8)))).sum()
        out.backward()
        grads = [p.grad for p in encoder.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).sum() > 0 for g in grads)


def _scaled_close(result, reference, tolerance, scale=None):
    """``|result - reference| <= tolerance * scale`` everywhere; the scale
    defaults to the largest reference entry."""
    if scale is None:
        scale = float(np.abs(reference).max())
    assert float(np.abs(result - reference).max()) <= tolerance * scale


def _encoder_pair(dtype, num_layers, causal, dropout, seed=3, hidden=8):
    """Two identically seeded encoders (same weights, same generator)."""
    with nn.autocast(dtype):
        return [nn.TransformerEncoder(num_layers, hidden, 2, dropout=dropout,
                                      causal=causal,
                                      rng=np.random.default_rng(seed))
                for _ in range(2)]


class TestPackedRows:
    """The layout of the rows ``forward_last`` computes."""

    def test_rows_are_the_positions_that_hold_an_item(self):
        layout = nn.PackedRows(np.array([2, 3]), 2, 4)
        assert layout.num_rows == 5
        np.testing.assert_array_equal(layout.rows[0], [0, 0, 1, 1, 1])
        np.testing.assert_array_equal(layout.rows[1], [2, 3, 1, 2, 3])
        np.testing.assert_array_equal(layout.last, [1, 4])

    def test_length_zero_keeps_every_position_and_long_lengths_clip(self):
        layout = nn.PackedRows(np.array([0, 9, 1]), 3, 3)
        np.testing.assert_array_equal(layout.rows[0], [0, 0, 0, 1, 1, 1, 2])
        np.testing.assert_array_equal(layout.last, [2, 5, 6])

    def test_floor_tops_up_with_padding_positions(self):
        layout = nn.PackedRows(np.array([1]), 1, 6)
        assert layout.num_rows == F.MIN_SCORING_ROWS
        np.testing.assert_array_equal(layout.rows[1], [0, 1, 2, 5])
        np.testing.assert_array_equal(layout.last, [3])
        assert nn.PackedRows(np.array([1]), 1, 2).num_rows == 2

    def test_pad_inverts_pack_and_gradients_route_back(self):
        layout = nn.PackedRows(np.array([2, 3]), 2, 4)
        data = np.random.default_rng(4).standard_normal((2, 4, 3))
        x = Tensor(data, requires_grad=True)
        padded = layout.pad(layout.pack(x))
        kept = np.zeros((2, 4, 1))
        kept[layout.rows] = 1.0
        np.testing.assert_array_equal(padded.data, data * kept)
        padded.sum().backward()
        np.testing.assert_array_equal(x.grad, np.broadcast_to(kept, data.shape))


class TestLastPositionPruning:
    """``forward_last`` against its definition, ``forward(...)[:, -1]``."""

    #: relative to the largest reference entry; not zero, because the GEMM
    #: row counts differ between the two paths
    TOLERANCE = {"float32": 1e-6, "float64": 1e-12}

    @pytest.mark.parametrize("padded", [False, True])
    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("causal", [True, False])
    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_values_and_gradients_match_the_sliced_forward(
            self, dtype, causal, num_layers, padded):
        full, pruned = _encoder_pair(dtype, num_layers, causal, dropout=0.0)
        rng = np.random.default_rng(5)
        data = rng.standard_normal((4, 6, 8))
        readout = Tensor(rng.standard_normal((4, 8)), dtype=dtype)
        lengths = np.array([6, 2, 1, 4]) if padded else None
        layout = nn.PackedRows(lengths, 4, 6)
        assert layout.num_rows == (13 if padded else 24)

        x_full = Tensor(data, requires_grad=True, dtype=dtype)
        out_full = full(x_full, lengths)[:, -1]
        (out_full * readout).sum().backward()
        x_pruned = Tensor(data, requires_grad=True, dtype=dtype)
        out_pruned = pruned.forward_last(layout.pack(x_pruned), layout)
        (out_pruned * readout).sum().backward()

        tolerance = self.TOLERANCE[dtype]
        assert out_pruned.shape == (4, 8) and out_pruned.dtype == np.dtype(dtype)
        _scaled_close(out_pruned.data, out_full.data, tolerance)
        _scaled_close(x_pruned.grad, x_full.grad, tolerance)
        # One scale for all parameters: some gradients (the key bias, which
        # softmax cancels) are zero up to rounding of the others.
        reference = dict(full.named_parameters())
        scale = max(float(np.abs(param.grad).max()) for param in reference.values())
        for name, param in pruned.named_parameters():
            assert param.grad is not None, name
            _scaled_close(param.grad, reference[name].grad, tolerance, scale)

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_dropout_consumes_the_all_positions_stream(self, dtype):
        """Same generator state afterwards, and the same masks applied."""
        full, pruned = _encoder_pair(dtype, 2, True, dropout=0.2)
        data = np.random.default_rng(6).standard_normal((3, 5, 8))
        lengths = np.array([5, 3, 1])
        layout = nn.PackedRows(lengths, 3, 5)
        out_full = full(Tensor(data, dtype=dtype), lengths)[:, -1]
        out_pruned = pruned.forward_last(
            layout.pack(Tensor(data, dtype=dtype)), layout)
        generators = [encoder.blocks[-1].feed_forward.dropout._rng
                      for encoder in (full, pruned)]
        assert (generators[0].bit_generator.state
                == generators[1].bit_generator.state)
        assert (generators[0].bit_generator.state
                != np.random.default_rng(3).bit_generator.state)
        _scaled_close(out_pruned.data, out_full.data, self.TOLERANCE[dtype])

    def test_dropout_last_is_the_last_row_of_dropout(self):
        data = np.random.default_rng(7).standard_normal((3, 2, 5, 4))
        full = F.dropout(Tensor(data), 0.4, True, np.random.default_rng(8))
        last = F.dropout_last(Tensor(data[:, :, 4, :]), 0.4, True,
                              np.random.default_rng(8), seq_len=5)
        np.testing.assert_array_equal(last.data, full.data[:, :, 4, :])

    def test_final_block_gradients_match_central_differences(self):
        """SNIPPETS.md Snippet 2: analytic ``grad`` against finite differences."""
        block = nn.TransformerBlock(8, 2, dropout=0.0, rng=np.random.default_rng(9))
        rng = np.random.default_rng(10)
        data = rng.standard_normal((2, 4, 8))
        readout = rng.standard_normal((2, 8))
        lengths = np.array([4, 2])
        layout = nn.PackedRows(lengths, 2, 4)
        mask = F.causal_mask(4)[None, None, 3, :] | F.padding_mask(
            lengths, 4)[:, None, :]

        def objective(x):
            last = block.forward_last(layout.pack(x), layout, mask)
            return (last * Tensor(readout)).sum()

        x = Tensor(data, requires_grad=True)
        objective(x).backward()
        targets = [(x.grad, data)] + [(param.grad, param.data)
                                      for param in block.parameters()]
        for analytic, values in targets:
            # ``values`` is the input or a parameter's storage, perturbed in
            # place; the objective reads it from there.
            numeric = numerical_gradient(
                lambda _: objective(Tensor(data)).item(), values)
            np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-6)


class TestOptimizers:
    @staticmethod
    def _quadratic_problem():
        target = np.array([3.0, -2.0, 0.5])
        param = nn.Parameter(np.zeros(3))
        return target, param

    def test_adam_converges_on_quadratic(self):
        target, param = self._quadratic_problem()
        optimizer = nn.Adam([param], lr=0.1)
        for _ in range(300):
            optimizer.zero_grad()
            loss = ((param - Tensor(target)) ** 2).sum()
            loss.backward()
            optimizer.step()
        np.testing.assert_allclose(param.data, target, atol=1e-2)

    def test_weight_decay_shrinks_parameters(self):
        param = nn.Parameter(np.full(4, 10.0))
        optimizer = nn.Adam([param], lr=0.05, weight_decay=0.5)
        for _ in range(100):
            optimizer.zero_grad()
            (param * 0.0).sum().backward()  # zero task gradient
            optimizer.step()
        assert np.abs(param.data).max() < 10.0

    def test_optimizer_requires_parameters(self):
        with pytest.raises(ValueError):
            nn.Adam([])

    def test_clip_grad_norm(self):
        param = nn.Parameter(np.zeros(4))
        param.grad = np.full(4, 10.0)
        norm_before = float(np.linalg.norm(param.grad))
        returned = nn.clip_grad_norm([param], max_norm=1.0)
        assert returned == pytest.approx(norm_before)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_clip_grad_norm_no_grads(self):
        param = nn.Parameter(np.zeros(4))
        assert nn.clip_grad_norm([param], max_norm=1.0) == 0.0

    def test_step_skips_parameters_without_grad(self):
        param = nn.Parameter(np.ones(2))
        optimizer = nn.Adam([param], lr=0.1)
        optimizer.step()  # no grad -> no change, no crash
        np.testing.assert_allclose(param.data, np.ones(2))
