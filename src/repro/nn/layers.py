"""Standard neural-network layers used by the recommendation models.

Linear, Embedding, LayerNorm, Dropout, activation layers, Sequential and the
small MLP projection heads the paper uses in its item encoder (``MLP-1``,
``MLP-2``, ``MLP-3`` and a pure ``Linear`` head in Table V).
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence

import numpy as np

from . import functional as F
from . import init
from .module import Module, Parameter
from .tensor import Tensor, get_default_dtype


class Linear(Module):
    """Affine transformation ``y = x W + b``.

    Weights are stored as ``(in_features, out_features)`` so the forward pass
    is a plain right-multiplication, which keeps batched inputs of any rank
    working without reshaping.
    """

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(
            init.xavier_uniform((in_features, out_features), rng), name="linear.weight"
        )
        self.bias = Parameter(np.zeros(out_features), name="linear.bias") if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class Embedding(Module):
    """Lookup table mapping integer ids to dense vectors."""

    def __init__(self, num_embeddings: int, embedding_dim: int,
                 padding_idx: Optional[int] = None,
                 rng: Optional[np.random.Generator] = None,
                 init_std: float = 0.02):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        weight = init.truncated_normal((num_embeddings, embedding_dim), rng, std=init_std)
        if padding_idx is not None:
            weight[padding_idx] = 0.0
        self.weight = Parameter(weight, name="embedding.weight")

    def forward(self, indices: np.ndarray) -> Tensor:
        return self.weight.take_rows(np.asarray(indices, dtype=np.int64))

    def all_embeddings(self, rows: Optional[slice] = None) -> Tensor:
        """The full table as a tensor (rows are items), or its block
        ``rows``; the whole table is the parameter itself, so the training
        graph is unchanged."""
        return self.weight if rows is None else self.weight[rows]


class FrozenEmbedding(Module):
    """A non-trainable lookup table for frozen pre-trained features.

    The paper's SASRec_T keeps the pre-trained text embedding matrix fixed and
    only trains the projection head; this class models that behaviour.
    """

    def __init__(self, table: np.ndarray, padding_idx: Optional[int] = None):
        super().__init__()
        # One private copy, in the substrate's default dtype at construction
        # time: a caller mutating its array later changes nothing here, and
        # models built under autocast("float32") store single-precision
        # features (whitening statistics upstream stay float64).
        self._hold(np.array(table, dtype=get_default_dtype()), padding_idx)

    @classmethod
    def adopt(cls, table: np.ndarray,
              padding_idx: Optional[int] = None) -> "FrozenEmbedding":
        """A frozen embedding over ``table`` itself instead of a copy.

        For a table built for this module alone (the whitened tables of
        :mod:`repro.models.whitenrec`, GRCN's refined features), which no
        caller keeps: it is only converted when it is not in the default
        dtype, and its padding row is zeroed in place.
        """
        module = cls.__new__(cls)
        Module.__init__(module)
        module._hold(np.asarray(table, dtype=get_default_dtype()), padding_idx)
        return module

    def _hold(self, table: np.ndarray, padding_idx: Optional[int]) -> None:
        if padding_idx is not None:
            table[padding_idx] = 0.0
        self._table = Tensor(table, requires_grad=False, dtype=table.dtype)
        self.num_embeddings, self.embedding_dim = table.shape
        self.padding_idx = padding_idx

    def forward(self, indices: np.ndarray) -> Tensor:
        return self._table.take_rows(np.asarray(indices, dtype=np.int64))

    def all_embeddings(self, rows: Optional[slice] = None) -> Tensor:
        """The whole table, or its block ``rows``."""
        return self._table if rows is None else self._table[rows]


class LayerNorm(Module):
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-12):
        super().__init__()
        self.dim = dim
        self.eps = eps
        self.weight = Parameter(np.ones(dim), name="layernorm.weight")
        self.bias = Parameter(np.zeros(dim), name="layernorm.bias")

    def forward(self, x: Tensor) -> Tensor:
        return F.layer_norm(x, self.weight, self.bias, eps=self.eps)


class Dropout(Module):
    """Inverted dropout layer."""

    def __init__(self, p: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self._rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, training=self.training, rng=self._rng)

    def forward_last(self, x: Tensor, seq_len: int) -> Tensor:
        """:func:`repro.nn.functional.dropout_last` with this layer's state."""
        return F.dropout_last(x, self.p, training=self.training,
                              rng=self._rng, seq_len=seq_len)

    def forward_rows(self, x: Tensor, layout) -> Tensor:
        """:func:`repro.nn.functional.dropout_rows` of the packed rows ``x``
        of a :class:`repro.nn.attention.PackedRows` ``layout``."""
        shape = (layout.batch, layout.seq_len, x.shape[-1])
        return F.dropout_rows(x, self.p, training=self.training, rng=self._rng,
                              shape=shape, index=layout.rows)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class GELU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.gelu()


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x


class Sequential(Module):
    """Run sub-modules in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class MLPProjectionHead(Module):
    """The projection head used as the item encoder ``f_theta1``.

    The paper's default is an MLP with two hidden layers and ReLU activations
    appended to both hidden layers (Sec. III-B); Table V also evaluates
    Linear, MLP-1 and MLP-3 variants which this class covers through
    ``num_hidden_layers``.
    """

    def __init__(self, in_dim: int, out_dim: int, num_hidden_layers: int = 2,
                 hidden_dim: Optional[int] = None, dropout: float = 0.0,
                 activation: str = "relu",
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        hidden_dim = hidden_dim or out_dim
        self.num_hidden_layers = num_hidden_layers

        activation_layer: Callable[[], Module]
        if activation == "relu":
            activation_layer = ReLU
        elif activation == "gelu":
            activation_layer = GELU
        elif activation == "tanh":
            activation_layer = Tanh
        else:
            raise ValueError(f"unknown activation: {activation!r}")

        layers: List[Module] = []
        if num_hidden_layers <= 0:
            # Pure linear head ("Linear" row of Table V).
            layers.append(Linear(in_dim, out_dim, rng=rng))
        else:
            current = in_dim
            for _ in range(num_hidden_layers):
                layers.append(Linear(current, hidden_dim, rng=rng))
                layers.append(activation_layer())
                if dropout > 0:
                    layers.append(Dropout(dropout, rng=rng))
                current = hidden_dim
            layers.append(Linear(current, out_dim, rng=rng))
        self.net = Sequential(*layers)

    def forward(self, x: Tensor) -> Tensor:
        return self.net(x)


class MoEProjectionHead(Module):
    """Mixture-of-Experts adaptor head (UniSRec-style).

    A small set of expert linear projections whose outputs are combined by a
    softmax gate computed from the input features.  Used both by the UniSRec
    baseline and the "MoE" row of Table V.
    """

    def __init__(self, in_dim: int, out_dim: int, num_experts: int = 4,
                 dropout: float = 0.0, rng: Optional[np.random.Generator] = None):
        super().__init__()
        rng = rng or np.random.default_rng()
        self.num_experts = num_experts
        self.experts = [Linear(in_dim, out_dim, rng=rng) for _ in range(num_experts)]
        self.gate = Linear(in_dim, num_experts, rng=rng)
        self.dropout = Dropout(dropout, rng=rng)

    def forward(self, x: Tensor) -> Tensor:
        gate_logits = self.gate(x)
        gate_weights = F.softmax(gate_logits, axis=-1)
        output: Optional[Tensor] = None
        for expert_index, expert in enumerate(self.experts):
            expert_out = expert(x)
            weight = gate_weights[..., expert_index: expert_index + 1]
            contribution = expert_out * weight
            output = contribution if output is None else output + contribution
        return self.dropout(output)
