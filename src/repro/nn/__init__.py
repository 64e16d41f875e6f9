"""Minimal neural-network substrate (autograd + layers) replacing PyTorch.

The public surface mirrors the small subset of ``torch`` / ``torch.nn`` that
the paper's models require.
"""

from . import functional
from . import init
from .attention import (
    MultiHeadSelfAttention,
    PackedRows,
    PositionwiseFeedForward,
    TransformerBlock,
    TransformerEncoder,
)
from .layers import (
    Dropout,
    Embedding,
    FrozenEmbedding,
    GELU,
    Identity,
    LayerNorm,
    Linear,
    MLPProjectionHead,
    MoEProjectionHead,
    ReLU,
    Sequential,
    Tanh,
)
from .module import Module, Parameter, export_array
from .optim import Adam, Optimizer, clip_grad_norm
from .tensor import (
    Tensor,
    autocast,
    concatenate,
    get_default_dtype,
    is_grad_enabled,
    no_grad,
    set_default_dtype,
    stack,
    where,
)

__all__ = [
    "Adam",
    "autocast",
    "get_default_dtype",
    "set_default_dtype",
    "Dropout",
    "Embedding",
    "FrozenEmbedding",
    "GELU",
    "Identity",
    "LayerNorm",
    "Linear",
    "MLPProjectionHead",
    "MoEProjectionHead",
    "Module",
    "MultiHeadSelfAttention",
    "Optimizer",
    "PackedRows",
    "Parameter",
    "PositionwiseFeedForward",
    "ReLU",
    "Sequential",
    "Tanh",
    "Tensor",
    "TransformerBlock",
    "TransformerEncoder",
    "clip_grad_norm",
    "concatenate",
    "export_array",
    "functional",
    "init",
    "is_grad_enabled",
    "no_grad",
    "stack",
    "where",
]
