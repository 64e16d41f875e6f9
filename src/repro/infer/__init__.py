"""Graph-free compiled inference engine.

Training needs the autodiff substrate; serving does not.  This package
compiles a trained :class:`~repro.models.base.NextItemRecommender` into a
pure-numpy forward plan — weights snapshotted as contiguous arrays,
intermediates written into a preallocated shape-bucketed buffer arena — and
wraps it in an :class:`InferenceEngine`.

The compiled plan is **bit-identical** (ids and scores) to the
``nn.no_grad`` graph path at equal dtype for every registered model family;
``repro.serving.Recommender`` routes warm-request encoding through it, and
falls back to the graph path only for model classes no plan matches
(:class:`UnsupportedModelError`).
"""

from .arena import BufferArena
from .engine import InferenceEngine
from .plans import (
    FDSAPlan,
    GRUPlan,
    InferencePlan,
    MeanPoolPlan,
    TransformerPlan,
    UnsupportedModelError,
    compile_plan,
)

__all__ = [
    "BufferArena",
    "FDSAPlan",
    "GRUPlan",
    "InferenceEngine",
    "InferencePlan",
    "MeanPoolPlan",
    "TransformerPlan",
    "UnsupportedModelError",
    "compile_plan",
]
