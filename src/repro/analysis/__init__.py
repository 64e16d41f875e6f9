"""Analysis utilities: anisotropy, alignment/uniformity, conditioning, t-SNE."""

from .alignment import alignment_and_uniformity, alignment_loss, uniformity_loss
from .anisotropy import (
    AnisotropyReport,
    analyze_embeddings,
    cosine_cdf_by_group,
    mean_cosine_by_group,
    singular_value_spectrum,
)
from .conditioning import (
    ConditioningTrace,
    trace_from_result,
)
from .reporting import (
    format_metric_table,
    format_table,
    format_value,
    relative_improvement,
)
from .tsne import pca_projection, tsne

__all__ = [
    "AnisotropyReport",
    "ConditioningTrace",
    "alignment_and_uniformity",
    "alignment_loss",
    "analyze_embeddings",
    "cosine_cdf_by_group",
    "format_metric_table",
    "format_table",
    "format_value",
    "mean_cosine_by_group",
    "pca_projection",
    "relative_improvement",
    "singular_value_spectrum",
    "trace_from_result",
    "tsne",
    "uniformity_loss",
]
