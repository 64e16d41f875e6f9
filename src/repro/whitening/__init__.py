"""Whitening transformations and embedding-geometry diagnostics."""

from .base import (
    IdentityWhitening,
    WhiteningTransform,
    available_whitenings,
    centered_covariance,
    get_whitening,
    register_whitening,
)
from .flow import FlowGaussianization
from .group import (
    GroupWhitening,
    build_whitening,
    group_slices,
    resolve_group_count,
    whiten_with_groups,
)
from .linear import BatchNormWhitening, CholeskyWhitening, PCAWhitening, ZCAWhitening
from .metrics import (
    cosine_similarity_cdf,
    covariance_condition_number,
    mean_pairwise_cosine,
    pairwise_cosine_similarities,
    singular_values,
)
from .parametric import ParametricWhitening

__all__ = [
    "BatchNormWhitening",
    "CholeskyWhitening",
    "FlowGaussianization",
    "GroupWhitening",
    "IdentityWhitening",
    "PCAWhitening",
    "ParametricWhitening",
    "WhiteningTransform",
    "ZCAWhitening",
    "available_whitenings",
    "build_whitening",
    "centered_covariance",
    "cosine_similarity_cdf",
    "covariance_condition_number",
    "get_whitening",
    "group_slices",
    "mean_pairwise_cosine",
    "pairwise_cosine_similarities",
    "register_whitening",
    "resolve_group_count",
    "singular_values",
    "whiten_with_groups",
]
