"""Memory-lean catalogue representation.

:mod:`repro.quant.codec` / :mod:`repro.quant.scorer` — per-item symmetric
int8 quantization of the catalogue matrix plus a shortlist-then-exact-re-rank
top-K scorer whose returned ids *and* scores are bit-identical to the dense
fp32 path (``ServingConfig.catalogue_codec="int8"``).
"""

from .codec import (
    INT8_LEVELS,
    QuantizedMatrix,
    quantize_matrix,
)
from .scorer import (
    DEFAULT_REFINE_FACTOR,
    SCAN_CHUNK_ROWS,
    quantized_topk,
)

__all__ = [
    "INT8_LEVELS",
    "QuantizedMatrix",
    "quantize_matrix",
    "DEFAULT_REFINE_FACTOR",
    "SCAN_CHUNK_ROWS",
    "quantized_topk",
]
