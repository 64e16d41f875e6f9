"""Per-item symmetric int8 quantization of the catalogue matrix.

Each catalogue row ``x_i`` is stored as an int8 code vector ``c_i`` plus one
fp32 scale ``s_i = max|x_i| / 127`` with ``c_i = clip(rint(x_i / s_i))``.
Stored artifacts are the codes and the scales *only* — ``dim + 4`` bytes per
item against ``4 * dim`` for dense fp32 — everything else the scorer needs
(code norms, scaled norms) is derived deterministically at build/attach time.

The quantization error per row is bounded by construction:
``||x_i - s_i * c_i||_inf <= 0.5 * s_i * (1 + 2^-11)`` (half a quantization
step, inflated for the fp32 rounding of the division), which is what lets
:mod:`repro.quant.scorer` turn approximate int8 scores into sound score
intervals and recover the exact dense top-K.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

INT8_LEVELS = 127

# Rows per block when deriving norms; keeps peak temporary memory small on
# million-row catalogues without changing the (fp64-accumulated) results.
_NORM_BLOCK_ROWS = 65536

# Safety inflation applied to the derived code norms: the fp64 einsum is
# exact for int8 codes (whose squares are small integers), but the final
# sqrt + fp32 cast round, and the scorer needs an upper bound.
_NORM_INFLATION = np.float32(1.0 + 1e-6)


@dataclass(frozen=True)
class QuantizedMatrix:
    """Int8 codes + fp32 scales for one catalogue matrix.

    ``codes`` and ``scales`` are the stored representation; ``code_norms``
    (the l2 norms of the int8 code rows, inflated to be upper bounds) and
    ``scaled_norms`` (``scales * code_norms``, an upper bound on the l2 norm
    of each dequantized row) are derived and only live in memory.
    """

    codes: np.ndarray
    scales: np.ndarray
    code_norms: np.ndarray = field(repr=False)
    scaled_norms: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        if self.codes.ndim != 2:
            raise ValueError("codes must be 2-D")
        if self.codes.dtype != np.int8:
            raise ValueError("codes must be int8")
        if self.scales.shape != (self.codes.shape[0],):
            raise ValueError("scales must be 1-D with one entry per row")
        if self.scales.dtype != np.float32:
            raise ValueError("scales must be float32")

    @property
    def num_rows(self) -> int:
        return int(self.codes.shape[0])

    @property
    def dim(self) -> int:
        return int(self.codes.shape[1])

    @property
    def stored_nbytes(self) -> int:
        """Bytes of the persisted representation (codes + scales only)."""

        return int(self.codes.nbytes + self.scales.nbytes)

    @property
    def bytes_per_item(self) -> float:
        if self.num_rows == 0:
            return 0.0
        return self.stored_nbytes / self.num_rows

    @classmethod
    def from_parts(cls, codes: np.ndarray, scales: np.ndarray) -> "QuantizedMatrix":
        """Rebuild a :class:`QuantizedMatrix` from persisted codes + scales.

        Used when attaching a memmapped int8 layout: the derived norm arrays
        are recomputed here, deterministically, so a worker that attaches
        codes zero-copy produces bit-identical scan bounds to the process
        that quantized the matrix.
        """

        codes = np.asarray(codes)
        scales = np.ascontiguousarray(np.asarray(scales), dtype=np.float32)
        if codes.dtype != np.int8:
            raise ValueError("codes must be int8")
        code_norms = _derive_code_norms(codes)
        scaled_norms = scales * code_norms
        return cls(
            codes=codes,
            scales=scales,
            code_norms=code_norms,
            scaled_norms=scaled_norms,
        )


def _derive_code_norms(codes: np.ndarray) -> np.ndarray:
    num_rows = codes.shape[0]
    norms = np.empty(num_rows, dtype=np.float32)
    for start in range(0, num_rows, _NORM_BLOCK_ROWS):
        stop = min(start + _NORM_BLOCK_ROWS, num_rows)
        block = codes[start:stop].astype(np.float32)
        sq = np.einsum("ij,ij->i", block, block, dtype=np.float64)
        norms[start:stop] = np.sqrt(sq)
    norms *= _NORM_INFLATION
    return norms


def quantize_matrix(matrix: np.ndarray) -> QuantizedMatrix:
    """Quantize a float32 catalogue matrix to per-row symmetric int8.

    All-zero rows get ``scale == 0`` and all-zero codes (the masked inverse
    below never divides by zero); the scorer treats them exactly like the
    dense path does, because a zero scale collapses their score interval to
    the exact value.
    """

    matrix = np.asarray(matrix)
    if matrix.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if matrix.dtype != np.float32:
        raise ValueError(
            f"int8 quantization requires a float32 matrix, got {matrix.dtype}"
        )
    if not np.all(np.isfinite(matrix)):
        raise ValueError("matrix must be finite to quantize")

    num_rows, dim = matrix.shape
    scales = np.empty(num_rows, dtype=np.float32)
    codes = np.empty((num_rows, dim), dtype=np.int8)
    for start in range(0, num_rows, _NORM_BLOCK_ROWS):
        stop = min(start + _NORM_BLOCK_ROWS, num_rows)
        block = matrix[start:stop]
        amax = np.max(np.abs(block), axis=1) if dim else np.zeros(stop - start)
        block_scales = (amax / np.float32(INT8_LEVELS)).astype(np.float32)
        inverse = np.zeros_like(block_scales)
        nonzero = block_scales > 0
        inverse[nonzero] = np.float32(1.0) / block_scales[nonzero]
        scaled = block * inverse[:, None]
        np.rint(scaled, out=scaled)
        np.clip(scaled, -INT8_LEVELS, INT8_LEVELS, out=scaled)
        codes[start:stop] = scaled.astype(np.int8)
        scales[start:stop] = block_scales
    code_norms = _derive_code_norms(codes)
    return QuantizedMatrix(
        codes=codes,
        scales=scales,
        code_norms=code_norms,
        scaled_norms=scales * code_norms,
    )
