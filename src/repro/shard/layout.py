"""Memmap-friendly on-disk layout of the candidate item matrix.

The ``.npz`` checkpoints of :mod:`repro.models.checkpoint` are compact
but must be decompressed into private memory by every reader — the wrong
trade for a worker pool where N processes all want the same
multi-hundred-megabyte matrix.  An :class:`ItemMatrixLayout` is the
memmap-friendly variant: a directory holding

* ``item_matrix.npy`` — the raw matrix in ``numpy`` format, written
  atomically (or streamed chunk-by-chunk by the out-of-core generator in
  :mod:`repro.data.synthetic`), and
* ``layout.json``     — shape, dtype and the scoring-block height.

Workers ``np.load(..., mmap_mode="r")`` the ``.npy`` and slice their row
range: the OS page cache backs all mappings with one physical copy, so
adding workers adds no RAM.  The recorded ``block_rows`` pins the scoring
grid (see :mod:`repro.shard.scoring`) so every client of one layout agrees
on score bits.

A layout may additionally carry an **int8 sidecar** (``item_codes.npy`` +
``item_scales.npy``, see :mod:`repro.quant.codec`): per-item symmetric int8
codes that workers attach zero-copy exactly like the matrix, letting the
``int8`` catalogue codec scan ~0.28x the bytes per item while the fp32
``.npy`` stays available for the exact block re-rank.
"""

from __future__ import annotations

import json
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from .partition import DEFAULT_BLOCK_ROWS

PathLike = Union[str, Path]

_MATRIX_FILE = "item_matrix.npy"
_META_FILE = "layout.json"
_CODES_FILE = "item_codes.npy"
_SCALES_FILE = "item_scales.npy"


def _atomic_npy(array: np.ndarray, path: Path) -> None:
    temporary = path.with_name(path.name + ".tmp")
    with open(temporary, "wb") as handle:
        np.save(handle, array)
    temporary.replace(path)


@dataclass(frozen=True)
class ItemMatrixLayout:
    """One on-disk item matrix plus the metadata shards need to map it."""

    directory: Path
    num_rows: int
    dim: int
    dtype: str
    block_rows: int = DEFAULT_BLOCK_ROWS

    @property
    def matrix_path(self) -> Path:
        return self.directory / _MATRIX_FILE

    @property
    def codes_path(self) -> Path:
        return self.directory / _CODES_FILE

    @property
    def scales_path(self) -> Path:
        return self.directory / _SCALES_FILE

    def matrix(self, mode: str = "r") -> np.ndarray:
        """The matrix as a read-only (by default) memory map."""
        return np.load(self.matrix_path, mmap_mode=mode)

    def nbytes(self) -> int:
        return self.num_rows * self.dim * np.dtype(self.dtype).itemsize

    # ------------------------------------------------------------------ #
    # Int8 sidecar
    # ------------------------------------------------------------------ #
    def has_int8_sidecar(self) -> bool:
        return self.codes_path.exists() and self.scales_path.exists()

    def ensure_int8_sidecar(self) -> None:
        """Write the int8 codes + scales next to the matrix if missing.

        Quantization is deterministic, so the sidecar is a pure cache: any
        writer produces the same bytes, and the atomic rename makes a racing
        double-write harmless.  Requires a float32 matrix.
        """
        if self.has_int8_sidecar():
            return
        from ..quant.codec import quantize_matrix

        quantized = quantize_matrix(np.asarray(self.matrix()))
        _atomic_npy(quantized.codes, self.codes_path)
        _atomic_npy(quantized.scales, self.scales_path)

    def quantized(self, mode: str = "r"):
        """The int8 sidecar as a zero-copy :class:`~repro.quant.codec.QuantizedMatrix`.

        Codes stay a memory map (the OS page cache shares them across
        workers exactly like the fp32 matrix); scales and the derived norm
        arrays are small and materialised per process.
        """
        from ..quant.codec import QuantizedMatrix

        if not self.has_int8_sidecar():
            raise FileNotFoundError(
                f"{self.directory!s} has no int8 sidecar; call "
                f"ensure_int8_sidecar() first")
        codes = np.load(self.codes_path, mmap_mode=mode)
        scales = np.asarray(np.load(self.scales_path))
        return QuantizedMatrix.from_parts(codes, scales)

    def int8_nbytes(self) -> int:
        """Stored bytes of the int8 sidecar representation."""
        return self.num_rows * (self.dim + np.dtype(np.float32).itemsize)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #
    @classmethod
    def write(cls, matrix: np.ndarray, directory: PathLike,
              block_rows: int = DEFAULT_BLOCK_ROWS) -> "ItemMatrixLayout":
        """Write ``matrix`` into ``directory`` and return the layout.

        The ``.npy`` is written through a temporary file and renamed, like
        every other persistence artefact in the repo.
        """
        matrix = np.ascontiguousarray(matrix)
        if matrix.ndim != 2:
            raise ValueError(f"the item matrix must be 2-D, got shape "
                             f"{matrix.shape}")
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        temporary = directory / (_MATRIX_FILE + ".tmp")
        with open(temporary, "wb") as handle:
            np.save(handle, matrix)
        temporary.replace(directory / _MATRIX_FILE)
        return cls._finalise(directory, matrix.shape, matrix.dtype, block_rows)

    @classmethod
    def adopt(cls, directory: PathLike,
              block_rows: int = DEFAULT_BLOCK_ROWS) -> "ItemMatrixLayout":
        """Turn a directory already holding ``item_matrix.npy`` into a layout.

        Used by callers that streamed the matrix straight to disk (the
        out-of-core synthetic generator) and never held it in RAM: the
        ``.npy`` header supplies shape and dtype without reading the data.
        """
        directory = Path(directory)
        path = directory / _MATRIX_FILE
        if not path.exists():
            raise FileNotFoundError(f"{path!s} does not exist; write the "
                                    f"matrix first")
        header = np.load(path, mmap_mode="r")
        return cls._finalise(directory, header.shape, header.dtype, block_rows)

    @classmethod
    def _finalise(cls, directory: Path, shape, dtype,
                  block_rows: int) -> "ItemMatrixLayout":
        layout = cls(directory=directory, num_rows=int(shape[0]),
                     dim=int(shape[1]), dtype=np.dtype(dtype).name,
                     block_rows=int(block_rows))
        meta = {"num_rows": layout.num_rows, "dim": layout.dim,
                "dtype": layout.dtype, "block_rows": layout.block_rows,
                "format": "repro-item-matrix-v1"}
        temporary = directory / (_META_FILE + ".tmp")
        temporary.write_text(json.dumps(meta, indent=2, sort_keys=True),
                             encoding="utf-8")
        temporary.replace(directory / _META_FILE)
        return layout

    @classmethod
    def open(cls, directory: PathLike) -> "ItemMatrixLayout":
        """Open a layout previously written by :meth:`write` / :meth:`adopt`."""
        directory = Path(directory)
        meta_path = directory / _META_FILE
        if not meta_path.exists():
            raise FileNotFoundError(f"{directory!s} holds no {_META_FILE}; "
                                    f"not an item-matrix layout")
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        if meta.get("format") != "repro-item-matrix-v1":
            raise ValueError(f"{meta_path!s} has unknown layout format "
                             f"{meta.get('format')!r}")
        return cls(directory=directory, num_rows=int(meta["num_rows"]),
                   dim=int(meta["dim"]), dtype=str(meta["dtype"]),
                   block_rows=int(meta["block_rows"]))

    def delete(self) -> None:
        """Remove the layout directory (used by owners of temporary layouts)."""
        shutil.rmtree(self.directory, ignore_errors=True)
