"""Weight initialisers for the ``repro.nn`` substrate.

The paper's models (SASRec-style Transformers trained with Adam) use the
standard truncated-normal / Xavier initialisations from RecBole.  We provide
the same family here so that model classes can stay declarative.

Each initialiser accepts an optional ``dtype``; when omitted the substrate's
default dtype applies (see :func:`repro.nn.set_default_dtype`), so parameters
built under ``autocast("float32")`` come out single precision without any
later cast.  Sampling always happens in float64 (the generator's native
precision — the drawn values are identical across dtypes) and is cast once at
the end.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import get_default_dtype


def _finalize(values: np.ndarray, dtype) -> np.ndarray:
    dtype = np.dtype(dtype) if dtype is not None else get_default_dtype()
    return values.astype(dtype, copy=False)


def xavier_uniform(shape: Tuple[int, ...], rng: np.random.Generator,
                   gain: float = 1.0, dtype=None) -> np.ndarray:
    """Glorot/Xavier uniform initialisation."""
    if len(shape) < 2:
        fan_in = fan_out = shape[0]
    else:
        fan_in, fan_out = shape[-2], shape[-1]
    limit = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return _finalize(rng.uniform(-limit, limit, size=shape), dtype)


def truncated_normal(shape: Tuple[int, ...], rng: np.random.Generator,
                     std: float = 0.02, bound: Optional[float] = None,
                     dtype=None) -> np.ndarray:
    """Truncated normal initialisation (the BERT / SASRec default).

    Values are re-sampled until they fall within ``bound`` standard
    deviations (default 2), following the usual implementation.
    """
    bound = bound if bound is not None else 2.0 * std
    values = rng.normal(0.0, std, size=shape)
    out_of_range = np.abs(values) > bound
    # Re-sample the out-of-range entries a bounded number of times, then clip.
    for _ in range(4):
        if not out_of_range.any():
            break
        values[out_of_range] = rng.normal(0.0, std, size=int(out_of_range.sum()))
        out_of_range = np.abs(values) > bound
    return _finalize(np.clip(values, -bound, bound), dtype)


def zeros(shape: Tuple[int, ...], dtype=None) -> np.ndarray:
    return np.zeros(shape, dtype=np.dtype(dtype) if dtype is not None else get_default_dtype())


def ones(shape: Tuple[int, ...], dtype=None) -> np.ndarray:
    return np.ones(shape, dtype=np.dtype(dtype) if dtype is not None else get_default_dtype())
