"""Typed serving configuration shared by `Recommender` and `repro.service`.

Historically every scoring knob travelled as a loose keyword argument —
``topk(sequences, k, exclude_seen=..., backend=...)`` with ``dtype`` fixed at
construction — which made it impossible to name a serving policy, attach it
to a deployment, or coalesce requests that share one.  :class:`ServingConfig`
is that policy as a single frozen value: validated once, hashable (so the
dynamic batcher can group requests by it), and serialisable for the JSONL
protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Dict

import numpy as np

#: retrieval backends accepted by the serving stack
SERVING_BACKENDS = ("exact", "ivf")

#: shard execution backends: ``"local"`` scores shards sequentially in the
#: serving process, ``"process"`` scatters to a multi-process worker pool
#: (:class:`repro.shard.ShardPool`).  Both are bit-identical to each other
#: and to every other shard count — see :mod:`repro.shard`.
SHARD_BACKENDS = ("local", "process")

#: catalogue storage codecs for exact retrieval: ``"fp32"`` scores the dense
#: matrix directly; ``"int8"`` scans per-item symmetric int8 codes and
#: exactly re-ranks the shortlisted blocks against the fp32 rows, so top-K
#: ids AND scores stay bit-identical at ~0.28x the bytes per item
#: (:mod:`repro.quant`).
CATALOGUE_CODECS = ("fp32", "int8")

#: fields that decide what a :class:`~repro.serving.Recommender` *builds*
#: (the cast item matrix and every index over it, int8 codes, the shard
#: layout / worker pool) — fixed at construction, rejected as per-call
#: overrides.  The rest (``k``, ``backend``, ``exclude_seen``) only steer one
#: ``topk`` call.
STRUCTURAL_FIELDS = ("score_dtype", "shards", "shard_backend",
                     "catalogue_codec")


@dataclass(frozen=True)
class ServingConfig:
    """One serving policy: what to retrieve, how, and at which precision.

    Attributes
    ----------
    k:
        Top-K cut-off (items returned per request).
    backend:
        Retrieval backend: ``"exact"`` (dense full-catalogue matmul) or the
        ``"ivf"`` ANN index from :mod:`repro.index`.
    score_dtype:
        Numpy dtype name for the scoring matmul (``"float32"`` halves the
        memory traffic of the float64 training substrate; ``"float64"``
        is the reference precision the evaluation loop scores at).  Stored
        as a string so configs stay JSON-serialisable; use :attr:`np_dtype`
        for the numpy type.
    exclude_seen:
        Mask every history item out of the recommendations.
    shards:
        Number of contiguous item-matrix partitions retrieval fans out over
        (``1``, the default, keeps the historical single-scorer paths).  Any
        value yields bit-identical results on the exact path; see
        :mod:`repro.shard` for the aligned-block-grid argument.
    shard_backend:
        Where shard searches run when ``shards > 1``: ``"process"``
        (default) scatters over a spawned worker pool holding the matrix
        via zero-copy memmap, ``"local"`` scores the shards sequentially in
        the serving process (useful for tests and single-core machines).
    catalogue_codec:
        Storage codec for exact catalogue retrieval: ``"fp32"`` (default)
        scores the dense matrix, ``"int8"`` scans per-item symmetric int8
        codes and exactly re-ranks the shortlist against the fp32 rows —
        bit-identical ids and scores at roughly 0.28x the catalogue bytes
        per item.  Requires ``score_dtype="float32"`` (the re-rank parity
        argument is a float32 contract).
    """

    k: int = 10
    backend: str = "exact"
    score_dtype: str = "float32"
    exclude_seen: bool = True
    shards: int = 1
    shard_backend: str = "process"
    catalogue_codec: str = "fp32"

    def __post_init__(self) -> None:
        if not isinstance(self.k, int) or isinstance(self.k, bool) or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k!r}")
        if self.backend not in SERVING_BACKENDS:
            raise ValueError(
                f"backend must be one of {SERVING_BACKENDS}, got {self.backend!r}"
            )
        try:
            canonical = np.dtype(self.score_dtype).name
        except TypeError as error:
            raise ValueError(
                f"score_dtype must name a numpy dtype, got {self.score_dtype!r}"
            ) from error
        object.__setattr__(self, "score_dtype", canonical)
        if (isinstance(self.shards, bool) or not isinstance(self.shards, int)
                or self.shards < 1):
            raise ValueError(
                f"shards must be a positive integer, got {self.shards!r}"
            )
        if self.shard_backend not in SHARD_BACKENDS:
            raise ValueError(
                f"shard_backend must be one of {SHARD_BACKENDS}, "
                f"got {self.shard_backend!r}"
            )
        if self.catalogue_codec not in CATALOGUE_CODECS:
            raise ValueError(
                f"catalogue_codec must be one of {CATALOGUE_CODECS}, "
                f"got {self.catalogue_codec!r}"
            )
        if self.catalogue_codec == "int8" and canonical != "float32":
            raise ValueError(
                f"catalogue_codec='int8' requires score_dtype='float32' "
                f"(got {canonical!r}); use the fp32 codec for float64 scoring"
            )

    @property
    def np_dtype(self) -> np.dtype:
        """The scoring dtype as a numpy dtype object."""
        return np.dtype(self.score_dtype)

    def with_overrides(self, **overrides: Any) -> "ServingConfig":
        """A copy with the non-``None`` overrides applied (and re-validated).

        ``None`` values mean "keep mine", which lets request envelopes carry
        optional per-request overrides without spelling out every field.
        """
        updates = {name: value for name, value in overrides.items()
                   if value is not None}
        if not updates:
            return self
        known = {field.name for field in fields(self)}
        unknown = sorted(set(updates) - known)
        if unknown:
            raise ValueError(f"unknown ServingConfig field(s): {', '.join(unknown)}")
        return replace(self, **updates)

    def to_dict(self) -> Dict[str, Any]:
        """JSON-serialisable form (used by ``stats`` and deployment listings)."""
        return {field.name: getattr(self, field.name)
                for field in fields(self)}

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ServingConfig":
        """Build a config from a (possibly partial) JSON mapping."""
        return cls().with_overrides(**dict(payload))

