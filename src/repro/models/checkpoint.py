"""Model checkpoints: the ``.npz`` a serving process rebuilds a model from.

:func:`load_model` is :func:`~repro.models.build_model`'s inverse, so the
checkpoint format lives beside the model registry.  ``repro.models`` does
not import this module: import ``repro.models.checkpoint`` where a
checkpoint is read or written.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..nn import autocast
from ..nn.module import export_array
from .base import ModelConfig
from .registry import build_model

PathLike = Union[str, Path]


def json_sanitize(value: Any) -> Any:
    """Recursively convert a runner result or checkpoint metadata into
    JSON-serialisable data."""
    if isinstance(value, (str, bool)) or value is None:
        return value
    if isinstance(value, (np.floating, float)):
        number = float(value)
        return number if np.isfinite(number) else None
    if isinstance(value, (np.integer, int)):
        return int(value)
    if isinstance(value, np.ndarray):
        return [json_sanitize(item) for item in value.tolist()]
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return json_sanitize(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {str(key): json_sanitize(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [json_sanitize(item) for item in value]
    # Objects such as trained models or TrainingResult histories are dropped:
    # their scalar summaries are already part of the result dictionaries.
    return repr(value)


_STATE_PREFIX = "param/"
_METADATA_KEY = "__metadata__"
_FEATURES_KEY = "__feature_table__"


@dataclasses.dataclass
class Checkpoint:
    """A loaded model checkpoint.

    Attributes
    ----------
    state:
        Parameter name → array mapping accepted by
        :meth:`repro.nn.module.Module.load_state_dict`.
    metadata:
        Model name, catalogue size, :class:`~repro.models.base.ModelConfig`
        fields and any extra constructor kwargs recorded at save time.
    feature_table:
        The padded pre-trained text feature table the model was built from
        (None if it was not saved).
    """

    state: Dict[str, np.ndarray]
    metadata: Dict[str, Any]
    feature_table: Optional[np.ndarray] = None

    @classmethod
    def snapshot(cls, model, feature_table: Optional[np.ndarray] = None,
                 build_kwargs: Optional[Dict[str, Any]] = None,
                 extra: Optional[Dict[str, Any]] = None) -> "Checkpoint":
        """A fully *detached* checkpoint of a live model.

        :class:`repro.nn.optim.Adam` updates ``param.data`` in place through
        ``out=`` ufuncs, so an array's identity never changes across a
        training step — any state dict that shares memory with a live
        trainer silently tracks every future step.  This constructor
        deep-copies each parameter into a fresh C-contiguous array (and
        copies the feature table), so the snapshot a publisher serves — or
        writes with :func:`save_checkpoint` — can never be mutated by
        continued fine-tuning.  :func:`save_checkpoint` asserts this
        detachment before writing.
        """
        state = {name: export_array(param)
                 for name, param in model.named_parameters()}
        metadata = _checkpoint_metadata(model, build_kwargs, extra)
        if feature_table is not None:
            feature_table = np.array(feature_table, dtype=np.float64,
                                     copy=True)
        return cls(state=state, metadata=metadata,
                   feature_table=feature_table)

    def assert_detached_from(self, model, context: str = "checkpoint") -> None:
        """Raise unless no state array aliases ``model``'s live parameters.

        The guard behind the publish path: a checkpoint that shares memory
        with a trainer keeps changing under the served deployment as
        micro-epochs continue (identity-preserving in-place steps), which is
        exactly the torn-serving hazard :meth:`snapshot` exists to prevent.
        """
        params = dict(model.named_parameters())
        for name, values in self.state.items():
            param = params.get(name)
            if param is not None and np.shares_memory(values, param.data):
                raise ValueError(
                    f"{context} aliases live parameter {name!r}: in-place "
                    f"optimiser steps would mutate it after publish; build "
                    f"the checkpoint with Checkpoint.snapshot(model)"
                )

    def summary(self) -> Dict[str, Any]:
        """Compact JSON-serialisable description of what the checkpoint holds.

        Used by serving deployments and listings that need to describe a
        model (name, catalogue size, substrate dtype, constructor kwargs)
        without dragging the parameter arrays along.
        """
        return {
            "model_name": self.metadata.get("model_name"),
            "num_items": self.metadata.get("num_items"),
            "dtype": self.metadata.get("dtype"),
            "build_kwargs": dict(self.metadata.get("build_kwargs", {})),
            "num_parameters": len(self.state),
            "has_feature_table": self.feature_table is not None,
        }


#: constructor parameters that are supplied by :func:`load_model`, not kwargs
_NON_BUILD_PARAMS = {"self", "num_items", "feature_table", "config", "train_sequences"}
#: constructor parameter → model attribute, where the names differ
_BUILD_ATTR_ALIASES = {"projection": "projection_kind"}


def _model_build_kwargs(model) -> Dict[str, Any]:
    """Introspect the constructor kwargs needed to rebuild ``model``.

    Walks the model's ``__init__`` signature and records every scalar
    parameter the instance stores under the same name (or a known alias), so
    checkpoints capture e.g. WhitenRec's ``num_groups`` / ``whitening_method``
    without the caller having to repeat them to ``save_checkpoint``.  Only
    JSON-primitive values are kept: anything else (sub-modules, arrays) is
    assumed to be derived state that the constructor recreates.
    """
    kwargs: Dict[str, Any] = {}
    try:
        parameters = inspect.signature(type(model).__init__).parameters
    except (TypeError, ValueError):  # extension types without a signature
        return kwargs
    missing = object()
    for name, parameter in parameters.items():
        if name in _NON_BUILD_PARAMS or parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL, inspect.Parameter.VAR_KEYWORD
        ):
            continue
        value = getattr(model, _BUILD_ATTR_ALIASES.get(name, name), missing)
        if isinstance(value, (str, bool, int, float)) or value is None:
            kwargs[name] = value
    return kwargs


def _checkpoint_metadata(model, build_kwargs: Optional[Dict[str, Any]],
                         extra: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The JSON metadata blob stored in every checkpoint."""
    build = _model_build_kwargs(model)
    if build_kwargs:
        build.update(build_kwargs)
    metadata: Dict[str, Any] = {
        "model_name": model.model_name,
        "num_items": int(model.num_items),
        "config": json_sanitize(dataclasses.asdict(model.config)),
        "build_kwargs": json_sanitize(build),
        # Substrate dtype the model was built with, so load_model rebuilds
        # under the same precision (a float32-trained model round-trips as
        # float32 even when the loader runs under the float64 default).
        "dtype": str(model.dtype),
    }
    if extra:
        metadata["extra"] = json_sanitize(extra)
    return metadata


def save_checkpoint(model, path: PathLike,
                    feature_table: Optional[np.ndarray] = None,
                    build_kwargs: Optional[Dict[str, Any]] = None,
                    extra: Optional[Dict[str, Any]] = None,
                    detached_from=None) -> Path:
    """Save a trained model so a serving process can rebuild it.

    ``model`` may be a live module or an already-built :class:`Checkpoint`
    (e.g. from :meth:`Checkpoint.snapshot` — the online publisher's path);
    a live module is snapshotted first, so both are written the same way.
    The checkpoint is a single ``.npz`` holding the parameter arrays, a JSON
    metadata blob (model name, ``num_items``, the ``ModelConfig`` fields and
    ``build_kwargs`` for :func:`repro.models.build_model`) and, optionally,
    the feature table — enough for :func:`load_model` (or
    :meth:`repro.service.Deployment.from_checkpoint`) to reconstruct the
    model without access to the original dataset.

    Constructor kwargs (e.g. WhitenRec's ``num_groups`` or
    ``whitening_method``) are introspected from the model automatically;
    ``build_kwargs`` entries override the introspected values.

    **Aliasing guard.**  The state arrays being written must not share
    memory with the source model's live parameters (the in-place optimiser
    keeps ``param.data`` identity across steps, so an aliased "checkpoint"
    changes after every later micro-epoch).  The snapshot of a live module
    is asserted detached from it; a checkpoint is also asserted against
    every model in ``detached_from`` (pass the live trainer's model there).
    """
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    path.parent.mkdir(parents=True, exist_ok=True)

    if isinstance(model, Checkpoint):
        if build_kwargs is not None or extra is not None:
            raise ValueError(
                "build_kwargs/extra are recorded when the Checkpoint is "
                "built; they cannot be overridden at save time"
            )
        checkpoint = model
    else:
        checkpoint = Checkpoint.snapshot(model, build_kwargs=build_kwargs,
                                         extra=extra)
        # snapshot() copies; assert it stays that way, or every checkpoint
        # saved mid-training would silently track later steps.
        checkpoint.assert_detached_from(model, context=f"state of {path.name}")
    if feature_table is None:
        feature_table = checkpoint.feature_table

    if detached_from is not None:
        guards = (detached_from if isinstance(detached_from, (list, tuple))
                  else (detached_from,))
        for guard in guards:
            checkpoint.assert_detached_from(guard, context=str(path.name))

    arrays: Dict[str, np.ndarray] = {
        _STATE_PREFIX + name: values for name, values in checkpoint.state.items()
    }
    arrays[_METADATA_KEY] = np.asarray(json.dumps(checkpoint.metadata))
    if feature_table is not None:
        arrays[_FEATURES_KEY] = np.asarray(feature_table, dtype=np.float64)

    temporary = path.with_suffix(path.suffix + ".tmp")
    with open(temporary, "wb") as handle:
        np.savez(handle, **arrays)
    temporary.replace(path)
    return path


def load_checkpoint(path: PathLike) -> Checkpoint:
    """Load a checkpoint written by :func:`save_checkpoint` (a ``.npz``
    file; the suffix may be omitted)."""
    path = Path(path)
    if not path.exists() and path.with_suffix(path.suffix + ".npz").exists():
        path = path.with_suffix(path.suffix + ".npz")
    with np.load(path, allow_pickle=False) as data:
        if _METADATA_KEY not in data:
            raise ValueError(f"{path!s} is not a repro model checkpoint")
        metadata = json.loads(str(data[_METADATA_KEY][()]))
        state = {
            key[len(_STATE_PREFIX):]: np.array(data[key])
            for key in data.files if key.startswith(_STATE_PREFIX)
        }
        feature_table = (
            np.array(data[_FEATURES_KEY]) if _FEATURES_KEY in data else None
        )
    return Checkpoint(state=state, metadata=metadata, feature_table=feature_table)


def load_model(path: Union[PathLike, Checkpoint],
               feature_table: Optional[np.ndarray] = None,
               train_sequences: Optional[Dict[int, Any]] = None):
    """Rebuild the model stored in a checkpoint and restore its parameters.

    ``path`` may be an already-loaded :class:`Checkpoint` (so callers that
    inspected the checkpoint first don't read the file twice).
    ``feature_table`` overrides the one stored in the checkpoint (text models
    need one from either source).  Whitened tables are recomputed
    deterministically from the feature table at construction, so only the
    trainable parameters travel in the checkpoint.
    """
    checkpoint = path if isinstance(path, Checkpoint) else load_checkpoint(path)
    metadata = checkpoint.metadata
    if feature_table is None:
        feature_table = checkpoint.feature_table
    config_fields = {field.name for field in dataclasses.fields(ModelConfig)}
    config = ModelConfig(**{key: value for key, value in metadata["config"].items()
                            if key in config_fields})
    with autocast(metadata.get("dtype", "float64")):
        model = build_model(
            metadata["model_name"], metadata["num_items"],
            feature_table=feature_table,
            train_sequences=train_sequences,
            config=config,
            **metadata.get("build_kwargs", {}),
        )
    model.load_state_dict(checkpoint.state)
    model.eval()
    return model
