"""Module / Parameter abstractions for the ``repro.nn`` substrate.

:class:`Module` mirrors the useful parts of ``torch.nn.Module``: recursive
parameter collection, train/eval mode switching and a uniform ``__call__``
interface.  Parameters are :class:`Parameter` objects, i.e. tensors with
``requires_grad=True`` plus a name for debugging and counting.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from .tensor import Tensor, get_default_dtype


def export_array(value) -> np.ndarray:
    """A contiguous, detached snapshot of a tensor's (or array's) values.

    The graph-free inference engine (:mod:`repro.infer`) compiles models into
    plain-numpy forward plans; every weight it captures goes through this
    helper so the plan owns C-contiguous copies that later in-place optimiser
    steps or ``load_state_dict`` calls can never mutate underneath it.
    """
    data = value.data if isinstance(value, Tensor) else np.asarray(value)
    return np.array(data, order="C", copy=True)


class Parameter(Tensor):
    """A trainable tensor.

    Created in the substrate's default dtype unless ``dtype`` is given, so
    models built under ``autocast("float32")`` train in single precision.
    """

    def __init__(self, data, name: str = "", dtype=None):
        super().__init__(data, requires_grad=True, name=name, dtype=dtype)


class Module:
    """Base class for all neural-network modules.

    Subclasses assign :class:`Parameter` and :class:`Module` instances as
    attributes; those are discovered automatically by :meth:`parameters` and
    :meth:`named_parameters`.
    """

    def __init__(self) -> None:
        self.training: bool = True

    # ------------------------------------------------------------------ #
    # Parameter discovery
    # ------------------------------------------------------------------ #
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, value in vars(self).items():
            full_name = f"{prefix}{name}" if not prefix else f"{prefix}.{name}"
            if isinstance(value, Parameter):
                yield full_name, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=full_name)
            elif isinstance(value, (list, tuple)):
                for index, element in enumerate(value):
                    if isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{full_name}.{index}")
                    elif isinstance(element, Parameter):
                        yield f"{full_name}.{index}", element
            elif isinstance(value, dict):
                for key, element in value.items():
                    if isinstance(element, Module):
                        yield from element.named_parameters(prefix=f"{full_name}.{key}")
                    elif isinstance(element, Parameter):
                        yield f"{full_name}.{key}", element

    def parameters(self) -> List[Parameter]:
        return [param for _, param in self.named_parameters()]

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return int(sum(param.size for param in self.parameters()))

    @property
    def dtype(self) -> np.dtype:
        """The floating dtype of this module's parameters.

        Modules are homogeneous by construction (all parameters are created
        under the same default dtype), so the first parameter is
        representative.  Parameter-less modules report the current default.
        """
        for _, param in self.named_parameters():
            return param.data.dtype
        return get_default_dtype()

    # ------------------------------------------------------------------ #
    # Mode switching
    # ------------------------------------------------------------------ #
    def modules(self) -> Iterator["Module"]:
        yield self
        for value in vars(self).values():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for element in value:
                    if isinstance(element, Module):
                        yield from element.modules()
            elif isinstance(value, dict):
                for element in value.values():
                    if isinstance(element, Module):
                        yield from element.modules()

    def train(self) -> "Module":
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        for module in self.modules():
            module.training = False
        return self

    # ------------------------------------------------------------------ #
    # State management
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Return a name → array snapshot of all parameters."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter values saved by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, values in state.items():
            param = own[name]
            if param.shape != values.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {param.shape} vs {values.shape}"
                )
            # The module's dtype wins (torch semantics): loading a float64
            # checkpoint into a model built under autocast("float32") casts.
            param.data = values.astype(param.data.dtype, copy=True)

    # ------------------------------------------------------------------ #
    # Call protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)
