"""Reverse-mode automatic differentiation over numpy arrays.

This module is the lowest layer of the ``repro.nn`` substrate that replaces
PyTorch for this reproduction.  It provides a :class:`Tensor` class that wraps
a ``numpy.ndarray`` and records the operations applied to it so that gradients
can be computed with :meth:`Tensor.backward`.

The implementation is intentionally small and explicit: every differentiable
operation creates a new :class:`Tensor` whose ``_backward`` closure knows how
to propagate the upstream gradient to its parents.  A topological sort over
the recorded graph drives back-propagation.

Only the operations required by the models in this repository are
implemented, but they are implemented for arbitrary batch shapes and with
full broadcasting support, which is what the Transformer-based recommenders
need.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[np.ndarray, float, int, Sequence]

#: Global autodiff switch.  When False (inside :class:`no_grad`) no operation
#: records parents or backward closures, so inference allocates nothing beyond
#: the output arrays.
_GRAD_ENABLED = True

#: Global default floating dtype for newly constructed tensors.  float64 is
#: the substrate's historical default and stays the default: the whitening and
#: analysis numerics rely on it.  Training can opt into float32 via
#: :func:`set_default_dtype` or the :class:`autocast` context manager.
_DEFAULT_DTYPE = np.dtype(np.float64)

_ALLOWED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def is_grad_enabled() -> bool:
    """Whether operations currently record the autodiff graph."""
    return _GRAD_ENABLED


def get_default_dtype() -> np.dtype:
    """The dtype new tensors are created with when none is given."""
    return _DEFAULT_DTYPE


def set_default_dtype(dtype) -> np.dtype:
    """Set the default floating dtype of the substrate.

    Accepts ``np.float32`` / ``np.float64`` (or their string names) and
    returns the previous default so callers can restore it.  Anything other
    than those two dtypes is rejected: the autodiff kernels are only
    maintained for single and double precision.
    """
    global _DEFAULT_DTYPE
    resolved = np.dtype(dtype)
    if resolved not in _ALLOWED_DTYPES:
        raise ValueError(
            f"default dtype must be float32 or float64, got {resolved}"
        )
    previous = _DEFAULT_DTYPE
    _DEFAULT_DTYPE = resolved
    return previous


class autocast:
    """Context manager running a block under a different default dtype.

    ``with nn.autocast("float32"):`` makes every tensor/parameter created in
    the block single precision, which halves the memory traffic of the
    training hot path.  The previous default is restored on exit, so the
    float64 whitening/analysis numerics outside the block are unaffected.
    Nesting is supported.
    """

    def __init__(self, dtype="float32"):
        self._dtype = dtype

    def __enter__(self) -> "autocast":
        self._previous = set_default_dtype(self._dtype)
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        set_default_dtype(self._previous)
        return False


class no_grad:
    """Context manager disabling graph recording (the inference fast path).

    Inside the block every operation produces plain value tensors with
    ``requires_grad=False`` and no backward closure, mirroring
    ``torch.no_grad()``.  Used by the serving layer so batched scoring does
    not build (or retain) an autodiff graph.
    """

    def __enter__(self) -> "no_grad":
        global _GRAD_ENABLED
        self._previous = _GRAD_ENABLED
        _GRAD_ENABLED = False
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> bool:
        global _GRAD_ENABLED
        _GRAD_ENABLED = self._previous
        return False


def _as_array(data: ArrayLike, dtype=None) -> np.ndarray:
    """Coerce ``data`` into a numpy array of the requested (or default) dtype."""
    if dtype is None:
        dtype = _DEFAULT_DTYPE
    if isinstance(data, np.ndarray):
        if data.dtype == dtype:
            return data
        return data.astype(dtype)
    return np.asarray(data, dtype=dtype)


def _scatter_add_rows(full: np.ndarray, indices: np.ndarray,
                      grad: np.ndarray) -> None:
    """Accumulate ``grad`` rows into ``full`` at (possibly repeated) ``indices``.

    Sort + ``np.add.reduceat`` segment sums: ~2-3x faster than the unbuffered
    ``np.ufunc.at`` scatter for the embedding-gradient shapes the models
    produce (thousands of lookups into a few hundred rows).
    """
    if indices.size == 0:
        return
    order = np.argsort(indices, kind="stable")
    sorted_idx = indices[order]
    sorted_grad = grad[order]
    starts = np.flatnonzero(sorted_idx[1:] != sorted_idx[:-1]) + 1
    starts = np.concatenate((np.zeros(1, dtype=starts.dtype), starts))
    full[sorted_idx[starts]] = np.add.reduceat(sorted_grad, starts, axis=0)


def _released(grad: np.ndarray) -> None:
    """Closure of a node whose graph an earlier backward() already consumed."""
    raise RuntimeError(
        "backward() reached a node whose graph was released by an earlier "
        "backward(); rebuild the graph with a new forward pass"
    )


def _is_basic_index(index) -> bool:
    """True when ``index`` uses only basic (non-repeating) numpy indexing."""
    items = index if isinstance(index, tuple) else (index,)
    return all(
        isinstance(item, (int, np.integer, slice)) or item is Ellipsis or item is None
        for item in items
    )


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Numpy broadcasting can expand an operand along new leading axes or along
    axes of size one.  The gradient of a broadcast operand is the sum of the
    upstream gradient over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over extra leading dimensions.
    extra_dims = grad.ndim - len(shape)
    if extra_dims > 0:
        grad = grad.sum(axis=tuple(range(extra_dims)))
    # Sum over axes that were broadcast from size 1.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor with reverse-mode autograd.

    Parameters
    ----------
    data:
        The underlying values.  Stored in the substrate's default dtype
        (``float64`` unless changed via :func:`set_default_dtype` /
        :class:`autocast`); float64 keeps the whitening/analysis numerics
        exact, float32 halves training memory traffic.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False, name: str = "",
                 dtype=None):
        self.data = _as_array(data, dtype=dtype)
        self.grad: Optional[np.ndarray] = None
        self.requires_grad = bool(requires_grad)
        self._backward = None
        self._prev: Tuple["Tensor", ...] = ()
        self.name = name

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the raw numpy array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        return Tensor(self.data, requires_grad=False, dtype=self.data.dtype)

    def astype(self, dtype) -> "Tensor":
        """Detached dtype cast (no gradient flows through the conversion).

        The serving layer uses this to run float32 scoring against item
        matrices produced by the float64 training substrate.
        """
        return Tensor(self.data.astype(dtype, copy=False), dtype=dtype)

    def copy(self) -> "Tensor":
        return Tensor(self.data.copy(), requires_grad=self.requires_grad,
                      dtype=self.data.dtype)

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def __len__(self) -> int:
        return len(self.data)

    # ------------------------------------------------------------------ #
    # Graph utilities
    # ------------------------------------------------------------------ #
    @staticmethod
    def _ensure_tensor(other: Union["Tensor", ArrayLike]) -> "Tensor":
        if isinstance(other, Tensor):
            return other
        return Tensor(other)

    def _coerce(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Wrap a non-tensor operand in this tensor's dtype.

        Binary ops coerce scalars/arrays to the dtype of the tensor operand
        (not the global default), so a float32 graph stays float32 even when
        the surrounding code runs under the float64 default.
        """
        if isinstance(other, Tensor):
            return other
        return Tensor(other, dtype=self.data.dtype)

    def _make_child(self, data: np.ndarray, parents: Iterable["Tensor"]) -> "Tensor":
        parents = tuple(parents)
        requires_grad = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        child = Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
        if requires_grad:
            child._prev = parents
        return child

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient buffer the caller owns.

        Skips the defensive copy of :meth:`_accumulate`: the buffer must be a
        freshly allocated array that the caller will not reuse.
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad
        else:
            self.grad += grad

    def backward(self, grad: Optional[ArrayLike] = None) -> None:
        """Back-propagate through the recorded graph starting from ``self``.

        If ``grad`` is omitted, ``self`` must be a scalar and the seed
        gradient is 1.0 (the usual loss.backward() convention).

        The walk releases the graph as it consumes it, as ``torch`` does by
        default: once a non-leaf node has passed its gradient on, its
        ``grad``, parents and closure (and with them every activation the
        closure saved) are dropped, so a training step never holds more than
        one graph.  Leaves keep and accumulate ``grad``.  A released node
        cannot pass a gradient on again: a second ``backward()`` through it,
        or through a new graph built on it, raises ``RuntimeError``.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        else:
            # Seed gradients follow this tensor's dtype, not the global
            # default, so float32 graphs stay float32.
            grad = _as_array(grad, dtype=self.data.dtype)

        # Topological order of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[Tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        # Popping drops the walk's own reference to each node it is done with.
        while topo:
            node = topo.pop()
            if node._backward is None:  # a leaf
                continue
            if node.grad is not None:
                node._backward(node.grad)
            node.grad = None
            node._prev = ()
            node._backward = _released

    # ------------------------------------------------------------------ #
    # Arithmetic
    # ------------------------------------------------------------------ #
    def __add__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data + other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                ga = _unbroadcast(grad, self.shape)
                (self._accumulate if ga is grad else self._accumulate_owned)(ga)
            if other.requires_grad:
                gb = _unbroadcast(grad, other.shape)
                (other._accumulate if gb is grad else other._accumulate_owned)(gb)

        out._backward = _backward if out.requires_grad else None
        return out

    def __radd__(self, other: ArrayLike) -> "Tensor":
        return self.__add__(other)

    def __neg__(self) -> "Tensor":
        out = self._make_child(-self.data, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(-grad)

        out._backward = _backward if out.requires_grad else None
        return out

    def __sub__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data - other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                ga = _unbroadcast(grad, self.shape)
                (self._accumulate if ga is grad else self._accumulate_owned)(ga)
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(-grad, other.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data * other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad * other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(_unbroadcast(grad * self.data, other.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    def __rmul__(self, other: ArrayLike) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        other = self._coerce(other)
        out = self._make_child(self.data / other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                self._accumulate_owned(_unbroadcast(grad / other.data, self.shape))
            if other.requires_grad:
                other._accumulate_owned(
                    _unbroadcast(-grad * self.data / (other.data ** 2), other.shape)
                )

        out._backward = _backward if out.requires_grad else None
        return out

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return self._coerce(other).__truediv__(self)

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        out = self._make_child(self.data ** exponent, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * exponent * self.data ** (exponent - 1))

        out._backward = _backward if out.requires_grad else None
        return out

    def __matmul__(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        return self.matmul(other)

    def matmul(self, other: Union["Tensor", ArrayLike]) -> "Tensor":
        """Matrix multiplication supporting batched operands."""
        other = self._coerce(other)
        out = self._make_child(self.data @ other.data, (self, other))

        def _backward(grad: np.ndarray) -> None:
            a, b = self.data, other.data
            if a.ndim == 1 and b.ndim == 1:
                # inner product
                if self.requires_grad:
                    self._accumulate_owned(grad * b)
                if other.requires_grad:
                    other._accumulate_owned(grad * a)
                return
            # A 1-D operand is a (1, k) row or (k, 1) column; against a
            # batched operand its gradient is summed over the batch axes.
            if a.ndim == 1:
                a_mat = a.reshape(1, -1)
                grad_mat = np.expand_dims(grad, axis=-2)
                if self.requires_grad:
                    ga = grad_mat @ np.swapaxes(b, -1, -2)
                    self._accumulate_owned(_unbroadcast(ga[..., 0, :], self.shape))
                if other.requires_grad:
                    gb = np.swapaxes(a_mat, -1, -2) @ grad_mat
                    other._accumulate_owned(_unbroadcast(gb, other.shape))
                return
            if b.ndim == 1:
                b_mat = b.reshape(-1, 1)
                grad_mat = np.expand_dims(grad, axis=-1)
                if self.requires_grad:
                    ga = grad_mat @ np.swapaxes(b_mat, -1, -2)
                    self._accumulate_owned(_unbroadcast(ga, self.shape))
                if other.requires_grad:
                    gb = np.swapaxes(a, -1, -2) @ grad_mat
                    other._accumulate_owned(_unbroadcast(gb[..., 0], other.shape))
                return
            if self.requires_grad:
                ga = grad @ np.swapaxes(b, -1, -2)
                self._accumulate_owned(_unbroadcast(ga, self.shape))
            if other.requires_grad:
                gb = np.swapaxes(a, -1, -2) @ grad
                other._accumulate_owned(_unbroadcast(gb, other.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------ #
    # Elementwise functions
    # ------------------------------------------------------------------ #
    def exp(self) -> "Tensor":
        value = np.exp(self.data)
        out = self._make_child(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * value)

        out._backward = _backward if out.requires_grad else None
        return out

    def log(self) -> "Tensor":
        out = self._make_child(np.log(self.data), (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad / self.data)

        out._backward = _backward if out.requires_grad else None
        return out

    def sqrt(self) -> "Tensor":
        value = np.sqrt(self.data)
        out = self._make_child(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * 0.5 / value)

        out._backward = _backward if out.requires_grad else None
        return out

    def tanh(self) -> "Tensor":
        value = np.tanh(self.data)
        out = self._make_child(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * (1.0 - value ** 2))

        out._backward = _backward if out.requires_grad else None
        return out

    def sigmoid(self) -> "Tensor":
        value = 1.0 / (1.0 + np.exp(-self.data))
        out = self._make_child(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * value * (1.0 - value))

        out._backward = _backward if out.requires_grad else None
        return out

    def relu(self) -> "Tensor":
        mask = self.data > 0
        out = self._make_child(self.data * mask, (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate_owned(grad * mask)

        out._backward = _backward if out.requires_grad else None
        return out

    def gelu(self) -> "Tensor":
        """Gaussian Error Linear Unit (tanh approximation)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        # 0.5 * x * (1 + tanh(c * (x + 0.044715 * x^3))), evaluated through
        # two buffers with out= ufuncs (the op is memory-bound); x^3 is
        # x * x * x, because np.power with a float base goes through pow().
        t = np.multiply(x, x)
        t *= x
        t *= 0.044715
        t += x
        t *= c
        np.tanh(t, out=t)
        value = 1.0 + t
        value *= x
        value *= 0.5
        out = self._make_child(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            # Two temporaries instead of the ~10 broadcast temporaries of the
            # naive chain.  dvalue = 0.5 * ((1 + t) + x * dt) where
            # dt = (1 - t^2) * c * (1 + 3 * 0.044715 * x^2); ``t`` is the
            # saved forward tanh, nothing is recomputed.
            dinner = np.multiply(x, x)
            dinner *= 3.0 * 0.044715
            dinner += 1.0
            dinner *= c
            dt = np.multiply(t, t)
            np.subtract(1.0, dt, out=dt)
            dt *= dinner
            dt *= x
            dt += t
            dt += 1.0
            dt *= 0.5
            dt *= grad
            self._accumulate_owned(dt)

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------ #
    # Reductions and shape manipulation
    # ------------------------------------------------------------------ #
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        out = self._make_child(self.data.sum(axis=axis, keepdims=keepdims), (self,))

        def _backward(grad: np.ndarray) -> None:
            g = grad
            if axis is not None and not keepdims:
                axes = axis if isinstance(axis, tuple) else (axis,)
                axes = tuple(a % self.ndim for a in axes)
                g = np.expand_dims(g, axis=axes)
            self._accumulate_owned(np.broadcast_to(g, self.shape).copy())

        out._backward = _backward if out.requires_grad else None
        return out

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        """Maximum reduction (gradient flows to the arg-max entries)."""
        value = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make_child(value, (self,))

        def _backward(grad: np.ndarray) -> None:
            if axis is None:
                mask = (self.data == value).astype(self.data.dtype)
                mask /= mask.sum()
                self._accumulate_owned(grad * mask)
                return
            expanded = value if keepdims else np.expand_dims(value, axis=axis)
            g = grad if keepdims else np.expand_dims(grad, axis=axis)
            mask = (self.data == expanded).astype(self.data.dtype)
            mask /= np.maximum(mask.sum(axis=axis, keepdims=True), 1.0)
            self._accumulate_owned(g * mask)

        out._backward = _backward if out.requires_grad else None
        return out

    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make_child(self.data.reshape(shape), (self,))

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        out._backward = _backward if out.requires_grad else None
        return out

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        out = self._make_child(self.data.transpose(axes), (self,))
        inverse = np.argsort(axes)

        def _backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        out._backward = _backward if out.requires_grad else None
        return out

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def swapaxes(self, axis1: int, axis2: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[axis1], axes[axis2] = axes[axis2], axes[axis1]
        return self.transpose(tuple(axes))

    def __getitem__(self, index) -> "Tensor":
        out = self._make_child(self.data[index], (self,))

        def _backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            if _is_basic_index(index):
                # Basic indexing never selects an element twice, so the
                # scatter-add collapses to a plain assignment.
                full[index] = grad
            else:
                np.add.at(full, index, grad)
            self._accumulate_owned(full)

        out._backward = _backward if out.requires_grad else None
        return out

    def take_rows(self, indices: np.ndarray) -> "Tensor":
        """Gather rows (axis 0) by an integer index array of any shape.

        This is the embedding-lookup primitive: ``self`` has shape
        ``(num_rows, dim)`` and the result has shape ``indices.shape + (dim,)``.
        """
        indices = np.asarray(indices, dtype=np.int64)
        out = self._make_child(self.data[indices], (self,))

        def _backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            flat_grad = grad.reshape(-1, self.data.shape[-1])
            _scatter_add_rows(full, indices.reshape(-1), flat_grad)
            self._accumulate_owned(full)

        out._backward = _backward if out.requires_grad else None
        return out

    # ------------------------------------------------------------------ #
    # Construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def randn(*shape, rng: Optional[np.random.Generator] = None,
              scale: float = 1.0, requires_grad: bool = False) -> "Tensor":
        rng = rng or np.random.default_rng()
        return Tensor(rng.standard_normal(shape) * scale, requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [Tensor._ensure_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    requires_grad = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
    if not requires_grad:
        return out
    out._prev = tuple(tensors)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def _backward(grad: np.ndarray) -> None:
        for tensor, start, end in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, end)
            tensor._accumulate(grad[tuple(slicer)])

    out._backward = _backward
    return out


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis with gradient support."""
    tensors = [Tensor._ensure_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)
    requires_grad = _GRAD_ENABLED and any(t.requires_grad for t in tensors)
    out = Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
    if not requires_grad:
        return out
    out._prev = tuple(tensors)

    def _backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    out._backward = _backward
    return out


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Elementwise select: ``condition ? a : b`` with gradient support."""
    if isinstance(a, Tensor) and not isinstance(b, Tensor):
        b = a._coerce(b)
    elif isinstance(b, Tensor) and not isinstance(a, Tensor):
        a = b._coerce(a)
    a = Tensor._ensure_tensor(a)
    b = Tensor._ensure_tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)
    requires_grad = _GRAD_ENABLED and (a.requires_grad or b.requires_grad)
    out = Tensor(data, requires_grad=requires_grad, dtype=data.dtype)
    if not requires_grad:
        return out
    out._prev = (a, b)

    def _backward(grad: np.ndarray) -> None:
        a._accumulate(_unbroadcast(grad * condition, a.shape))
        b._accumulate(_unbroadcast(grad * (~condition), b.shape))

    out._backward = _backward
    return out
