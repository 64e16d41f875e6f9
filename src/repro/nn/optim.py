"""Optimisers for the ``repro.nn`` substrate.

The paper trains every model with Adam and optionally L2 weight decay (the
hyper-parameter grid tunes weight decay in {0, 1e-4, 1e-6}).

:class:`Adam` has one update kernel, and it works **in place**:
``param.data`` and the moment buffers are mutated with ``out=`` ufuncs
through per-parameter scratch buffers, so a step allocates nothing after the
first call.  The in-place contract matters to callers: ``param.data`` keeps
its identity across steps, so views/aliases of the array observe the update.
``tests/`` checks the step bit for bit against the closed-form Adam update
written in numpy.
"""

from __future__ import annotations

from typing import Iterable, List, Optional

import numpy as np

from .module import Parameter


class Optimizer:
    """Base class holding a parameter list."""

    def __init__(self, parameters: Iterable[Parameter]):
        self.parameters: List[Parameter] = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received no parameters")

    def zero_grad(self) -> None:
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError


class Adam(Optimizer):
    """Adam optimiser (Kingma & Ba, 2015) with decoupled-style L2 weight decay.

    Weight decay is applied as a classic L2 penalty added to the gradient,
    matching the behaviour of ``torch.optim.Adam(weight_decay=...)`` that
    RecBole (and therefore the paper) uses.

    The step updates ``param.data``, ``_m`` and ``_v`` in place through two
    scratch buffers instead of allocating ~6 temporaries per parameter.
    """

    def __init__(self, parameters: Iterable[Parameter], lr: float = 1e-3,
                 betas: tuple = (0.9, 0.999), eps: float = 1e-8,
                 weight_decay: float = 0.0):
        super().__init__(parameters)
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]
        self._scratch: List[Optional[np.ndarray]] = [None] * len(self.parameters)
        self._scratch2: List[Optional[np.ndarray]] = [None] * len(self.parameters)

    def step(self) -> None:
        self._step += 1
        bias_correction1 = 1.0 - self.beta1 ** self._step
        bias_correction2 = 1.0 - self.beta2 ** self._step
        for index, param in enumerate(self.parameters):
            if param.grad is None:
                continue
            buf = self._scratch[index]
            buf2 = self._scratch2[index]
            if buf is None:
                buf = self._scratch[index] = np.empty_like(param.data)
                buf2 = self._scratch2[index] = np.empty_like(param.data)
            grad = param.grad
            if self.weight_decay:
                # buf2 holds the decayed gradient until the moments are done.
                np.multiply(param.data, self.weight_decay, out=buf2)
                buf2 += grad
                grad = buf2
            m, v = self._m[index], self._v[index]
            m *= self.beta1
            np.multiply(grad, 1.0 - self.beta1, out=buf)
            m += buf
            v *= self.beta2
            np.multiply(grad, grad, out=buf)
            buf *= 1.0 - self.beta2
            v += buf
            # update = lr * (m / bc1) / (sqrt(v / bc2) + eps), in this
            # operation order.
            np.divide(v, bias_correction2, out=buf2)
            np.sqrt(buf2, out=buf2)
            buf2 += self.eps
            np.divide(m, bias_correction1, out=buf)
            buf *= self.lr
            buf /= buf2
            param.data -= buf


def clip_grad_norm(parameters: Iterable[Parameter], max_norm: float) -> float:
    """Clip gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm, mirroring the torch utility.  The global
    norm is computed in a single fused pass (one BLAS dot per parameter, no
    ``grad ** 2`` temporaries) and the scaling mutates ``param.grad`` in
    place rather than rebinding it.
    """
    parameters = [p for p in parameters if p.grad is not None]
    if not parameters:
        return 0.0
    total_sq = 0.0
    for param in parameters:
        flat = param.grad.reshape(-1)
        total_sq += float(np.dot(flat, flat))
    total = float(np.sqrt(total_sq))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for param in parameters:
            np.multiply(param.grad, scale, out=param.grad)
    return total
