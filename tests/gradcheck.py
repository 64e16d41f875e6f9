"""Central-difference gradient oracle shared by the ``repro.nn`` tests.

Every op's analytic backward is checked against float64 central
differences, an oracle that does not share code with the kernels it checks.
Test modules under ``tests/`` import it as ``from gradcheck import ...``
(pytest puts ``tests/`` on ``sys.path``; the directory is not a package).
"""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor


def numerical_gradient(func, values: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array.

    ``values`` is perturbed in place, one entry at a time, and restored;
    ``func(values)`` is evaluated after each perturbation, so ``values`` may
    also be a parameter's storage that ``func`` reads without taking it as
    an argument.
    """
    grad = np.zeros_like(values, dtype=np.float64)
    flat = values.reshape(-1)  # a view: edits reach ``values``
    grad_flat = grad.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + eps
        upper = func(values)
        flat[index] = original - eps
        lower = func(values)
        flat[index] = original
        grad_flat[index] = (upper - lower) / (2 * eps)
    return grad


def check_gradient(build, *values: np.ndarray, atol: float = 1e-5,
                   rtol: float = 1e-4) -> None:
    """Compare autograd and numerical gradients of ``build(*tensors) -> scalar``.

    One float64 tensor is made per array in ``values``; the gradient with
    respect to each is checked against central differences.
    """
    tensors = [Tensor(np.array(v, dtype=np.float64), requires_grad=True)
               for v in values]
    build(*tensors).backward()
    points = [np.array(v, dtype=np.float64) for v in values]

    def scalar(_) -> float:
        return float(build(*[Tensor(point) for point in points]).data)

    for position, (tensor, point) in enumerate(zip(tensors, points)):
        assert tensor.grad is not None, f"no gradient for input {position}"
        np.testing.assert_allclose(
            tensor.grad, numerical_gradient(scalar, point), atol=atol,
            rtol=rtol, err_msg=f"gradient of input {position}")
