"""Dense numeric kernels for the classifier: stable softmax family, affine
maps, the analytic cross-entropy gradient, and the finite-difference oracle
used to check it. Everything is float64 and deterministic."""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError, DomainError, NumericError


def _as_vector(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError(f"{name} contains non-finite entries")
    return v


def softmax(logits) -> np.ndarray:
    """Probability vector exp(v) / sum(exp(v)), computed with max subtraction."""
    v = _as_vector(logits, "logits")
    e = np.exp(v - v.max())
    return e / e.sum()


def log_softmax(logits) -> np.ndarray:
    """log(softmax(v)), computed directly so large magnitudes cannot hit -inf."""
    v = _as_vector(logits, "logits")
    shifted = v - v.max()
    return shifted - np.log(np.exp(shifted).sum())


def softmax_rows(z: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax of a 2-D array."""
    z = np.array(z, dtype=np.float64)  # a copy: the softmax overwrites it
    if z.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got shape {z.shape}")
    return softmax_rows_inplace(z)


def softmax_rows_inplace(z: np.ndarray) -> np.ndarray:
    """Overwrite a 2-D float64 array with its row-wise stable softmax; returns it."""
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
    return z


def affine_forward(weights, bias, x) -> np.ndarray:
    """W @ x + b for a single input vector."""
    w = np.asarray(weights, dtype=np.float64)
    b = _as_vector(bias, "bias")
    v = _as_vector(x, "x")
    if w.ndim != 2:
        raise DimensionError(f"weights must be 2-D, got shape {w.shape}")
    if w.shape[1] != v.size or w.shape[0] != b.size:
        raise DimensionError(
            f"incompatible shapes: weights {w.shape}, bias ({b.size},), x ({v.size},)"
        )
    return w @ v + b


def ce_softmax_gradient(p, target) -> np.ndarray:
    """Gradient of -sum(target * log softmax(z)) w.r.t. the logits z.

    Evaluated at the point where softmax(z) = p, the gradient collapses to
    p - target, which is what this returns.
    """
    pv = _as_vector(p, "p")
    tv = _as_vector(target, "target")
    if pv.size != tv.size:
        raise DimensionError(f"length mismatch: p has {pv.size} entries, target has {tv.size}")
    return pv - tv


def finite_difference_gradient(
    loss_fn: Callable[[np.ndarray], float], x, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient (f(x + h e_i) - f(x - h e_i)) / 2h per coordinate."""
    if h <= 0:
        raise DomainError(f"step size must be positive, got {h}")
    v = _as_vector(x, "x")
    grad = np.empty_like(v)
    for i in range(v.size):
        step = np.zeros_like(v)
        step[i] = h
        f_plus = float(loss_fn(v + step))
        f_minus = float(loss_fn(v - step))
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise NumericError(f"loss function returned a non-finite value near coordinate {i}")
        grad[i] = (f_plus - f_minus) / (2.0 * h)
    return grad
