"""Per-sample specification of what the trainer computes in batch form.

The package trains through one path: strategy -> C x C target table ->
soft-target cross-entropy over a batch. The definitions below state the same
quantities one sample at a time (softmax, the four strategies' targets and
losses, single-sample accumulation into the confusion tracker and the online
smoother, and the single-sample forward pass), with their argument checks.
Tests compare the batch path against them.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from smoothlab import ConfusionTracker, ModelParams, OnlineLabelSmoother
from smoothlab.errors import DimensionError, DomainError, NumericError
from smoothlab.trainer import softmax_rows_inplace

# Probabilities are floored before taking logs so a zero prediction yields a
# large finite loss instead of an infinite one.
PROB_FLOOR = 1e-12


# ------------------------------------------------------------ numeric kernels


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


def softmax_rows(z) -> np.ndarray:
    """The trainer's in-place row softmax, applied to a copy of a 2-D array."""
    z = np.array(z, dtype=np.float64)
    if z.ndim != 2:
        raise DimensionError(f"expected a 2-D array, got shape {z.shape}")
    return softmax_rows_inplace(z)


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


def forward(params: ModelParams, x) -> tuple[np.ndarray, list[np.ndarray]]:
    """Single-sample forward pass; returns the logits and every hidden activation."""
    h = np.asarray(x, dtype=np.float64)
    if h.ndim != 1 or h.size != params.input_dim:
        raise DimensionError(f"expected input of length {params.input_dim}, got shape {h.shape}")
    hidden: list[np.ndarray] = []
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.maximum(affine_forward(w, b, h), 0.0)
        hidden.append(h)
    logits = affine_forward(params.weights[-1], params.biases[-1], h)
    return logits, hidden


# ------------------------------------------------------- targets and losses


def _check_class_id(y: int, num_classes: int) -> int:
    y = int(y)
    if not 0 <= y < num_classes:
        raise DomainError(f"class id {y} out of range [0, {num_classes})")
    return y


def _as_prob_vector(p, name: str) -> np.ndarray:
    v = np.asarray(p, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise DimensionError(f"{name} must be a non-empty 1-D vector, got shape {v.shape}")
    return v


def _floored_log(p) -> np.ndarray:
    return np.log(np.maximum(p, PROB_FLOOR))


def hard_target(y: int, num_classes: int) -> np.ndarray:
    """One-hot target vector for class y."""
    y = _check_class_id(y, num_classes)
    t = np.zeros(num_classes)
    t[y] = 1.0
    return t


def vanilla_ls_target(y: int, alpha: float, num_classes: int) -> np.ndarray:
    """Smoothed target (1 - alpha) * one_hot(y) + alpha / C per entry."""
    if not (0.0 <= alpha < 1.0):
        raise DomainError(f"alpha must be in [0, 1), got {alpha}")
    y = _check_class_id(y, num_classes)
    t = np.full(num_classes, alpha / num_classes)
    t[y] += 1.0 - alpha
    return t


def hard_ce(p, y: int) -> float:
    """-log p[y], the per-sample cross-entropy against a hard label."""
    pv = _as_prob_vector(p, "p")
    y = _check_class_id(y, pv.size)
    return float(-_floored_log(pv[y]))


def soft_ce(p, target) -> float:
    """-sum_c target[c] * log p[c] for an arbitrary soft target."""
    pv = _as_prob_vector(p, "p")
    tv = _as_prob_vector(target, "target")
    if pv.size != tv.size:
        raise DimensionError(f"length mismatch: p has {pv.size} entries, target has {tv.size}")
    return float(-(tv @ _floored_log(pv)))


def cpls_ce(p, tracker: ConfusionTracker, y: int) -> float:
    """Cross-entropy of p against the tracker's normalized row for class y."""
    return soft_ce(p, tracker_row(tracker, y))


def hybrid_loss(p, y: int, tracker: ConfusionTracker, beta: float) -> float:
    """beta * hard_ce + (1 - beta) * cpls_ce.

    beta is nominally in (0, 1); the endpoints are accepted and short-circuit
    to the corresponding pure loss so they are exact.
    """
    if not (0.0 <= beta <= 1.0):
        raise DomainError(f"beta must be in [0, 1], got {beta}")
    if beta == 1.0:
        return hard_ce(p, y)
    if beta == 0.0:
        return cpls_ce(p, tracker, y)
    return beta * hard_ce(p, y) + (1.0 - beta) * cpls_ce(p, tracker, y)


# ------------------------------------------- single-sample accumulator steps


def accumulate(tracker: ConfusionTracker, true_class: int, predicted_class: int) -> None:
    """Count one validation sample into the tracker's confusion counts."""
    t = _check_class_id(true_class, tracker.num_classes)
    p = _check_class_id(predicted_class, tracker.num_classes)
    tracker.counts[t, p] += 1


def tracker_row(tracker: ConfusionTracker, y: int) -> np.ndarray:
    """The normalized confusion row for class y."""
    return tracker.normalized[_check_class_id(y, tracker.num_classes)]


def smoother_update(smoother: OnlineLabelSmoother, p, y: int) -> None:
    """Add p to class y's accumulator when its argmax is y."""
    pv = _as_prob_vector(p, "p")
    y = _check_class_id(y, smoother.num_classes)
    if pv.size != smoother.num_classes:
        raise DimensionError(f"expected {smoother.num_classes} probabilities, got {pv.size}")
    if int(np.argmax(pv)) == y:
        smoother._sums[y] += pv
        smoother._counts[y] += 1


def smoother_target(smoother: OnlineLabelSmoother, y: int) -> np.ndarray:
    """The online-smoothing target served for class y this epoch."""
    return smoother.targets[_check_class_id(y, smoother.num_classes)]
