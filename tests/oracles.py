"""Per-sample specification of what the trainer computes in batch form.

The package trains through one path: strategy -> C x C target table ->
soft-target cross-entropy over a batch. The definitions below state the same
quantities one sample at a time (softmax, the four strategies' targets and
losses, single-sample accumulation into the confusion tracker and the online
smoother, and the single-sample forward pass), with their argument checks.
Tests compare the batch path against them.

The last section keeps the straightforward forms that faster code in the
package replaced (per-batch accumulation, np.add.at counting, clipped
binning, row-by-row validation, the row-template CSV writer); tests hold the
package to them bit for bit.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from smoothlab import ConfusionTracker, LabeledDataset, ModelParams, OnlineLabelSmoother
from smoothlab.calibration import _ROW_SUM_TOL
from smoothlab.datasets import write_csv
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


def val_loss(probs, labels) -> float:
    """The validation loss of one run: the mean hard cross-entropy of its
    (n, C) probabilities, each sample's floored-log true-class probability
    summed in one reduction and divided by n."""
    n = len(labels)
    val_picks = (np.arange(n), labels)
    return -float(np.add.reduce(_floored_log(probs[val_picks]))) / n


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


# ------------------------------------------ straightforward forms of fast paths


def smoother_update_batch(smoother: OnlineLabelSmoother, labels, probs) -> None:
    """Fold one batch into the smoother's accumulators at once: each row whose
    argmax is its label is added to that label's sum."""
    correct = np.argmax(probs, axis=1) == labels
    if np.any(correct):
        np.add.at(smoother._sums, labels[correct], probs[correct])
        np.add.at(smoother._counts, labels[correct], 1)


def confusion_counts(labels, predictions, num_classes: int) -> np.ndarray:
    """Confusion counts, true x predicted, one np.add.at per sample."""
    confusion = np.zeros((num_classes, num_classes), dtype=np.int64)
    np.add.at(confusion, (labels, predictions), 1)
    return confusion


def bin_index(confidence, num_bins: int) -> np.ndarray:
    """Bin m - 1 for (m-1)/n < c <= m/n over all edges 0, 1/n, .., 1; the clip
    pins c == 0 into the first bin and c > 1 into the last."""
    edges = np.arange(num_bins + 1) / num_bins
    return np.clip(np.searchsorted(edges, confidence, side="left") - 1, 0, num_bins - 1)


def validated(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    """The probability-matrix checks of ``reliability_bins``, each finding its
    offending rows over the whole matrix. Labels of an integer or bool dtype
    convert as numpy converts them; others must each be finite and whole."""
    p = np.asarray(probs, dtype=np.float64)
    raw = np.asarray(labels)
    if raw.dtype.kind not in "biu":
        values = raw.astype(np.float64).ravel().tolist()
        if not all(math.isfinite(v) and v == int(v) for v in values):
            raise DomainError("labels must be finite whole numbers")
    y = raw.astype(np.int64)
    if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
        raise DimensionError(f"probs must be a non-empty 2-D matrix, got shape {p.shape}")
    if y.ndim != 1 or y.shape[0] != p.shape[0]:
        raise DimensionError("labels must be 1-D with one entry per row of probs")
    nonfinite = np.nonzero(~np.isfinite(p).all(axis=1))[0]
    if nonfinite.size:
        raise DomainError(f"row {nonfinite[0]} of probs has a non-finite entry")
    if np.any(p < 0.0) or np.any(p > 1.0 + _ROW_SUM_TOL):
        raise DomainError("probability entries must lie in [0, 1]")
    row_sums = p.sum(axis=1)
    bad = np.nonzero(np.abs(row_sums - 1.0) > _ROW_SUM_TOL)[0]
    if bad.size:
        raise DomainError(f"row {bad[0]} of probs sums to {row_sums[bad[0]]!r}, not 1")
    if np.any(y < 0) or np.any(y >= p.shape[1]):
        raise DomainError(f"labels must lie in [0, {p.shape[1]})")
    return p, y


def save_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset under the CSV contract: header f0..f{d-1},label, one
    row-template line per sample, every value through ``"%.6f"``."""
    header = [f"f{i}" for i in range(ds.n_features)] + ["label"]
    rows = ((*row.tolist(), label) for row, label in zip(ds.features, ds.labels.tolist()))
    write_csv(path, ("%.6f",) * ds.n_features + ("%d",), rows, header)
