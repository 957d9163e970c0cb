"""The four training strategies (hard labels, vanilla smoothing, online
smoothing, confusion-penalty smoothing) and the per-epoch state behind the last
two: the validation confusion tracker and the online-smoothing accumulator.
The trainer folds them into one soft-target table per epoch."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import write_csv
from .errors import DimensionError, DomainError

# Probabilities are floored before taking logs so a zero prediction yields a
# large finite loss instead of an infinite one.
PROB_FLOOR = 1e-12

STRATEGY_KINDS = ("hard", "vanilla", "ols", "cpls")


def floored_log(p: np.ndarray) -> np.ndarray:
    """log(max(p, PROB_FLOOR)); keeps every loss in the package finite."""
    return np.log(np.maximum(p, PROB_FLOOR))


@dataclass(frozen=True)
class TargetStrategy:
    """Tagged selection of a target-construction strategy.

    kind          one of "hard", "vanilla", "ols", "cpls"
    alpha         smoothing weight in [0, 1); vanilla only
    beta          hybrid weight in (0, 1); cpls only
    warmup_epochs hard-label epochs before the strategy activates; cpls and ols
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    warmup_epochs: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise DomainError(f"unknown strategy kind {self.kind!r}, expected one of {STRATEGY_KINDS}")
        needs_alpha = self.kind == "vanilla"
        needs_beta = self.kind == "cpls"
        needs_warmup = self.kind in ("cpls", "ols")
        if needs_alpha != (self.alpha is not None):
            raise DomainError(f"alpha is {'required' if needs_alpha else 'not allowed'} for kind {self.kind!r}")
        if needs_beta != (self.beta is not None):
            raise DomainError(f"beta is {'required' if needs_beta else 'not allowed'} for kind {self.kind!r}")
        if needs_warmup != (self.warmup_epochs is not None):
            raise DomainError(
                f"warmup_epochs is {'required' if needs_warmup else 'not allowed'} for kind {self.kind!r}"
            )
        if self.alpha is not None and not (0.0 <= self.alpha < 1.0):
            raise DomainError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.beta is not None and not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must be in (0, 1), got {self.beta}")
        if self.warmup_epochs is not None and self.warmup_epochs < 0:
            raise DomainError(f"warmup_epochs must be >= 0, got {self.warmup_epochs}")

    @classmethod
    def hard(cls) -> "TargetStrategy":
        return cls("hard")

    @classmethod
    def vanilla(cls, alpha: float = 0.1) -> "TargetStrategy":
        return cls("vanilla", alpha=alpha)

    @classmethod
    def ols(cls, warmup_epochs: int = 5) -> "TargetStrategy":
        return cls("ols", warmup_epochs=warmup_epochs)

    @classmethod
    def cpls(cls, beta: float = 0.5, warmup_epochs: int = 5) -> "TargetStrategy":
        return cls("cpls", beta=beta, warmup_epochs=warmup_epochs)


def _row_means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of ``sums`` divided by ``counts[i]``; a row with a zero count is
    the identity row, so an unseen class keeps its hard target."""
    means = np.eye(counts.shape[0])
    seen = counts > 0
    means[seen] = sums[seen] / counts[seen, None]
    return means


class ConfusionTracker:
    """Per-epoch confusion counts over validation data and their row-normalized
    form, which doubles as the soft-target table for confusion-penalty smoothing.

    ``normalized`` starts as the identity so the first epochs behave exactly
    like hard-label training; ``normalize()`` folds the accumulated counts into
    a fresh row-stochastic matrix, resets the counts, and bumps ``epoch_tag``.
    Rows that saw no samples fall back to their identity row.
    """

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise DomainError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.normalized = np.eye(num_classes)
        self.epoch_tag = 0

    def accumulate_counts(self, counts: np.ndarray) -> "ConfusionTracker":
        """Add a whole count matrix (e.g. one validation pass) at once."""
        c = np.asarray(counts)
        if c.shape != self.counts.shape:
            raise DimensionError(f"expected counts of shape {self.counts.shape}, got {c.shape}")
        if np.any(c < 0):
            raise DomainError("confusion counts must be non-negative")
        self.counts += c.astype(np.int64)
        return self

    def normalize(self) -> "ConfusionTracker":
        self.normalized = _row_means(self.counts, self.counts.sum(axis=1))
        self.counts = np.zeros_like(self.counts)
        self.epoch_tag += 1
        return self


class OnlineLabelSmoother:
    """Baseline that accumulates the model's correct predictions per class.

    During an epoch, every probability vector whose argmax equals its label is
    added to that class's accumulator. ``advance_epoch()`` turns the per-class
    means into the target table used throughout the next epoch; classes with
    no correct predictions keep their identity row.
    """

    def __init__(self, num_classes: int):
        if num_classes < 2:
            raise DomainError(f"num_classes must be >= 2, got {num_classes}")
        self.num_classes = num_classes
        self.targets = np.eye(num_classes)
        self._sums = np.zeros((num_classes, num_classes))
        self._counts = np.zeros(num_classes, dtype=np.int64)

    def update_batch(self, labels: np.ndarray, probs: np.ndarray) -> None:
        preds = np.argmax(probs, axis=1)
        correct = preds == labels
        if np.any(correct):
            np.add.at(self._sums, labels[correct], probs[correct])
            np.add.at(self._counts, labels[correct], 1)

    def advance_epoch(self) -> None:
        self.targets = _row_means(self._sums, self._counts)
        self._sums = np.zeros_like(self._sums)
        self._counts = np.zeros_like(self._counts)


def write_confusion_csv(matrix: np.ndarray, path) -> None:
    """Snapshot a normalized confusion matrix as C rows x C columns, 6 dp."""
    m = np.asarray(matrix, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"expected a square matrix, got shape {m.shape}")
    write_csv(path, ("%.6f",) * m.shape[1], map(tuple, m.tolist()))
