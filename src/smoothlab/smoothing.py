"""The four training strategies (hard labels, vanilla smoothing, online
smoothing, confusion-penalty smoothing) and the per-epoch state behind the last
two: the validation confusion tracker and the online-smoothing accumulator.
``TargetStrategy`` owns what each kind takes and which soft-target table it
gives in each epoch; the trainer only feeds it the state its kind reads."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import _check_count, _whole_numbers, write_csv
from .errors import DimensionError, DomainError

# Probabilities are floored before taking logs so a zero prediction yields a
# large finite loss instead of an infinite one.
PROB_FLOOR = 1e-12

# The TargetStrategy fields each kind takes; every other field must be None.
_KIND_FIELDS = {
    "hard": (),
    "vanilla": ("alpha",),
    "ols": ("warmup_epochs",),
    "cpls": ("beta", "warmup_epochs"),
}
STRATEGY_KINDS = tuple(_KIND_FIELDS)


def floored_log(p: np.ndarray) -> np.ndarray:
    """log(max(p, PROB_FLOOR)); keeps every loss in the package finite."""
    return np.log(np.maximum(p, PROB_FLOOR))


@dataclass(frozen=True)
class TargetStrategy:
    """Tagged selection of a target-construction strategy.

    kind          one of "hard", "vanilla", "ols", "cpls"
    alpha         smoothing weight in [0, 1)
    beta          hybrid weight in (0, 1)
    warmup_epochs hard-label epochs before the strategy activates

    A kind takes exactly the fields ``_KIND_FIELDS`` lists for it.
    """

    kind: str
    alpha: float | None = None
    beta: float | None = None
    warmup_epochs: int | None = None

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise DomainError(f"unknown strategy kind {self.kind!r}, expected one of {STRATEGY_KINDS}")
        for name in ("alpha", "beta", "warmup_epochs"):
            needed = name in _KIND_FIELDS[self.kind]
            if needed != (getattr(self, name) is not None):
                raise DomainError(
                    f"{name} is {'required' if needed else 'not allowed'} for kind {self.kind!r}"
                )
        if self.alpha is not None and not (0.0 <= self.alpha < 1.0):
            raise DomainError(f"alpha must be in [0, 1), got {self.alpha}")
        if self.beta is not None and not (0.0 < self.beta < 1.0):
            raise DomainError(f"beta must be in (0, 1), got {self.beta}")
        if self.warmup_epochs is not None:
            _check_count("warmup_epochs", self.warmup_epochs, least=0)

    def phase(self, epoch: int) -> str:
        """"hybrid" once a warmup strategy has passed its threshold, else "warmup"."""
        if self.warmup_epochs is not None and epoch > self.warmup_epochs:
            return "hybrid"
        return "warmup"

    def table(
        self,
        num_classes: int,
        epoch: int,
        tracker: ConfusionTracker | None,
        smoother: OnlineLabelSmoother | None,
    ) -> np.ndarray:
        """The C x C soft-target table of ``epoch``: row y is the target for
        label y. Only cpls reads ``tracker`` and only ols reads ``smoother``;
        a kind may pass None for the state it does not read."""
        identity = np.eye(num_classes)
        if self.kind == "vanilla":
            # row y is (1 - alpha) * one_hot(y) + alpha / C
            table = np.full((num_classes, num_classes), self.alpha / num_classes)
            table += (1.0 - self.alpha) * identity
            return table
        if self.phase(epoch) == "warmup":  # hard never leaves its warmup
            return identity
        if self.kind == "cpls":
            # Additive mixing form: exactly the identity table when the tracker is
            # still the identity, for any beta.
            return identity + (1.0 - self.beta) * (tracker.normalized - identity)
        return smoother.targets.copy()


def _row_means(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Row i of ``sums`` divided by ``counts[i]``; a row with a zero count is
    the identity row, so an unseen class keeps its hard target."""
    seen = counts > 0
    return np.divide(sums, counts[:, None], out=np.eye(counts.shape[0]), where=seen[:, None])


class ConfusionTracker:
    """Per-epoch confusion counts over validation data and their row-normalized
    form, which doubles as the soft-target table for confusion-penalty smoothing.

    ``normalized`` starts as the identity so the first epochs behave exactly
    like hard-label training; ``normalize()`` folds the accumulated counts into
    a fresh row-stochastic matrix and resets the counts.
    Rows that saw no samples fall back to their identity row.
    """

    def __init__(self, num_classes: int):
        _check_count("num_classes", num_classes, least=2)
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)
        self.normalized = np.eye(num_classes)

    def accumulate_counts(self, counts: np.ndarray) -> "ConfusionTracker":
        """Add a whole count matrix (e.g. one validation pass) at once; its
        entries must be non-negative whole numbers."""
        c = np.asarray(counts)
        if c.shape != self.counts.shape:
            raise DimensionError(f"expected counts of shape {self.counts.shape}, got {c.shape}")
        c = _whole_numbers(c, "confusion counts")
        if c.min() < 0:
            raise DomainError("confusion counts must be non-negative")
        self.counts += c
        return self

    def normalize(self) -> "ConfusionTracker":
        self.normalized = _row_means(self.counts, self.counts.sum(axis=1))
        self.counts = np.zeros_like(self.counts)
        return self


class OnlineLabelSmoother:
    """Baseline that accumulates the model's correct predictions per class.

    ``update_batch`` adds every probability vector whose argmax equals its
    label to that class's accumulator; ``advance_epoch()`` turns the per-class
    means into the target table used throughout the next epoch and resets the
    accumulators. Classes with no correct predictions keep their identity row.
    """

    def __init__(self, num_classes: int):
        _check_count("num_classes", num_classes, least=2)
        self.num_classes = num_classes
        self.targets = np.eye(num_classes)
        self._sums = np.zeros((num_classes, num_classes))
        self._counts = np.zeros(num_classes, dtype=np.int64)

    def update_batch(self, labels: np.ndarray, probs: np.ndarray) -> None:
        """Fold (n,) labels and their (n, C) probabilities into the epoch's
        accumulators; neither array is kept."""
        correct = np.argmax(probs, axis=1) == labels
        # add.at adds the rows in index order, so the sums of one call over an
        # epoch are those of one call per batch.
        np.add.at(self._sums, labels[correct], probs[correct])
        self._counts += np.bincount(labels[correct], minlength=self.num_classes)

    def advance_epoch(self) -> None:
        self.targets = _row_means(self._sums, self._counts)
        self._sums = np.zeros_like(self._sums)
        self._counts = np.zeros_like(self._counts)


def write_confusion_csv(history: np.ndarray, path) -> None:
    """Write the normalized confusion tables of epochs 1..E, an (E, C, C)
    stack, as one row per (epoch, true class) in that order under the header
    ``epoch,true_class,p0,...,p{C-1}``, probabilities at 6 dp."""
    h = np.asarray(history, dtype=np.float64)
    if h.ndim != 3 or h.size == 0 or h.shape[1] != h.shape[2]:
        raise DimensionError(f"expected a non-empty (epochs, C, C) stack, got shape {h.shape}")
    rows = (
        (epoch, true_class, *row)
        for epoch, table in enumerate(h.tolist(), start=1)
        for true_class, row in enumerate(table)
    )
    header = ("epoch", "true_class", *(f"p{j}" for j in range(h.shape[2])))
    write_csv(path, ("%d", "%d") + ("%.6f",) * h.shape[2], rows, header)
