"""Expected calibration error and reliability-diagram bin tables.

``_binned`` is the one confidence binning, over R runs at once: ``ece`` and
``reliability_bins`` run it at R=1, the trainer's validation pass on a stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import _check_count, _whole_numbers, write_csv
from .errors import DimensionError, DomainError

_ROW_SUM_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class ReliabilityBins:
    """Per-bin sample count, mean confidence, and accuracy over n equal-width
    confidence bins ((m-1)/n, m/n], the first closed at 0. Empty bins report
    zero for all three."""

    num_bins: int
    counts: np.ndarray
    mean_confidence: np.ndarray
    accuracy: np.ndarray
    total_samples: int

    def edges(self) -> np.ndarray:
        return np.arange(self.num_bins + 1) / self.num_bins


def _validated(probs, labels) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(probs, dtype=np.float64)
    y = _whole_numbers(labels, "labels")
    if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
        raise DimensionError(f"probs must be a non-empty 2-D matrix, got shape {p.shape}")
    if y.ndim != 1 or y.shape[0] != p.shape[0]:
        raise DimensionError(f"labels must be 1-D with one entry per row of probs")
    # Each check looks at the whole array first and finds the row it names
    # only when it fails. A non-finite entry fails the range check too (NaN
    # compares false), so the non-finite row is looked for only then.
    if not (p.min() >= 0.0 and p.max() <= 1.0 + _ROW_SUM_TOL):
        if not np.isfinite(p).all():
            row = np.nonzero(~np.isfinite(p).all(axis=1))[0][0]
            raise DomainError(f"row {row} of probs has a non-finite entry")
        raise DomainError("probability entries must lie in [0, 1]")
    row_sums = p.sum(axis=1)
    deviation = np.abs(row_sums - 1.0)
    if deviation.max() > _ROW_SUM_TOL:
        row = np.nonzero(deviation > _ROW_SUM_TOL)[0][0]
        raise DomainError(f"row {row} of probs sums to {row_sums[row]!r}, not 1")
    if y.min() < 0 or y.max() >= p.shape[1]:
        raise DomainError(f"labels must lie in [0, {p.shape[1]})")
    return p, y


def _bin_index(confidence: np.ndarray, num_bins: int) -> np.ndarray:
    """The bin of each confidence: m - 1 for (m-1)/n < c <= m/n, with c == 0 in
    the first bin and c > 1 (within the row-sum tolerance) in the last."""
    # searchsorted(left) on the inner edges 1/n .. (n-1)/n counts the edges
    # below c, which is that bin.
    return np.searchsorted(np.arange(1, num_bins) / num_bins, confidence, side="left")


def _binned(p: np.ndarray, y: np.ndarray, num_bins: int) -> tuple[np.ndarray, ...]:
    """From validated (R, n, C) probabilities and (R, n) labels: the (R, n)
    argmax predictions, each run's (R, num_bins) bin counts, mean confidence
    and accuracy, and its ECE, an (R,) array; row r is run r binned alone."""
    count, n, _ = p.shape
    # The argmax is taken once and the confidence read at it: a row's max is
    # that entry, whatever order a max reduction takes.
    predicted = p.argmax(axis=2)
    confidence = np.take_along_axis(p, predicted[:, :, None], axis=2)[:, :, 0]
    # Run r's bins sit at offset r * num_bins of one bincount each.
    idx = (np.arange(count)[:, None] * num_bins + _bin_index(confidence, num_bins)).ravel()
    size, shape = count * num_bins, (count, num_bins)
    counts = np.bincount(idx, minlength=size).reshape(shape)
    conf_sums = np.bincount(idx, weights=confidence.ravel(), minlength=size).reshape(shape)
    correct_sums = np.bincount(idx, weights=(predicted == y).ravel(), minlength=size).reshape(shape)
    nonempty = counts > 0
    mean_conf = np.divide(conf_sums, counts, out=np.zeros(shape), where=nonempty)
    accuracy = np.divide(correct_sums, counts, out=np.zeros(shape), where=nonempty)
    gaps = counts / n * np.abs(accuracy - mean_conf)
    return predicted, counts, mean_conf, accuracy, np.add.reduce(gaps, axis=1)


def _binned_run(probs, labels, num_bins) -> tuple[np.ndarray, ...]:
    """``_binned`` of one checked probability matrix, as a stack of one run."""
    _check_count("num_bins", num_bins)
    p, y = _validated(probs, labels)
    return _binned(p[None], y[None], num_bins)


def reliability_bins(probs, labels, num_bins: int) -> ReliabilityBins:
    """Bin samples by confidence (max predicted probability).

    Parameters
    ----------
    probs : (n_samples, C) matrix of probability rows
    labels : true class ids
    num_bins : number of equal-width bins over (0, 1]

    Ties in the argmax prediction break toward the lowest class index.
    """
    predicted, counts, mean_conf, accuracy, _ = _binned_run(probs, labels, num_bins)
    return ReliabilityBins(num_bins, counts[0], mean_conf[0], accuracy[0], predicted.shape[1])


def ece(probs, labels, num_bins: int) -> float:
    """Expected calibration error: total-count-weighted |accuracy - confidence|.

    Each bin contributes |acc(B) - conf(B)| weighted by the fraction of all
    samples that landed in it, so the result lies in [0, 1].
    """
    *_, eces = _binned_run(probs, labels, num_bins)
    return float(eces[0])


def write_reliability_csv(bins: ReliabilityBins, path) -> None:
    """Export bins as bin_lo,bin_hi,count,mean_conf,accuracy rows, 6 dp."""
    edges = bins.edges().tolist()
    rows = zip(
        edges[:-1],
        edges[1:],
        bins.counts.tolist(),
        bins.mean_confidence.tolist(),
        bins.accuracy.tolist(),
    )
    header = ("bin_lo", "bin_hi", "count", "mean_conf", "accuracy")
    write_csv(path, ("%.6f", "%.6f", "%d", "%.6f", "%.6f"), rows, header)
