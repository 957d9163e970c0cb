"""Expected calibration error and reliability-diagram bin tables."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datasets import write_csv
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
    y = np.asarray(labels, dtype=np.int64)
    if p.ndim != 2 or p.shape[0] == 0 or p.shape[1] == 0:
        raise DimensionError(f"probs must be a non-empty 2-D matrix, got shape {p.shape}")
    if y.ndim != 1 or y.shape[0] != p.shape[0]:
        raise DimensionError(f"labels must be 1-D with one entry per row of probs")
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


def reliability_bins(probs, labels, num_bins: int) -> ReliabilityBins:
    """Bin samples by confidence (max predicted probability).

    Parameters
    ----------
    probs : (n_samples, C) matrix of probability rows
    labels : true class ids
    num_bins : number of equal-width bins over (0, 1]

    Ties in the argmax prediction break toward the lowest class index.
    """
    if num_bins < 1:
        raise DomainError(f"num_bins must be >= 1, got {num_bins}")
    p, y = _validated(probs, labels)
    confidence = p.max(axis=1)
    predictions = p.argmax(axis=1)
    correct = (predictions == y).astype(np.float64)

    edges = np.arange(num_bins + 1) / num_bins
    # searchsorted(left) puts confidence c in the bin with (m-1)/n < c <= m/n;
    # the clip pins c == 0 into the first bin.
    idx = np.clip(np.searchsorted(edges, confidence, side="left") - 1, 0, num_bins - 1)

    counts = np.bincount(idx, minlength=num_bins)
    conf_sums = np.bincount(idx, weights=confidence, minlength=num_bins)
    correct_sums = np.bincount(idx, weights=correct, minlength=num_bins)
    nonempty = counts > 0
    mean_conf = np.zeros(num_bins)
    accuracy = np.zeros(num_bins)
    mean_conf[nonempty] = conf_sums[nonempty] / counts[nonempty]
    accuracy[nonempty] = correct_sums[nonempty] / counts[nonempty]
    return ReliabilityBins(
        num_bins=num_bins,
        counts=counts,
        mean_confidence=mean_conf,
        accuracy=accuracy,
        total_samples=p.shape[0],
    )


def ece(probs, labels, num_bins: int = 10) -> float:
    """Expected calibration error: total-count-weighted |accuracy - confidence|.

    Each bin contributes |acc(B) - conf(B)| weighted by the fraction of all
    samples that landed in it, so the result lies in [0, 1].
    """
    bins = reliability_bins(probs, labels, num_bins)
    weights = bins.counts / bins.total_samples
    return float(np.sum(weights * np.abs(bins.accuracy - bins.mean_confidence)))


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
