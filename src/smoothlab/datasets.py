"""Synthetic Gaussian-blob datasets with overlapping class pairs, feature-CSV
ingestion, and the stratified train/validation/test split."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, ParseError

# Reps of the overlap components are laid out eight spreads apart along the
# first axis, so a pair's one-spread offset keeps every other pair of centers
# at least six spreads apart.
_REP_SPACING = 8.0


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (n_samples x n_features) with 0-based integer labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = np.asarray(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DimensionError(
                f"labels must be 1-D with one entry per sample: "
                f"{labels.shape} labels vs {feats.shape[0]} rows"
            )
        if self.num_classes < 2:
            raise DomainError(f"num_classes must be >= 2, got {self.num_classes}")
        if labels.size and (labels.min() < 0 or labels.max() >= self.num_classes):
            raise DomainError(
                f"labels must lie in [0, {self.num_classes}), "
                f"got range [{labels.min()}, {labels.max()}]"
            )
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class BlobSpec:
    """Geometry of a synthetic Gaussian-blob classification problem.

    ``overlap_pairs`` lists class pairs whose centers sit exactly one
    ``spread`` apart; every other pair of centers is at least six spreads
    apart, so only the listed pairs confuse a sane classifier. A class may
    belong to at most one pair: a class in two pairs would force two
    supposedly-far classes within two spreads of each other.
    """

    num_classes: int
    samples_per_class: int
    dimension: int = 2
    spread: float = 1.0
    overlap_pairs: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        if self.num_classes < 2:
            raise DomainError(f"num_classes must be >= 2, got {self.num_classes}")
        if self.samples_per_class < 1:
            raise DomainError(f"samples_per_class must be >= 1, got {self.samples_per_class}")
        if self.dimension < 1:
            raise DomainError(f"dimension must be >= 1, got {self.dimension}")
        if not (0 < self.spread < math.inf):
            raise DomainError(f"spread must be positive and finite, got {self.spread}")
        pairs = tuple((int(a), int(b)) for a, b in self.overlap_pairs)
        paired: set[int] = set()
        for a, b in pairs:
            if not (0 <= a < self.num_classes and 0 <= b < self.num_classes) or a == b:
                raise DomainError(f"overlap pair ({a}, {b}) must name two distinct valid classes")
            if a in paired or b in paired:
                culprit = a if a in paired else b
                raise ConfigError(
                    f"infeasible geometry: class {culprit} appears in multiple overlap pairs"
                )
            paired.update((a, b))
        object.__setattr__(self, "overlap_pairs", pairs)

    @property
    def class_centers(self) -> np.ndarray:
        """(num_classes, dimension) centers, derived from the other fields.

        Classes are placed in index order, one component at a time, eight
        spreads apart along the first axis; a class's overlap mate joins its
        component one spread away along the second axis (the first in 1-D).
        """
        mate = {a: b for a, b in self.overlap_pairs} | {b: a for a, b in self.overlap_pairs}
        centers = np.zeros((self.num_classes, self.dimension))
        offset_axis = 1 if self.dimension >= 2 else 0
        placed: set[int] = set()
        component = 0
        for c in range(self.num_classes):
            if c in placed:
                continue
            centers[c, 0] = _REP_SPACING * self.spread * component
            if c in mate:
                centers[mate[c]] = centers[c]
                centers[mate[c], offset_axis] += self.spread
                placed.add(mate[c])
            component += 1
        return centers


@dataclass(frozen=True)
class SplitSpec:
    """Train/validation/test fractions; each in (0, 1) and summing to 1."""

    train_fraction: float
    val_fraction: float
    test_fraction: float

    def __post_init__(self):
        for name, frac in (
            ("train_fraction", self.train_fraction),
            ("val_fraction", self.val_fraction),
            ("test_fraction", self.test_fraction),
        ):
            if not (0.0 < frac < 1.0):
                raise DomainError(f"{name} must be in (0, 1), got {frac}")
        total = self.train_fraction + self.val_fraction + self.test_fraction
        if abs(total - 1.0) > 1e-12:
            raise DomainError(f"split fractions must sum to 1, got {total!r}")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)


def generate_confusable_blobs(spec: BlobSpec, seed: int) -> LabeledDataset:
    """Draw samples_per_class isotropic Gaussian samples around each center.

    Deterministic for a given seed; class c occupies the contiguous block
    [c * samples_per_class, (c+1) * samples_per_class).
    """
    rng = np.random.default_rng(seed)
    centers = spec.class_centers
    blocks = [
        rng.normal(centers[c], spec.spread, size=(spec.samples_per_class, spec.dimension))
        for c in range(spec.num_classes)
    ]
    features = np.vstack(blocks)
    labels = np.repeat(np.arange(spec.num_classes), spec.samples_per_class)
    return LabeledDataset(features, labels, spec.num_classes)


def _apportion(n: int, fractions: tuple[float, float, float]) -> list[int]:
    # Largest-remainder apportionment keeps every split within one sample of
    # its quota; remainder ties go to the earlier split (train first).
    quotas = [f * n for f in fractions]
    base = [math.floor(q) for q in quotas]
    leftover = n - sum(base)
    order = sorted(range(len(base)), key=lambda i: (-(quotas[i] - base[i]), i))
    for i in order[:leftover]:
        base[i] += 1
    return base


def stratified_split(
    ds: LabeledDataset, spec: SplitSpec, seed: int
) -> tuple[LabeledDataset, LabeledDataset, LabeledDataset]:
    """Per-class split of a dataset into train/val/test under the given fractions.

    Every class is apportioned independently so class balance survives the
    split; within a class, membership is decided by a seeded shuffle.
    """
    rng = np.random.default_rng(seed)
    picks: tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]] = ([], [], [])
    for c in range(ds.num_classes):
        cls_idx = np.nonzero(ds.labels == c)[0]
        if cls_idx.size < 3:
            raise ConfigError(
                f"class {c} has {cls_idx.size} samples; need at least 3 to split"
            )
        perm = rng.permutation(cls_idx)
        counts = _apportion(cls_idx.size, spec.fractions)
        start = 0
        for part, count in zip(picks, counts):
            part.append(perm[start : start + count])
            start += count
    splits = []
    for part in picks:
        idx = np.sort(np.concatenate(part))
        splits.append(LabeledDataset(ds.features[idx], ds.labels[idx], ds.num_classes))
    return splits[0], splits[1], splits[2]


def write_csv(path, cells, rows, header=None) -> None:
    """Write the one artifact CSV format: UTF-8, comma-joined cells, every line
    (the optional header included) ending in LF.

    ``cells`` holds one %-conversion per column (``"%.6f"`` for a 6 dp float,
    ``"%d"`` for an integer, ``"%s"`` for text); each row is a tuple of Python
    scalars formatted by the one line template they make. Rows are streamed,
    never joined into one string."""
    if header is not None and len(header) != len(cells):
        raise DimensionError(f"{len(header)} header fields for {len(cells)} columns")
    line = ",".join(cells) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in rows)


def save_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset under the CSV contract: header f0..f{d-1},label, 6 dp."""
    header = [f"f{i}" for i in range(ds.n_features)] + ["label"]
    # Formatting Python floats is faster than numpy scalars; converting row by
    # row keeps the whole matrix from being copied into Python objects at once.
    rows = ((*row.tolist(), label) for row, label in zip(ds.features, ds.labels.tolist()))
    write_csv(path, ("%.6f",) * ds.n_features + ("%d",), rows, header)


def load_csv(path) -> LabeledDataset:
    """Parse a feature CSV (header f0..f{d-1},label) into a LabeledDataset.

    The class count is 1 + max(label). Parse failures report the 1-based file
    row that caused them.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise ParseError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    d = len(header) - 1
    if d < 1 or header[-1] != "label" or any(header[i] != f"f{i}" for i in range(d)):
        raise ParseError(f"{path}: malformed header {lines[0]!r}, expected f0,..,f{{d-1}},label")
    data_lines = lines[1:]
    if not data_lines:
        raise ParseError(f"{path}: no data rows")
    features = np.empty((len(data_lines), d), dtype=np.float64)
    labels = np.empty(len(data_lines), dtype=np.int64)
    for i, line in enumerate(data_lines):
        row_no = i + 2  # 1-based, counting the header
        cells = line.split(",")
        if len(cells) != d + 1:
            raise ParseError(f"{path}: row {row_no}: expected {d + 1} fields, got {len(cells)}")
        for j in range(d):
            try:
                value = float(cells[j])
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}: non-numeric feature value {cells[j]!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: row {row_no}: non-finite feature value {cells[j]!r}")
            features[i, j] = value
        try:
            label = int(cells[-1])
        except ValueError:
            raise ParseError(f"{path}: row {row_no}: non-integer label {cells[-1]!r}") from None
        if label < 0:
            raise ParseError(f"{path}: row {row_no}: negative label {label}")
        labels[i] = label
    return LabeledDataset(features, labels, int(labels.max()) + 1)


def standardize(train: LabeledDataset, *others: LabeledDataset) -> tuple[LabeledDataset, ...]:
    """Shift/scale every feature column by the train split's mean and std.

    Zero-variance columns are centered but not scaled. The identical transform
    is applied to every additional split so no statistics leak out of train.
    """
    if train.n_samples == 0:
        raise DomainError("train split is empty")
    mean = train.features.mean(axis=0)
    std = train.features.std(axis=0)
    scale = np.where(std > 0.0, std, 1.0)
    out = []
    for ds in (train, *others):
        if ds.n_features != train.n_features:
            raise DimensionError(
                f"cannot standardize: expected {train.n_features} features, got {ds.n_features}"
            )
        out.append(LabeledDataset((ds.features - mean) / scale, ds.labels, ds.num_classes))
    return tuple(out)
