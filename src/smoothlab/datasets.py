"""Synthetic Gaussian-blob datasets with overlapping class pairs, feature-CSV
ingestion, and the stratified train/validation/test split."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from numbers import Integral
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, DomainError, ParseError

# Reps of the overlap components are laid out eight noise standard deviations
# apart along the first axis, so a pair's one-deviation offset keeps every
# other pair of centers at least six noise standard deviations apart.
_REP_SPACING = 8.0


def _whole_numbers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array. An integer or bool array converts as is;
    any other must hold finite whole numbers, or DomainError names ``what``."""
    v = np.asarray(values)
    if v.dtype.kind not in "biu":
        v = v.astype(np.float64)
        if not (np.isfinite(v) & (v == np.floor(v))).all():
            raise DomainError(f"{what} must be finite whole numbers")
    return v.astype(np.int64, copy=False)


def _plain_number(text: str, parse):
    """``parse(text)``, refusing the ``_`` and non-ASCII digits int() and float() accept."""
    if "_" in text or not text.isascii():
        raise ValueError(f"not a plain ASCII number: {text!r}")
    return parse(text)


def _is_int(value) -> bool:
    """Whether ``value`` is an integer, numpy's included; a bool is not one."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def _check_count(name: str, value, least: int = 1) -> None:
    """Raise DomainError unless ``value`` is an integer >= ``least``."""
    if not _is_int(value):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value}")


def _check_seed(seed) -> None:
    """Raise DomainError unless ``seed`` is a non-negative integer."""
    if not (_is_int(seed) and seed >= 0):
        raise DomainError(f"seed must be a non-negative integer, got {seed!r}")


@dataclass(frozen=True, eq=False)
class LabeledDataset:
    """Feature matrix (n_samples x n_features) with 0-based integer labels."""

    features: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        labels = _whole_numbers(self.labels, "labels")
        if feats.ndim != 2:
            raise DimensionError(f"features must be 2-D, got shape {feats.shape}")
        if labels.ndim != 1 or labels.shape[0] != feats.shape[0]:
            raise DimensionError(
                f"labels must be 1-D with one entry per sample: "
                f"{labels.shape} labels vs {feats.shape[0]} rows"
            )
        _check_count("num_classes", self.num_classes, least=2)
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

    Each class is an isotropic Gaussian with unit noise standard deviation.
    ``overlap_pairs`` lists class pairs whose centers sit exactly one noise
    standard deviation apart; every other pair of centers is at least six
    apart, so only the listed pairs confuse a sane classifier. A class may
    belong to at most one pair: a class in two pairs would force two
    supposedly-far classes within two noise standard deviations of each other.
    """

    num_classes: int
    samples_per_class: int
    dimension: int
    overlap_pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        _check_count("num_classes", self.num_classes, least=2)
        _check_count("samples_per_class", self.samples_per_class)
        _check_count("dimension", self.dimension)
        pairs = tuple((a, b) for a, b in self.overlap_pairs)
        paired: set[int] = set()
        for a, b in pairs:
            if not all(_is_int(c) and 0 <= c < self.num_classes for c in (a, b)) or a == b:
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
        noise standard deviations apart along the first axis; a class's overlap
        mate joins its component one noise standard deviation away along the
        second axis (the first in 1-D).
        """
        mate = {a: b for a, b in self.overlap_pairs} | {b: a for a, b in self.overlap_pairs}
        centers = np.zeros((self.num_classes, self.dimension))
        offset_axis = 1 if self.dimension >= 2 else 0
        placed: set[int] = set()
        component = 0
        for c in range(self.num_classes):
            if c in placed:
                continue
            centers[c, 0] = _REP_SPACING * component
            if c in mate:
                centers[mate[c]] = centers[c]
                centers[mate[c], offset_axis] += 1.0
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
    """Draw samples_per_class unit-variance isotropic Gaussian samples around
    each center.

    Deterministic for a given seed; class c occupies the contiguous block
    [c * samples_per_class, (c+1) * samples_per_class).
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    centers = spec.class_centers
    blocks = [
        rng.normal(centers[c], 1.0, size=(spec.samples_per_class, spec.dimension))
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
    split; within a class, membership is decided by a seeded shuffle. A class
    too small to give every split a sample is refused, since a split without
    it would write artifacts that lack the class.
    """
    _check_seed(seed)
    rng = np.random.default_rng(seed)
    picks: tuple[list[np.ndarray], list[np.ndarray], list[np.ndarray]] = ([], [], [])
    for c in range(ds.num_classes):
        cls_idx = np.nonzero(ds.labels == c)[0]
        counts = _apportion(cls_idx.size, spec.fractions)
        if 0 in counts:
            split = ("train", "val", "test")[counts.index(0)]
            raise ConfigError(
                f"class {c} has {cls_idx.size} samples, too few to give the {split} split one"
            )
        perm = rng.permutation(cls_idx)
        start = 0
        for part, count in zip(picks, counts):
            part.append(perm[start : start + count])
            start += count
    splits = []
    for part in picks:
        idx = np.sort(np.concatenate(part))
        splits.append(LabeledDataset(ds.features[idx], ds.labels[idx], ds.num_classes))
    return splits[0], splits[1], splits[2]


@contextmanager
def _csv_file(path, header, columns: int):
    """Open ``path`` under the one artifact CSV contract: UTF-8, every line
    ending in LF, and the optional header line written first."""
    if header is not None and len(header) != columns:
        raise DimensionError(f"{len(header)} header fields for {columns} columns")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        yield fh


def write_csv(path, cells, rows, header=None) -> None:
    """Write the one artifact CSV format: comma-joined cells, one line per row.

    ``cells`` holds one %-conversion per column (``"%.6f"`` for a 6 dp float,
    ``"%d"`` for an integer, ``"%s"`` for text); each row is a tuple of Python
    scalars formatted by the one line template they make. Rows are streamed,
    never joined into one string."""
    line = ",".join(cells) + "\n"
    with _csv_file(path, header, len(cells)) as fh:
        fh.writelines(line % row for row in rows)


# save_csv spells each number as 4-byte words gathered from one table and then
# deletes the padding spaces. Word kinds, 1000 words each, indexed by a 3-digit
# group g: "   g" (a value's whole part), "-  g" (a negative one's), the two
# fraction groups ".ggg" and "ggg,", and "  g\n" (the row's label).
_WHOLE, _NEG, _FRAC_HI, _FRAC_LO, _LABEL = range(5)
_TEMPLATES = (" %3d", "-%3d", ".%03d", "%03d,", "%3d\n")
_WORDS = np.frombuffer(
    "".join(t % g for t in _TEMPLATES for g in range(1000)).encode("ascii"), dtype=np.uint32
)
# save_csv formats about this many values per pass, a whole number of rows;
# its transient arrays then stay under a megabyte.
_BLOCK_VALUES = 8192


def _block_rows(n_features: int) -> int:
    return max(1, _BLOCK_VALUES // max(1, n_features))


def _format_rows(features: np.ndarray, labels: np.ndarray) -> str:
    """The CSV lines of rows whose every |x| is below 999.5 and every label
    below 1000, each value as ``"%.6f"`` and the label as ``"%d"`` write it:
    k = round-half-even(|x| * 10**6), at most 999,500,000, spelled as one
    3-digit whole group and two fraction groups."""
    n, d = features.shape
    scaled = np.abs(features).ravel()
    scaled *= 1e6
    k = np.rint(scaled)
    # scaled is within half an ulp of the exact |x| * 10**6, so rint rounds as
    # "%.6f" does unless a half lies that close; the margin below covers two
    # ulps. Those values take k from the digits "%.6f" writes.
    slow = np.flatnonzero(~(0.5 - np.abs(scaled - k) > scaled * 4.5e-16))
    k[slow] = [int(("%.6f" % abs(v)).replace(".", "")) for v in features.ravel()[slow].tolist()]
    # (k + 0.5) / 10**6 lies at least 5e-7 from an integer and, for k below
    # 10**9, within 1e-12 of its floating-point product, so floor splits k
    # exactly; the same holds for frac and 10**3.
    whole = np.floor((k + 0.5) * 1e-6)
    frac = k - whole * 1e6
    frac_hi = np.floor((frac + 0.5) * 1e-3)
    words = np.empty((n, 3 * d + 1), dtype=np.int32)
    cells = words[:, :-1].reshape(n, d, 3)  # a view: splits one axis
    sign = np.signbit(features).ravel()
    cells[..., 0] = (whole + (_WHOLE + (_NEG - _WHOLE) * sign) * 1000).reshape(n, d)
    cells[..., 1] = (frac_hi + _FRAC_HI * 1000).reshape(n, d)
    cells[..., 2] = (frac - frac_hi * 1000 + _FRAC_LO * 1000).reshape(n, d)
    words[:, -1] = labels + _LABEL * 1000
    return _WORDS.take(words).tobytes().translate(None, b" ").decode("ascii")


def save_csv(ds: LabeledDataset, path) -> None:
    """Write a dataset under the CSV contract: header f0..f{d-1},label, each
    value as ``"%.6f"`` writes it. A matrix whose every |x| is below 999.5 and
    every label below 1000 is formatted a block of rows at a time by numpy; one
    holding nan, inf, a larger value or a larger label uses the row template,
    since the block formatter spells a whole part or a label as one 3-digit
    group."""
    header = [f"f{i}" for i in range(ds.n_features)] + ["label"]
    if not (np.abs(ds.features).max(initial=0.0) < 999.5 and ds.labels.max(initial=0) < 1000):
        rows = ((*row.tolist(), label) for row, label in zip(ds.features, ds.labels.tolist()))
        write_csv(path, ("%.6f",) * ds.n_features + ("%d",), rows, header)
        return
    step = _block_rows(ds.n_features)
    with _csv_file(path, header, len(header)) as fh:
        for start in range(0, ds.n_samples, step):
            stop = start + step
            fh.write(_format_rows(ds.features[start:stop], ds.labels[start:stop]))


def load_csv(path) -> LabeledDataset:
    """Parse a feature CSV (header f0..f{d-1},label) into a LabeledDataset.

    The class count is 1 + max(label); labels naming a single class, or
    skipping one below the largest, are rejected. Parse failures report the
    1-based file row that caused them.
    """
    path = Path(path)
    with open(path, "r", encoding="utf-8-sig") as fh:
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
                value = _plain_number(cells[j], float)
            except ValueError:
                raise ParseError(
                    f"{path}: row {row_no}: non-numeric feature value {cells[j]!r}"
                ) from None
            if not math.isfinite(value):
                raise ParseError(f"{path}: row {row_no}: non-finite feature value {cells[j]!r}")
            features[i, j] = value
        try:
            label = _plain_number(cells[-1], int)
        except ValueError:
            raise ParseError(f"{path}: row {row_no}: non-integer label {cells[-1]!r}") from None
        if label < 0:
            raise ParseError(f"{path}: row {row_no}: negative label {label}")
        labels[i] = label
    classes = np.unique(labels)
    if classes.size == 1:
        raise ParseError(f"{path}: every label is {classes[0]}; a dataset needs at least 2 classes")
    gaps = np.flatnonzero(classes != np.arange(classes.size))
    if gaps.size:
        raise ParseError(
            f"{path}: no row has label {gaps[0]}; labels must cover every class from 0 to "
            f"{classes[-1]}"
        )
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
