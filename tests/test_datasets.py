import math
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smoothlab import (
    BlobSpec,
    ConfigError,
    ConfusionTracker,
    DimensionError,
    DomainError,
    LabeledDataset,
    OnlineLabelSmoother,
    ParseError,
    SplitSpec,
    TrainConfig,
    generate_confusable_blobs,
    init_params,
    load_csv,
    save_csv,
    standardize,
    stratified_split,
)
from smoothlab import datasets
from smoothlab.datasets import _apportion, _block_rows, _format_rows, write_csv

from oracles import save_csv as row_template_save_csv


def small_blob(dim=2, per_class=10, classes=2, overlap=()):
    return BlobSpec(classes, per_class, dimension=dim, overlap_pairs=overlap)


# Finite values on which "%.6f" is easy to get wrong. save_csv formats a block
# of rows with numpy when every |x| is below 999.5 and every label below 1000,
# and any other matrix by the row template. The kinds of FAST_KINDS stay below
# 999.5; most draws of "tie", "near_half" and "log_uniform", the large EDGES and
# every "huge" value lie above it.
FAST_KINDS = (
    "small_tie", "small_near_half", "zero", "tiny_negative", "small_log_uniform",
    "subnormal", "small_edge",
)
VALUE_KINDS = (*FAST_KINDS, "tie", "near_half", "log_uniform", "edge", "huge")
EDGES = np.array(
    [
        0.0, -0.0, 5e-324, -2.2250738585072014e-308, -4.9999999999999e-7, 5e-7, -1e-9,
        1 / 128, -3 / 128, 0.0000015, 0.5e-6, 999.9999995, -999999.9999995,
        np.nextafter(2**50 / 1e6, 0),
    ]
)
SMALL_EDGES = np.array(
    [*EDGES[np.abs(EDGES) < 999.5], np.nextafter(999.5, 0), np.nextafter(-999.5, 0), 999.4999995]
)
HUGE = np.array(
    [
        2**50 / 1e6, 2**51 / 1e6, 2**52 / 1e6 + 0.5, 4.5e9, 1e12, -1e15,
        1e20, -2.0**70, 1e300, -1.7976931348623157e308,
    ]
)


def hard_values(rng, size, kinds):
    """``size`` values, each drawn from one of ``kinds`` at random:
    tie: j/128, whose 7th decimal is an exact half;
    near_half: (j + 0.5)/10**6 and the floats one ulp either side of it;
    zero: 0.0 and -0.0; tiny_negative: in (-5e-7, 0], printed "-0.000000";
    log_uniform: magnitudes from 1e-9 to 1e9; subnormal: below 2**-1022;
    edge, huge: the fixed values of EDGES, HUGE; small_tie, small_near_half,
    small_log_uniform (magnitudes from 1e-9 to 999) and small_edge (SMALL_EDGES):
    the same below 999.5."""
    pick = rng.integers(len(kinds), size=size)
    out = np.empty(size)
    for i, kind in enumerate(kinds):
        m = int(np.sum(pick == i))
        sign = rng.choice([-1.0, 1.0], m)
        if kind == "tie":
            values = rng.integers(-(2**27), 2**27, m) / 128
        elif kind == "small_tie":
            values = rng.integers(-127_935, 127_936, m) / 128  # |j| / 128 <= 999.4921875
        elif kind in ("near_half", "small_near_half"):
            top = 10**12 if kind == "near_half" else 999_499_999
            half = (rng.integers(-top, top, m) + 0.5) / 1e6
            step = rng.integers(-1, 2, m)
            values = np.where(step == 0, half, np.nextafter(half, np.copysign(np.inf, step)))
        elif kind == "zero":
            values = sign * 0.0
        elif kind == "tiny_negative":
            values = -rng.uniform(0.0, 5e-7, m)
        elif kind in ("log_uniform", "small_log_uniform"):
            top = 9 if kind == "log_uniform" else math.log10(999)
            values = sign * 10.0 ** rng.uniform(-9, top, m)
        elif kind == "subnormal":
            values = sign * rng.integers(1, 2**52, m, dtype=np.uint64).view(np.float64)
        else:
            values = rng.choice({"edge": EDGES, "small_edge": SMALL_EDGES, "huge": HUGE}[kind], m)
        out[pick == i] = values
    return out


def _count_blocks(monkeypatch) -> list[int]:
    """The row count of each block save_csv hands to _format_rows from now on."""
    blocks = []

    def counted(features, labels):
        blocks.append(len(features))
        return _format_rows(features, labels)

    monkeypatch.setattr(datasets, "_format_rows", counted)
    return blocks


class TestLabeledDataset:
    def test_invariants(self):
        with pytest.raises(DimensionError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), 1)

    @pytest.mark.parametrize("labels", [[0.5, 1.7], [0.0, np.nan], [np.inf, 1.0], [0, 1e-9]])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels):
        with pytest.raises(DomainError, match="^labels must be finite whole numbers$"):
            LabeledDataset(np.zeros((2, 2)), labels, 2)

    @pytest.mark.parametrize("labels", [[0.0, 1.0], np.array([0, 1], dtype=np.uint8), [False, True]])
    def test_whole_labels_of_any_dtype_accepted(self, labels):
        ds = LabeledDataset(np.zeros((2, 2)), labels, 2)
        assert ds.labels.dtype == np.int64
        assert ds.labels.tolist() == [0, 1]

    def test_properties(self):
        ds = LabeledDataset(np.zeros((5, 3)), np.array([0, 1, 0, 1, 0]), 2)
        assert ds.n_samples == 5
        assert ds.n_features == 3


class TestBlobGeneration:
    def test_sample_counts(self):
        ds = generate_confusable_blobs(small_blob(), seed=0)
        assert ds.n_samples == 20
        assert np.sum(ds.labels == 0) == 10
        assert np.sum(ds.labels == 1) == 10

    def test_deterministic(self):
        spec = small_blob(dim=3, classes=4)
        a = generate_confusable_blobs(spec, seed=42)
        b = generate_confusable_blobs(spec, seed=42)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)

    def test_overlap_pair_confuses_nearest_centroid(self):
        # Independent oracle: nearest-centroid classification. The overlapping
        # pair must dominate the off-diagonal confusion of class 0.
        spec = BlobSpec(8, 50, dimension=2, overlap_pairs=((0, 1),))
        hits = 0
        for seed in range(10):
            ds = generate_confusable_blobs(spec, seed=seed)
            centroids = np.stack(
                [ds.features[ds.labels == c].mean(axis=0) for c in range(8)]
            )
            dists = np.linalg.norm(ds.features[:, None, :] - centroids[None], axis=2)
            preds = dists.argmin(axis=1)
            conf = np.zeros((8, 8), dtype=int)
            np.add.at(conf, (ds.labels, preds), 1)
            if all(conf[0, 1] > conf[0, c] for c in range(2, 8)):
                hits += 1
        assert hits >= 9

    def test_class_in_two_pairs_rejected(self):
        with pytest.raises(ConfigError):
            BlobSpec(4, 10, dimension=2, overlap_pairs=((0, 1), (1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_center_geometry_contract(self, data):
        # Listed pairs sit exactly one noise standard deviation apart; every
        # other pair of centers is at least six apart.
        classes = data.draw(st.integers(2, 12), label="classes")
        dim = data.draw(st.integers(1, 5), label="dimension")
        order = data.draw(st.permutations(range(classes)), label="order")
        n_pairs = data.draw(st.integers(0, classes // 2), label="pairs")
        pairs = tuple(zip(order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]))
        centers = BlobSpec(classes, 1, dim, pairs).class_centers
        assert centers.shape == (classes, dim)
        near = {frozenset(p) for p in pairs}
        for a in range(classes):
            for b in range(a + 1, classes):
                dist = float(np.linalg.norm(centers[a] - centers[b]))
                if frozenset((a, b)) in near:
                    assert dist == 1.0
                else:
                    assert dist >= 6.0

    def test_pair_validation(self):
        with pytest.raises(DomainError):
            BlobSpec(3, 5, dimension=2, overlap_pairs=((0, 0),))
        with pytest.raises(DomainError):
            BlobSpec(3, 5, dimension=2, overlap_pairs=((0, 7),))


# Every integer input that a constructor or a data function checks: a builder
# from one value, the words its message starts with (a config field's name
# first) and its least value. Each is refused when fractional, a bool or below
# that value.
COUNTS = {
    "BlobSpec.num_classes": (lambda v: BlobSpec(v, 5, 2, ()), "num_classes", 2),
    "BlobSpec.samples_per_class": (lambda v: BlobSpec(3, v, 2, ()), "samples_per_class", 1),
    "BlobSpec.dimension": (lambda v: BlobSpec(3, 5, v, ()), "dimension", 1),
    "BlobSpec.overlap_pairs": (lambda v: BlobSpec(3, 5, 2, ((v, 0),)), "overlap pair", 0),
    "LabeledDataset.num_classes": (
        lambda v: LabeledDataset(np.zeros((2, 2)), [0, 1], v), "num_classes", 2
    ),
    "ConfusionTracker.num_classes": (ConfusionTracker, "num_classes", 2),
    "OnlineLabelSmoother.num_classes": (OnlineLabelSmoother, "num_classes", 2),
    "TrainConfig.hidden": (lambda v: TrainConfig((4, v), 2, 8, 0.1, 0.9, 10), "hidden", 1),
    "TrainConfig.epochs": (lambda v: TrainConfig((4,), v, 8, 0.1, 0.9, 10), "epochs", 1),
    "init_params.layer_sizes": (lambda v: init_params((4, v, 3), 0), "layer sizes", 1),
    "init_params.seed": (lambda v: init_params((4, 3), v), "seed", 0),
    "generate_confusable_blobs.seed": (
        lambda v: generate_confusable_blobs(BlobSpec(3, 5, 2, ()), v), "seed", 0
    ),
    "stratified_split.seed": (
        lambda v: stratified_split(
            generate_confusable_blobs(BlobSpec(3, 5, 2, ()), 0), SplitSpec(0.6, 0.2, 0.2), v
        ),
        "seed",
        0,
    ),
}


class TestCounts:
    @pytest.mark.parametrize("bad", ["fraction", "bool", "below"])
    @pytest.mark.parametrize("field", COUNTS)
    def test_non_integer_bool_or_small_count_refused_by_name(self, field, bad):
        # int() once truncated 6.7 to a 6-unit layer and an overlap class 0.7
        # to class 0, and True passed as 1
        build, words, least = COUNTS[field]
        value = {"fraction": 2.5, "bool": True, "below": least - 1}[bad]
        with pytest.raises(DomainError, match=rf"^{words}\b"):
            build(value)

    @pytest.mark.parametrize("kind", [np.int32, np.int64])
    @pytest.mark.parametrize("field", COUNTS)
    def test_numpy_integers_accepted(self, field, kind):
        build, _, least = COUNTS[field]
        build(kind(least + 1))

    def test_numpy_integer_sizes_and_seed_draw_the_same_params(self):
        given = init_params((np.int64(4), np.int32(6), 3), np.int64(7))
        assert given.flat.tobytes() == init_params((4, 6, 3), 7).flat.tobytes()

    def test_numpy_integer_seeds_draw_the_same_data(self):
        spec, fractions = BlobSpec(3, 5, 2, ()), SplitSpec(0.6, 0.2, 0.2)
        given = generate_confusable_blobs(spec, np.int64(7))
        plain = generate_confusable_blobs(spec, 7)
        assert given.features.tobytes() == plain.features.tobytes()
        splits = zip(stratified_split(given, fractions, np.int64(3)), stratified_split(plain, fractions, 3))
        for a, b in splits:
            assert a.features.tobytes() == b.features.tobytes()


class TestSplit:
    def test_exact_70_15_15(self):
        spec = BlobSpec(4, 100, dimension=2, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=1)
        train, val, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=1)
        for c in range(4):
            assert np.sum(train.labels == c) == 70
            assert np.sum(val.labels == c) == 15
            assert np.sum(test.labels == c) == 15

    def test_degenerate_fractions_rejected(self):
        with pytest.raises(DomainError):
            SplitSpec(1.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            SplitSpec(0.5, 0.3, 0.3)

    def test_partition(self):
        spec = BlobSpec(3, 17, dimension=2, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=2)
        train, val, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=2)
        assert train.n_samples + val.n_samples + test.n_samples == ds.n_samples
        # every original row appears exactly once across the three splits
        stacked = np.vstack([train.features, val.features, test.features])
        assert np.array_equal(
            np.sort(stacked, axis=0), np.sort(ds.features, axis=0)
        )

    def test_within_one_sample_of_quota(self):
        # 13 per class at 70:15:15 is the awkward case: quotas 9.1/1.95/1.95.
        spec = BlobSpec(2, 13, dimension=2, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=3)
        fracs = SplitSpec(0.70, 0.15, 0.15)
        train, val, test = stratified_split(ds, fracs, seed=3)
        for part, frac in zip((train, val, test), fracs.fractions):
            for c in range(2):
                assert abs(np.sum(part.labels == c) - frac * 13) <= 1

    def test_deterministic(self):
        spec = BlobSpec(3, 20, dimension=2, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=4)
        a = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=9)
        b = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=9)
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    def test_too_few_samples_rejected(self):
        ds = LabeledDataset(np.zeros((4, 2)), np.array([0, 0, 0, 1]), 2)
        with pytest.raises(ConfigError):
            stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=0)

    @pytest.mark.parametrize("n", [3, 4])
    def test_class_leaving_a_split_empty_rejected(self, n):
        # 70/15/15 apportions 3 samples as 2/1/0 and 4 as 3/1/0: the test
        # split, and every artifact made from it, would lack class 1
        labels = np.repeat([0, 1, 2], [20, n, 20])
        ds = LabeledDataset(np.zeros((labels.size, 2)), labels, 3)
        with pytest.raises(ConfigError) as info:
            stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=0)
        assert str(info.value) == f"class 1 has {n} samples, too few to give the test split one"

    def test_five_samples_give_every_split_one(self):
        labels = np.repeat([0, 1], [5, 20])
        ds = LabeledDataset(np.zeros((labels.size, 2)), labels, 2)
        parts = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=0)
        assert [int(np.sum(part.labels == 0)) for part in parts] == [3, 1, 1]

    @settings(max_examples=100, deadline=None)
    @given(
        counts=st.lists(st.integers(3, 40), min_size=2, max_size=6),
        weights=st.tuples(st.integers(1, 20), st.integers(1, 20), st.integers(1, 20)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_splits_partition_the_rows_by_apportioned_class_counts(self, counts, weights, seed):
        # Each row carries its index as its one feature, so the splits name the
        # rows they took: disjoint, together every row once, each in input
        # order with its own label, and per class the counts _apportion gives.
        # A draw where _apportion gives some class no sample of some split is
        # refused, naming the first such class and split.
        spec = SplitSpec(*(w / sum(weights) for w in weights))
        labels = np.random.default_rng(seed).permutation(np.repeat(np.arange(len(counts)), counts))
        ds = LabeledDataset(np.arange(labels.size, dtype=float)[:, None], labels, len(counts))
        short = [
            (c, n, ("train", "val", "test")[apportioned.index(0)])
            for c, n in enumerate(counts)
            if 0 in (apportioned := _apportion(n, spec.fractions))
        ]
        if short:
            c, n, split = short[0]
            with pytest.raises(ConfigError) as info:
                stratified_split(ds, spec, seed)
            want = f"class {c} has {n} samples, too few to give the {split} split one"
            assert str(info.value) == want
            return
        parts = stratified_split(ds, spec, seed)
        taken = [part.features[:, 0].astype(np.int64) for part in parts]
        assert np.array_equal(np.sort(np.concatenate(taken)), np.arange(labels.size))
        for part, rows in zip(parts, taken):
            assert np.all(np.diff(rows) > 0)
            assert np.array_equal(part.labels, labels[rows])
        for c, n in enumerate(counts):
            apportioned = _apportion(n, spec.fractions)
            assert [int(np.sum(part.labels == c)) for part in parts] == apportioned
            assert sum(apportioned) == n
            assert all(abs(k - f * n) < 1 for k, f in zip(apportioned, spec.fractions))


class TestCsv:
    @pytest.mark.parametrize("bom", ["", "\ufeff"])
    def test_counting(self, tmp_path, bom):
        # spreadsheets' "CSV UTF-8" exports start the file with a byte-order mark
        path = tmp_path / "tiny.csv"
        path.write_text(bom + "f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n", encoding="utf-8")
        ds = load_csv(path)
        assert ds.n_samples == 3
        assert ds.num_classes == 2
        assert np.array_equal(ds.features, [[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        spec = BlobSpec(3, 15, dimension=4, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=5)
        path = tmp_path / "blob.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.max(np.abs(loaded.features - ds.features)) <= 1e-6
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes

    def test_single_class_rejected_naming_the_file(self, tmp_path):
        path = tmp_path / "one_class.csv"
        path.write_text("f0,label\n1.0,2\n2.0,2\n3.0,2\n")
        with pytest.raises(ParseError, match="one_class.csv: every label is 2"):
            load_csv(path)

    def test_labels_skipping_a_class_rejected_naming_the_file(self, tmp_path):
        # 0,0,0,2,2,2 used to load as three classes, one of them empty
        path = tmp_path / "gap.csv"
        path.write_text("f0,label\n1.0,0\n2.0,0\n3.0,0\n4.0,2\n5.0,2\n6.0,2\n")
        with pytest.raises(ParseError, match="gap.csv: no row has label 1; .* from 0 to 2"):
            load_csv(path)
        path.write_text("f0,label\n1.0,3\n2.0,1\n3.0,2\n")
        with pytest.raises(ParseError, match="gap.csv: no row has label 0; .* from 0 to 3"):
            load_csv(path)

    def test_save_csv_exact_bytes(self, tmp_path):
        ds = LabeledDataset(np.array([[1.0, -0.5], [0.1234567, 20.0]]), np.array([1, 0]), 2)
        path = tmp_path / "hand.csv"
        save_csv(ds, path)
        assert path.read_bytes() == b"f0,f1,label\n1.000000,-0.500000,1\n0.123457,20.000000,0\n"

    @settings(max_examples=300, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.one_of(st.floats(), st.integers()), min_size=1, max_size=6))
    @example([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.2250738585072e-308, 7])
    @example([-(2**70), 0, 1.5e300, -0.0000005, 0.0000005])
    def test_line_template_matches_per_cell_format(self, tmp_path, cells):
        path = tmp_path / "cells.csv"
        formats = tuple("%.6f" if isinstance(v, float) else "%d" for v in cells)
        write_csv(path, formats, [tuple(cells)], [f"c{i}" for i in range(len(cells))])
        expected = ",".join(f"{v:.6f}" if isinstance(v, float) else str(v) for v in cells)
        header = ",".join(f"c{i}" for i in range(len(cells)))
        assert path.read_bytes() == f"{header}\n{expected}\n".encode()

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        rows=st.sampled_from(["one", "block", "block+1", "few"]),
        kinds=st.lists(st.sampled_from(VALUE_KINDS), min_size=1, unique=True),
        top_label=st.sampled_from([1, 9, 999, 1000, 10**6]),
        planted=st.sampled_from([None, None, None, None, math.nan, math.inf, -math.inf, 1e300]),
    )
    @example(seed=0, d=4, rows="few", kinds=["edge"], top_label=1000, planted=None)
    @example(seed=1, d=3, rows="few", kinds=["huge", "tie"], top_label=9, planted=None)
    @example(seed=2, d=2, rows="block+1", kinds=["huge", "edge"], top_label=1, planted=None)
    @example(seed=3, d=1, rows="block+1", kinds=["edge"], top_label=1, planted=1e300)
    def test_save_csv_matches_row_template_byte_for_byte(
        self, tmp_path, seed, d, rows, kinds, top_label, planted
    ):
        rng = np.random.default_rng(seed)
        n = {"one": 1, "block": _block_rows(d), "block+1": _block_rows(d) + 1}.get(rows, 7)
        features = hard_values(rng, n * d, kinds).reshape(n, d)
        if planted is not None:
            features[rng.integers(n), rng.integers(d)] = planted
        ds = LabeledDataset(features, rng.integers(0, top_label + 1, n), top_label + 1)
        save_csv(ds, tmp_path / "fast.csv")
        row_template_save_csv(ds, tmp_path / "spec.csv")
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()

    @settings(
        max_examples=80,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(1, 12),
        rows=st.sampled_from(["one", "block", "block+1", "few"]),
        kinds=st.lists(st.sampled_from(FAST_KINDS), min_size=1, unique=True),
        top_label=st.sampled_from([1, 9, 999]),
    )
    @example(seed=0, d=3, rows="few", kinds=["small_edge"], top_label=999)
    @example(seed=1, d=4, rows="block+1", kinds=["small_tie", "small_near_half"], top_label=9)
    def test_format_rows_matches_row_template_below_the_bound(
        self, tmp_path, seed, d, rows, kinds, top_label
    ):
        # Every |x| below 999.5 and every label below 1000: save_csv writes
        # each block of rows through _format_rows, which gives the oracle's lines.
        rng = np.random.default_rng(seed)
        n = {"one": 1, "block": _block_rows(d), "block+1": _block_rows(d) + 1}.get(rows, 7)
        features = hard_values(rng, n * d, kinds).reshape(n, d)
        labels = rng.integers(0, top_label + 1, n)
        labels[rng.integers(n)] = top_label
        ds = LabeledDataset(features, labels, top_label + 1)
        row_template_save_csv(ds, tmp_path / "spec.csv")
        spec = (tmp_path / "spec.csv").read_bytes()
        assert _format_rows(features, labels).encode("ascii") == spec.split(b"\n", 1)[1]
        with pytest.MonkeyPatch.context() as mp:
            blocks = _count_blocks(mp)
            save_csv(ds, tmp_path / "fast.csv")
        assert blocks == [min(n - start, _block_rows(d)) for start in range(0, n, _block_rows(d))]
        assert (tmp_path / "fast.csv").read_bytes() == spec

    @pytest.mark.parametrize(
        "value, label, blocks",
        [
            (np.nextafter(999.5, 0), 999, [2]),
            (999.5, 0, []),
            (-999.5, 0, []),
            (1e300, 0, []),
            (0.5, 1000, []),
            (math.nan, 0, []),
            (-math.inf, 0, []),
        ],
        ids=["just-below", "999.5", "-999.5", "1e300", "label-1000", "nan", "-inf"],
    )
    def test_block_formatter_taken_exactly_below_the_bound(
        self, tmp_path, monkeypatch, value, label, blocks
    ):
        # Any other matrix gets the same bytes from the row template.
        written = _count_blocks(monkeypatch)
        features = np.array([[value, -0.0], [0.5, np.nextafter(-999.5, 0)]])
        ds = LabeledDataset(features, [label, 1], 1001)
        save_csv(ds, tmp_path / "fast.csv")
        row_template_save_csv(ds, tmp_path / "spec.csv")
        assert written == blocks
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "spec.csv").read_bytes()

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 300),
        d=st.integers(1, 8),
        kinds=st.lists(st.sampled_from(VALUE_KINDS), min_size=1, unique=True),
        top_label=st.sampled_from([1, 9, 1000]),
    )
    def test_round_trip_within_half_a_unit_of_the_sixth_place(
        self, tmp_path, seed, n, d, kinds, top_label
    ):
        # The file holds each value rounded to 6 dp, within 5e-7 of it; parsing
        # that decimal adds at most half an ulp, under |x| * 2**-52. Its bytes
        # are a fixed point. load_csv refuses labels that skip a class, so every
        # label from 0 to top_label has a row, and n more rows take labels at random.
        rng = np.random.default_rng(seed)
        labels = np.concatenate([np.arange(top_label + 1), rng.integers(0, top_label + 1, n)])
        labels = rng.permutation(labels)
        m = labels.size
        ds = LabeledDataset(hard_values(rng, m * d, kinds).reshape(m, d), labels, top_label + 1)
        save_csv(ds, tmp_path / "first.csv")
        loaded = load_csv(tmp_path / "first.csv")
        error = np.abs(loaded.features - ds.features)
        assert np.all(error <= 5e-7 + np.abs(ds.features) * 2.0**-52)
        assert np.array_equal(loaded.labels, ds.labels)
        save_csv(loaded, tmp_path / "second.csv")
        assert (tmp_path / "second.csv").read_bytes() == (tmp_path / "first.csv").read_bytes()

    def test_header_must_match_columns(self, tmp_path):
        with pytest.raises(DimensionError):
            write_csv(tmp_path / "x.csv", ("%d", "%d"), [(1, 2)], ("a",))

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            load_csv(tmp_path / "nope.csv")

    def test_parse_errors_carry_row_numbers(self, tmp_path):
        bad_cell = tmp_path / "bad_cell.csv"
        bad_cell.write_text("f0,label\n1.0,0\nx,1\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(bad_cell)

        ragged = tmp_path / "ragged.csv"
        ragged.write_text("f0,f1,label\n1.0,2.0,0\n1.0,1\n")
        with pytest.raises(ParseError, match="row 3"):
            load_csv(ragged)

        negative = tmp_path / "negative.csv"
        negative.write_text("f0,label\n1.0,-1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(negative)

    @pytest.mark.parametrize(
        "row, message",
        [
            # float() and int() read 1_0 as 10 and a full-width 1 as 1
            ("1_0,0", "non-numeric feature value '1_0'"),
            ("\uff11.5,0", "non-numeric feature value '\uff11.5'"),
            ("1.0,1_0", "non-integer label '1_0'"),
            ("1.0,\uff11", "non-integer label '\uff11'"),
        ],
    )
    def test_cells_must_be_plain_ascii_numbers(self, tmp_path, row, message):
        path = tmp_path / "cells.csv"
        path.write_text(f"f0,label\n0.5,0\n{row}\n2.0,1\n", encoding="utf-8")
        with pytest.raises(ParseError, match=f"cells.csv: row 3: {re.escape(message)}$"):
            load_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(path)


@st.composite
def overflowing_splits(draw):
    """Train, val and test matrices of one width whose values run from
    subnormal to 1e308, so some columns overflow the train mean, the train
    std or a standardized value, and others do not."""
    d = draw(st.integers(1, 4))
    value = st.one_of(
        st.floats(-10, 10),
        st.floats(-1e308, 1e308),
        st.sampled_from([0.0, 5e-324, -1e-300, 1e154, -1e200, 1e200, 1e308, -1e308]),
    )
    rows = [draw(st.integers(1, 6)), draw(st.integers(0, 4)), draw(st.integers(0, 4))]
    return [
        np.array(draw(st.lists(value, min_size=n * d, max_size=n * d)), dtype=float).reshape(n, d)
        for n in rows
    ]


class TestStandardize:
    def test_constant_column_zeroed(self):
        feats = np.column_stack([np.full(6, 3.0), np.arange(6, dtype=float)])
        ds = LabeledDataset(feats, np.array([0, 1, 0, 1, 0, 1]), 2)
        (out,) = standardize(ds)
        assert np.array_equal(out.features[:, 0], np.zeros(6))

    def test_train_moments(self):
        spec = BlobSpec(3, 30, dimension=3, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=6)
        (out,) = standardize(ds)
        assert np.max(np.abs(out.features.mean(axis=0))) < 1e-12
        assert np.max(np.abs(out.features.std(axis=0) - 1.0)) < 1e-9

    def test_transform_comes_from_train(self):
        spec = BlobSpec(3, 40, dimension=2, overlap_pairs=())
        ds = generate_confusable_blobs(spec, seed=7)
        train, val, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=7)
        train_t, val_t, _ = standardize(train, val, test)
        assert np.max(np.abs(train_t.features.mean(axis=0))) < 1e-12
        # val is centered with train statistics, so its own mean is not zero
        assert np.max(np.abs(val_t.features.mean(axis=0))) > 1e-6

    def test_empty_train_rejected(self):
        ds = LabeledDataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
        with pytest.raises(DomainError):
            standardize(ds)

    @settings(max_examples=200, deadline=None)
    @given(matrices=overflowing_splits())
    @example(matrices=[np.array([[1e200], [-1e200]]), np.zeros((0, 1)), np.zeros((0, 1))])
    @example(matrices=[np.array([[1.0, 1e308], [2.0, -1e308]]), np.ones((1, 2)), np.ones((1, 2))])
    @example(matrices=[np.array([[0.0], [5e-324]]), np.array([[1e300]]), np.zeros((0, 1))])
    @example(matrices=[np.array([[1.0, 3.0], [2.0, 3.0]]), np.ones((2, 2)), np.ones((1, 2))])
    def test_refuses_the_first_column_it_cannot_scale(self, matrices):
        # a column is bad when its train mean or std, or one of its
        # standardized values in any split, is not finite
        with np.errstate(all="ignore"):
            mean, std = matrices[0].mean(axis=0), matrices[0].std(axis=0)
            expected = [(x - mean) / np.where(std > 0, std, 1.0) for x in matrices]
            bad = [
                j
                for j in range(mean.size)
                if not (np.isfinite(mean[j]) and np.isfinite(std[j]))
                or not all(np.isfinite(e[:, j]).all() for e in expected)
            ]
            splits = [LabeledDataset(x, np.arange(len(x)) % 2, 2) for x in matrices]
            try:
                out = standardize(*splits)
            except DomainError as exc:
                column = bad[0] if bad else None
                message = f"cannot standardize column {column} (f{column}): its values overflow"
                assert str(exc) == message
                return
        assert bad == []
        for got, want in zip(out, expected):
            # bit for bit, so every output byte of ordinary data is unchanged
            assert np.array_equal(got.features.view(np.int64), want.view(np.int64))
