import math

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from smoothlab import (
    BlobSpec,
    ConfigError,
    DimensionError,
    DomainError,
    LabeledDataset,
    ParseError,
    SplitSpec,
    generate_confusable_blobs,
    load_csv,
    save_csv,
    standardize,
    stratified_split,
)
from smoothlab.datasets import write_csv


def small_blob(dim=2, per_class=10, classes=2, overlap=()):
    return BlobSpec(classes, per_class, dimension=dim, overlap_pairs=overlap)


class TestLabeledDataset:
    def test_invariants(self):
        with pytest.raises(DimensionError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), 2)
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1, 2]), 2)
        with pytest.raises(DomainError):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 0]), 1)

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
            BlobSpec(4, 10, overlap_pairs=((0, 1), (1, 2)))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_center_geometry_contract(self, data):
        # Listed pairs sit exactly one spread apart; every other pair of
        # centers is at least six spreads apart.
        classes = data.draw(st.integers(2, 12), label="classes")
        dim = data.draw(st.integers(1, 5), label="dimension")
        spread = data.draw(st.floats(1e-3, 1e3), label="spread")
        order = data.draw(st.permutations(range(classes)), label="order")
        n_pairs = data.draw(st.integers(0, classes // 2), label="pairs")
        pairs = tuple(zip(order[0 : 2 * n_pairs : 2], order[1 : 2 * n_pairs : 2]))
        centers = BlobSpec(classes, 1, dim, spread, pairs).class_centers
        assert centers.shape == (classes, dim)
        near = {frozenset(p) for p in pairs}
        for a in range(classes):
            for b in range(a + 1, classes):
                dist = float(np.linalg.norm(centers[a] - centers[b]))
                if frozenset((a, b)) in near:
                    assert dist == pytest.approx(spread, rel=1e-9)
                else:
                    assert dist >= 6 * spread

    def test_non_finite_spread_rejected(self):
        with pytest.raises(DomainError, match="spread"):
            BlobSpec(3, 5, spread=math.inf)
        with pytest.raises(DomainError, match="spread"):
            BlobSpec(3, 5, spread=math.nan)

    def test_pair_validation(self):
        with pytest.raises(DomainError):
            BlobSpec(3, 5, overlap_pairs=((0, 0),))
        with pytest.raises(DomainError):
            BlobSpec(3, 5, overlap_pairs=((0, 7),))


class TestSplit:
    def test_exact_70_15_15(self):
        spec = BlobSpec(4, 100, dimension=2)
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
        spec = BlobSpec(3, 17, dimension=2)
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
        spec = BlobSpec(2, 13, dimension=2)
        ds = generate_confusable_blobs(spec, seed=3)
        fracs = SplitSpec(0.70, 0.15, 0.15)
        train, val, test = stratified_split(ds, fracs, seed=3)
        for part, frac in zip((train, val, test), fracs.fractions):
            for c in range(2):
                assert abs(np.sum(part.labels == c) - frac * 13) <= 1

    def test_deterministic(self):
        spec = BlobSpec(3, 20, dimension=2)
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


class TestCsv:
    def test_counting(self, tmp_path):
        path = tmp_path / "tiny.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n5.0,6.0,0\n")
        ds = load_csv(path)
        assert ds.n_samples == 3
        assert ds.num_classes == 2
        assert np.array_equal(ds.labels, [0, 1, 0])

    def test_header_only_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("f0,f1,label\n")
        with pytest.raises(ParseError, match="no data rows"):
            load_csv(path)

    def test_round_trip(self, tmp_path):
        spec = BlobSpec(3, 15, dimension=4)
        ds = generate_confusable_blobs(spec, seed=5)
        path = tmp_path / "blob.csv"
        save_csv(ds, path)
        loaded = load_csv(path)
        assert np.max(np.abs(loaded.features - ds.features)) <= 1e-6
        assert np.array_equal(loaded.labels, ds.labels)
        assert loaded.num_classes == ds.num_classes

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

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("a,b,c\n1,2,0\n")
        with pytest.raises(ParseError, match="header"):
            load_csv(path)


class TestStandardize:
    def test_constant_column_zeroed(self):
        feats = np.column_stack([np.full(6, 3.0), np.arange(6, dtype=float)])
        ds = LabeledDataset(feats, np.array([0, 1, 0, 1, 0, 1]), 2)
        (out,) = standardize(ds)
        assert np.array_equal(out.features[:, 0], np.zeros(6))

    def test_train_moments(self):
        spec = BlobSpec(3, 30, dimension=3)
        ds = generate_confusable_blobs(spec, seed=6)
        (out,) = standardize(ds)
        assert np.max(np.abs(out.features.mean(axis=0))) < 1e-12
        assert np.max(np.abs(out.features.std(axis=0) - 1.0)) < 1e-9

    def test_transform_comes_from_train(self):
        spec = BlobSpec(3, 40, dimension=2)
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
