import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smoothlab import (
    DimensionError,
    DomainError,
    ece,
    reliability_bins,
    write_reliability_csv,
)
from smoothlab.calibration import _bin_index, _validated

from oracles import bin_index, validated


def brute_force_ece(probs, labels, num_bins):
    """Direct per-sample summation with the same half-open bin rule; the
    oracle implementation is deliberately loop-based and numpy-free."""
    probs = [list(map(float, row)) for row in probs]
    n = len(probs)
    per_bin = [[0, 0.0, 0.0] for _ in range(num_bins)]  # count, conf sum, correct sum
    for row, label in zip(probs, labels):
        conf = max(row)
        pred = row.index(conf)
        m = None
        for b in range(num_bins):
            lo = b / num_bins
            hi = (b + 1) / num_bins
            if (conf > lo or b == 0) and conf <= hi:
                m = b
                break
        per_bin[m][0] += 1
        per_bin[m][1] += conf
        per_bin[m][2] += 1.0 if pred == int(label) else 0.0
    total = 0.0
    for count, conf_sum, correct_sum in per_bin:
        if count:
            total += (count / n) * abs(correct_sum / count - conf_sum / count)
    return total


def probs_with_confidence(confidences, correct):
    """Two-class rows whose max prob is the given confidence; label picks
    correctness. Confidences must be in (0.5, 1]."""
    rows, labels = [], []
    for conf, ok in zip(confidences, correct):
        rows.append([conf, 1.0 - conf])
        labels.append(0 if ok else 1)
    return np.array(rows), np.array(labels)


class TestReliabilityBins:
    def test_all_confident_and_correct(self):
        probs = np.tile([1.0, 0.0], (5, 1))
        labels = np.zeros(5, dtype=int)
        bins = reliability_bins(probs, labels, 10)
        assert bins.counts[-1] == 5
        assert bins.counts[:-1].sum() == 0
        assert bins.mean_confidence[-1] == 1.0
        assert bins.accuracy[-1] == 1.0

    def test_single_bin_degenerates_to_overall(self):
        probs, labels = probs_with_confidence([0.9, 0.8, 0.6, 0.55], [1, 0, 1, 0])
        bins = reliability_bins(probs, labels, 1)
        assert bins.counts[0] == 4
        assert abs(bins.mean_confidence[0] - np.mean([0.9, 0.8, 0.6, 0.55])) < 1e-12
        assert bins.accuracy[0] == 0.5

    def test_counts_sum_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            c = int(rng.integers(2, 6))
            probs = rng.dirichlet(np.ones(c), size=n)
            labels = rng.integers(0, c, size=n)
            bins = reliability_bins(probs, labels, int(rng.integers(1, 12)))
            assert bins.counts.sum() == n
            assert bins.total_samples == n

    def test_hand_binning(self):
        probs, labels = probs_with_confidence([0.9, 0.8, 0.6, 0.55], [1, 0, 1, 0])
        bins = reliability_bins(probs, labels, 10)
        # (0.5,0.6] holds 0.6 and 0.55; (0.7,0.8] holds 0.8; (0.8,0.9] holds 0.9
        assert bins.counts[5] == 2
        assert abs(bins.mean_confidence[5] - 0.575) < 1e-12
        assert bins.accuracy[5] == 0.5
        assert bins.counts[7] == 1 and bins.accuracy[7] == 0.0
        assert bins.counts[8] == 1 and bins.accuracy[8] == 1.0

    def test_empty_bins_report_zero(self):
        probs = np.array([[1.0, 0.0]])
        bins = reliability_bins(probs, [0], 4)
        assert np.array_equal(bins.counts, [0, 0, 0, 1])
        assert bins.mean_confidence[0] == 0.0
        assert bins.accuracy[0] == 0.0

    def test_invalid_rows_rejected(self):
        with pytest.raises(DomainError):
            reliability_bins(np.array([[0.7, 0.7]]), [0], 10)
        with pytest.raises(DomainError):
            reliability_bins(np.array([[1.2, -0.2]]), [0], 10)
        with pytest.raises(DomainError):
            reliability_bins(np.array([[0.5, 0.5]]), [2], 10)
        with pytest.raises(DimensionError):
            reliability_bins(np.zeros((0, 3)), [], 10)
        with pytest.raises(DomainError):
            reliability_bins(np.array([[0.5, 0.5]]), [0], 0)


class TestEce:
    def test_nan_row_rejected_by_row(self):
        probs = np.array([[0.3, 0.7], [0.6, 0.4], [np.nan, np.nan], [0.5, 0.5]])
        with pytest.raises(DomainError, match="row 2 of probs has a non-finite entry"):
            ece(probs, np.zeros(4, dtype=int), 10)

    def test_inf_row_rejected_by_row(self):
        probs = np.array([[0.3, 0.7], [np.inf, 0.0], [0.1, np.inf]])
        with pytest.raises(DomainError, match="row 1 of probs has a non-finite entry"):
            ece(probs, np.zeros(3, dtype=int), 10)
        with pytest.raises(DomainError, match="row 1 of probs"):
            reliability_bins(probs, np.zeros(3, dtype=int), 10)

    @pytest.mark.parametrize("num_bins", [2.5, 10.0, "10"])
    def test_non_integer_bin_count_rejected(self, num_bins):
        probs, labels = probs_with_confidence([0.9, 0.6], [1, 0])
        message = f"^num_bins must be an integer, got {num_bins!r}$"
        with pytest.raises(DomainError, match=message):
            ece(probs, labels, num_bins)
        with pytest.raises(DomainError, match=message):
            reliability_bins(probs, labels, num_bins)

    @pytest.mark.parametrize("labels", [[0.7, 1.9], [0.0, np.nan], [1.0, -np.inf]])
    def test_labels_that_are_not_whole_numbers_rejected(self, labels):
        probs, _ = probs_with_confidence([0.9, 0.6], [1, 0])
        with pytest.raises(DomainError, match="^labels must be finite whole numbers$"):
            ece(probs, labels, 10)

    def test_whole_float_labels_score_as_integers(self):
        probs, labels = probs_with_confidence([0.9, 0.8, 0.6, 0.55], [1, 0, 1, 0])
        assert ece(probs, labels.astype(float), 10) == ece(probs, labels, 10)

    def test_perfectly_calibrated_degenerate(self):
        probs = np.tile([1.0, 0.0], (8, 1))
        assert ece(probs, np.zeros(8, dtype=int), 10) == 0.0

    def test_hand_computed_case(self):
        probs, labels = probs_with_confidence([0.9, 0.8, 0.6, 0.55], [1, 0, 1, 0])
        # (2/4)*|0.5-0.575| + (1/4)*|0-0.8| + (1/4)*|1-0.9| = 0.2625
        assert abs(ece(probs, labels, 10) - 0.2625) < 1e-12

    def test_bounded_by_one(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            n = int(rng.integers(1, 25))
            c = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(c), size=n)
            labels = rng.integers(0, c, size=n)
            value = ece(probs, labels, 10)
            assert 0.0 <= value <= 1.0

    def test_reorder_invariance(self):
        rng = np.random.default_rng(2)
        probs = rng.dirichlet(np.ones(4), size=20)
        labels = rng.integers(0, 4, size=20)
        base = ece(probs, labels, 10)
        for _ in range(5):
            perm = rng.permutation(20)
            assert abs(ece(probs[perm], labels[perm], 10) - base) < 1e-15

    def test_single_bin_identity(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            n = int(rng.integers(1, 25))
            c = int(rng.integers(2, 5))
            probs = rng.dirichlet(np.ones(c), size=n)
            labels = rng.integers(0, c, size=n)
            confidence = probs.max(axis=1)
            accuracy = (probs.argmax(axis=1) == labels).mean()
            assert abs(ece(probs, labels, 1) - abs(accuracy - confidence.mean())) < 1e-12

    def test_matches_brute_force(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            n = int(rng.integers(1, 21))
            c = int(rng.integers(2, 6))
            num_bins = int(rng.integers(1, 11))
            probs = rng.dirichlet(np.ones(c), size=n)
            labels = rng.integers(0, c, size=n)
            fast = ece(probs, labels, num_bins)
            slow = brute_force_ece(probs, labels, num_bins)
            assert abs(fast - slow) < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(
        num_bins=st.integers(1, 20),
        c=st.integers(2, 5),
        rows=st.lists(
            st.tuples(
                st.sampled_from(("random", "edge", "tie")),
                st.integers(0, 20),  # the edge index m, or the tie width
                st.integers(0, 4),  # the column of an edge confidence
                st.integers(0, 4),  # the label
            ),
            min_size=1,
            max_size=20,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(num_bins=1, c=2, rows=[("edge", 1, 0, 0)], seed=0)
    @example(num_bins=4, c=2, rows=[("tie", 0, 0, 1)], seed=0)
    def test_matches_brute_force_on_edges_and_ties(self, num_bins, c, rows, seed):
        # Rows are Dirichlet draws, rows whose confidence is exactly an edge
        # m/num_bins, or rows whose top probability 1/k is shared by k classes
        # (the argmax takes the lowest of them).
        rng = np.random.default_rng(seed)
        probs, labels = [], []
        for kind, m, column, label in rows:
            if kind == "random":
                row = rng.dirichlet(np.ones(c))
            elif kind == "edge":
                # at least 1/c, so no other entry of the row is larger
                v = max(m % (num_bins + 1), math.ceil(num_bins / c)) / num_bins
                row = np.full(c, (1.0 - v) / (c - 1))
                row[column % c] = v
            else:
                k = 2 + m % (c - 1)
                row = np.zeros(c)
                row[rng.permutation(c)[:k]] = 1.0 / k
            probs.append(row)
            labels.append(label % c)
        fast = ece(np.array(probs), np.array(labels), num_bins)
        assert abs(fast - brute_force_ece(probs, labels, num_bins)) < 1e-12


class TestAgainstStraightforwardForms:
    """The inner-edge binning and the whole-matrix checks agree with the
    clipped binning and the row-by-row checks of ``oracles``, bit for bit."""

    @settings(max_examples=100, deadline=None)
    @given(
        num_bins=st.integers(1, 20),
        picks=st.lists(st.integers(0, 20), max_size=30),
        others=st.lists(st.floats(0.0, 1.0), max_size=30),
    )
    def test_bin_index_matches_clipped_searchsorted(self, num_bins, picks, others):
        # every edge m/n exactly (0 among them), just past 1, and arbitrary values
        edges = [m / num_bins for m in picks if m <= num_bins]
        confidence = np.array([*edges, 1.0 + 1e-7, *others])
        got = _bin_index(confidence, num_bins)
        assert np.array_equal(got, bin_index(confidence, num_bins))
        assert got.dtype == np.intp

    @settings(max_examples=100, deadline=None)
    @given(num_bins=st.integers(1, 20), m=st.integers(1, 20), c=st.integers(2, 4))
    def test_confidence_on_an_edge_or_past_one_lands_as_the_oracle_bins_it(
        self, num_bins, m, c
    ):
        # rows whose confidence is exactly m/n (where m/n >= 1/c), or 1 + 1e-7
        conf = [m / num_bins] if c * m >= num_bins and m <= num_bins else []
        rows = [[v, *[(1.0 - v) / (c - 1)] * (c - 1)] for v in conf]
        rows.append([1.0 + 1e-7, *[0.0] * (c - 1)])
        probs = np.array(rows)
        labels = np.zeros(len(rows), dtype=int)
        want = np.bincount(bin_index(probs.max(axis=1), num_bins), minlength=num_bins)
        assert np.array_equal(reliability_bins(probs, labels, num_bins).counts, want)

    FAULTS = [np.nan, np.inf, -np.inf, -1e-9, -0.5, 0.0, 1.0, 1.0 + 1e-7, 1.0 + 2e-6, 1.5]

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), n=st.integers(1, 6), c=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
    def test_validation_rejects_the_same_rows_with_the_same_messages(self, data, n, c, seed):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        row, col = st.integers(0, n - 1), st.integers(0, c - 1)
        faults = st.tuples(row, col, st.sampled_from(self.FAULTS))
        nudges = st.tuples(row, st.sampled_from([1e-7, -1e-7, 1e-5]))
        bad_labels = st.tuples(row, st.sampled_from([-1, c, c + 3]))
        # labels that are not integers: whole ones pass, the rest are rejected
        odd_labels = st.tuples(row, st.sampled_from([0.0, 1.0, 0.5, 1.7, -0.5, np.nan, np.inf]))
        for i, j, value in data.draw(st.lists(faults, max_size=3)):
            probs[i, j] = value
        for i, nudge in data.draw(st.lists(nudges, max_size=2)):
            probs[i, 0] += nudge
        for i, label in data.draw(st.lists(bad_labels, max_size=1)):
            labels[i] = label
        odd = data.draw(st.lists(odd_labels, max_size=2))
        if odd:
            labels = labels.astype(np.float64)
        for i, label in odd:
            labels[i] = label

        def outcome(check):
            try:
                p, y = check(probs, labels)
            except (DimensionError, DomainError) as exc:
                return type(exc), str(exc)
            return p.tobytes(), y.tobytes()

        assert outcome(_validated) == outcome(validated)


def test_reliability_csv_export(tmp_path):
    probs, labels = probs_with_confidence([0.9, 0.8, 0.6, 0.55], [1, 0, 1, 0])
    bins = reliability_bins(probs, labels, 4)
    path = tmp_path / "reliability.csv"
    write_reliability_csv(bins, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count,mean_conf,accuracy"
    assert len(lines) == 5
    # round-trip parse
    for line in lines[1:]:
        lo, hi, count, conf, acc = line.split(",")
        float(lo), float(hi), int(count), float(conf), float(acc)
