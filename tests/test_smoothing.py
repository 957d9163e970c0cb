import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from smoothlab import (
    ConfusionTracker,
    DimensionError,
    DomainError,
    OnlineLabelSmoother,
    TargetStrategy,
    write_confusion_csv,
)
from smoothlab.smoothing import STRATEGY_KINDS

from oracles import (
    accumulate,
    ce_softmax_gradient,
    cpls_ce,
    finite_difference_gradient,
    hard_ce,
    hard_target,
    hybrid_loss,
    log_softmax,
    smoother_target,
    smoother_update,
    smoother_update_batch,
    soft_ce,
    softmax,
    vanilla_ls_target,
)

P4 = np.array([0.7, 0.1, 0.1, 0.1])

# Frozen oracle values, each computed from the scalar formula next to it.
HARD_CE_P4 = -math.log(0.7)  # 0.35667494393873245
VANILLA_CE_P4 = 0.925 * -math.log(0.7) + 0.075 * -math.log(0.1)  # 0.5026182051178809
CPLS_CE_P4 = 0.75 * -math.log(0.7) + 0.25 * -math.log(0.1)  # 0.8431524812025607


class TestTargetStrategy:
    # The parameters each kind takes, written out as the specification.
    KIND_PARAMETERS = {
        "hard": (),
        "vanilla": ("alpha",),
        "ols": ("warmup_epochs",),
        "cpls": ("beta", "warmup_epochs"),
    }
    VALID = {"alpha": 0.1, "beta": 0.5, "warmup_epochs": 2}

    def test_fields(self):
        assert TargetStrategy("hard").kind == "hard"
        assert TargetStrategy("vanilla", alpha=0.2).alpha == 0.2
        assert TargetStrategy("ols", warmup_epochs=3).warmup_epochs == 3
        s = TargetStrategy("cpls", beta=0.4, warmup_epochs=7)
        assert (s.beta, s.warmup_epochs) == (0.4, 7)

    def test_kinds_are_the_specified_ones(self):
        assert STRATEGY_KINDS == tuple(self.KIND_PARAMETERS)

    @pytest.mark.parametrize("kind", list(KIND_PARAMETERS))
    @pytest.mark.parametrize("name", ["alpha", "beta", "warmup_epochs"])
    def test_each_parameter_required_exactly_when_listed(self, kind, name):
        given = {field: self.VALID[field] for field in self.KIND_PARAMETERS[kind]}
        assert TargetStrategy(kind, **given).kind == kind
        if name in given:
            del given[name]
            word = "required"
        else:
            given[name] = self.VALID[name]
            word = "not allowed"
        with pytest.raises(DomainError, match=f"^{name} is {word} for kind '{kind}'$"):
            TargetStrategy(kind, **given)

    def test_ranges(self):
        with pytest.raises(DomainError):
            TargetStrategy("vanilla", alpha=1.0)
        with pytest.raises(DomainError):
            TargetStrategy("cpls", beta=0.0, warmup_epochs=5)
        with pytest.raises(DomainError):
            TargetStrategy("ols", warmup_epochs=-1)
        with pytest.raises(DomainError):
            TargetStrategy("nope")


class TestTargets:
    def test_hard_target(self):
        assert np.array_equal(hard_target(1, 4), [0.0, 1.0, 0.0, 0.0])
        assert np.array_equal(hard_target(0, 2), [1.0, 0.0])

    def test_hard_target_sums_to_one(self):
        for c in (2, 5, 9):
            for y in range(c):
                assert hard_target(y, c).sum() == 1.0

    def test_hard_target_range(self):
        with pytest.raises(DomainError):
            hard_target(4, 4)

    def test_vanilla_alpha_zero_is_hard(self):
        for y in range(4):
            assert np.array_equal(vanilla_ls_target(y, 0.0, 4), hard_target(y, 4))

    def test_vanilla_hand_value(self):
        t = vanilla_ls_target(0, 0.1, 4)
        assert np.max(np.abs(t - [0.925, 0.025, 0.025, 0.025])) < 1e-15

    def test_vanilla_sums_to_one(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            c = int(rng.integers(2, 12))
            alpha = float(rng.uniform(0, 0.999))
            t = vanilla_ls_target(int(rng.integers(0, c)), alpha, c)
            assert abs(t.sum() - 1.0) < 1e-12
            assert np.all(t >= 0.0) and np.all(t <= 1.0)

    def test_vanilla_alpha_range(self):
        with pytest.raises(DomainError):
            vanilla_ls_target(0, -0.1, 4)
        with pytest.raises(DomainError):
            vanilla_ls_target(0, 1.0, 4)


class TestLosses:
    def test_hard_ce_perfect_prediction(self):
        assert hard_ce([0.0, 1.0, 0.0], 1) == 0.0

    def test_hard_ce_uniform(self):
        assert abs(hard_ce(np.full(8, 0.125), 3) - math.log(8.0)) < 1e-12

    def test_hard_ce_hand_value(self):
        assert abs(hard_ce(P4, 0) - HARD_CE_P4) < 1e-12

    def test_hard_ce_zero_probability_is_finite(self):
        loss = hard_ce([0.0, 1.0], 0)
        assert math.isfinite(loss)
        assert abs(loss - -math.log(1e-12)) < 1e-9

    def test_soft_ce_entropy_at_equality(self):
        p = np.full(4, 0.25)
        assert abs(soft_ce(p, p) - math.log(4.0)) < 1e-12

    def test_soft_ce_hand_value(self):
        assert abs(soft_ce(P4, vanilla_ls_target(0, 0.1, 4)) - VANILLA_CE_P4) < 1e-12

    def test_soft_ce_one_hot_equals_hard_ce(self):
        rng = np.random.default_rng(1)
        for _ in range(30):
            c = int(rng.integers(2, 10))
            p = rng.dirichlet(np.ones(c))
            y = int(rng.integers(0, c))
            assert soft_ce(p, hard_target(y, c)) == hard_ce(p, y)

    def test_soft_ce_length_mismatch(self):
        with pytest.raises(DimensionError):
            soft_ce([0.5, 0.5], [1.0, 0.0, 0.0])


class TestConfusionTracker:
    def test_initial_state_is_identity(self):
        tr = ConfusionTracker(4)
        assert np.array_equal(tr.normalized, np.eye(4))
        assert tr.counts.sum() == 0

    def test_single_accumulation(self):
        tr = ConfusionTracker(4)
        accumulate(tr, 0, 1)
        assert tr.counts[0, 1] == 1
        assert tr.counts.sum() == 1
        assert np.array_equal(tr.normalized, np.eye(4))  # unchanged until normalize

    def test_total_count(self):
        tr = ConfusionTracker(3)
        rng = np.random.default_rng(2)
        for _ in range(57):
            accumulate(tr, int(rng.integers(0, 3)), int(rng.integers(0, 3)))
        assert tr.counts.sum() == 57

    def test_order_independence(self):
        events = [(0, 1), (2, 2), (0, 1), (1, 0), (2, 0)]
        a = ConfusionTracker(3)
        b = ConfusionTracker(3)
        for t, p in events:
            accumulate(a, t, p)
        for t, p in reversed(events):
            accumulate(b, t, p)
        assert np.array_equal(a.counts, b.counts)

    def test_normalize_hand_row(self):
        tr = ConfusionTracker(4)
        for _ in range(3):
            accumulate(tr, 0, 0)
        accumulate(tr, 0, 1)
        tr.normalize()
        assert np.array_equal(tr.normalized[0], [0.75, 0.25, 0.0, 0.0])

    def test_zero_row_identity_fallback(self):
        tr = ConfusionTracker(4)
        accumulate(tr, 0, 1)
        tr.normalize()
        assert np.array_equal(tr.normalized[2], [0.0, 0.0, 1.0, 0.0])

    def test_diagonal_counts_give_identity(self):
        tr = ConfusionTracker(3)
        for c in range(3):
            for _ in range(5):
                accumulate(tr, c, c)
        tr.normalize()
        assert np.array_equal(tr.normalized, np.eye(3))

    def test_normalize_resets_counts(self):
        tr = ConfusionTracker(3)
        accumulate(tr, 0, 1)
        tr.normalize()
        assert tr.counts.sum() == 0
        # a pass with no counts falls back to the identity in every row
        tr.normalize()
        assert np.array_equal(tr.normalized, np.eye(3))

    def test_rows_stochastic_after_random_accumulation(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            c = int(rng.integers(2, 9))
            tr = ConfusionTracker(c)
            for _ in range(int(rng.integers(0, 40))):
                accumulate(tr, int(rng.integers(0, c)), int(rng.integers(0, c)))
            tr.normalize()
            sums = tr.normalized.sum(axis=1)
            assert np.max(np.abs(sums - 1.0)) < 1e-12
            assert np.all(tr.normalized >= 0.0) and np.all(tr.normalized <= 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.5, 2.25])
    def test_counts_must_be_finite_whole_numbers(self, bad):
        tr = ConfusionTracker(2)
        counts = np.array([[1.0, 0.0], [bad, 3.0]])
        with pytest.raises(DomainError, match="finite whole numbers"):
            tr.accumulate_counts(counts)
        assert tr.counts.sum() == 0

    def test_whole_float_and_integer_counts_add_alike(self):
        a, b = ConfusionTracker(2), ConfusionTracker(2)
        a.accumulate_counts(np.array([[2.0, 1.0], [0.0, 3.0]]))
        b.accumulate_counts(np.array([[2, 1], [0, 3]], dtype=np.int32))
        assert a.counts.dtype == b.counts.dtype == np.int64
        assert np.array_equal(a.counts, b.counts)

    def test_out_of_range_ids(self):
        tr = ConfusionTracker(3)
        with pytest.raises(DomainError):
            accumulate(tr, 3, 0)
        with pytest.raises(DomainError):
            accumulate(tr, 0, -1)


class TestCplsLoss:
    def test_identity_tracker_equals_hard_ce(self):
        tr = ConfusionTracker(4)
        rng = np.random.default_rng(4)
        for _ in range(20):
            p = rng.dirichlet(np.ones(4))
            y = int(rng.integers(0, 4))
            assert cpls_ce(p, tr, y) == hard_ce(p, y)

    def test_hand_value(self):
        tr = ConfusionTracker(4)
        for _ in range(3):
            accumulate(tr, 0, 0)
        accumulate(tr, 0, 1)
        tr.normalize()
        assert abs(cpls_ce(P4, tr, 0) - CPLS_CE_P4) < 1e-12

    def test_gibbs_inequality(self):
        tr = ConfusionTracker(4)
        for _ in range(3):
            accumulate(tr, 0, 0)
        accumulate(tr, 0, 1)
        tr.normalize()
        row = tr.normalized[0]
        entropy = -(row[row > 0] * np.log(row[row > 0])).sum()
        assert cpls_ce(row, tr, 0) >= entropy - 1e-12
        assert cpls_ce(P4, tr, 0) >= entropy - 1e-12


class TestHybridLoss:
    def tracker(self):
        tr = ConfusionTracker(4)
        for _ in range(3):
            accumulate(tr, 0, 0)
        accumulate(tr, 0, 1)
        tr.normalize()
        return tr

    def test_endpoints_exact(self):
        tr = self.tracker()
        assert hybrid_loss(P4, 0, tr, 1.0) == hard_ce(P4, 0)
        assert hybrid_loss(P4, 0, tr, 0.0) == cpls_ce(P4, tr, 0)

    def test_midpoint_is_mean_of_endpoints(self):
        tr = self.tracker()
        mid = hybrid_loss(P4, 0, tr, 0.5)
        mean = (hybrid_loss(P4, 0, tr, 0.0) + hybrid_loss(P4, 0, tr, 1.0)) / 2.0
        assert abs(mid - mean) < 1e-12

    def test_hand_value(self):
        tr = self.tracker()
        expected = (HARD_CE_P4 + CPLS_CE_P4) / 2.0  # mean of the two frozen oracles
        assert abs(hybrid_loss(P4, 0, tr, 0.5) - expected) < 1e-12

    def test_beta_range(self):
        tr = self.tracker()
        with pytest.raises(DomainError):
            hybrid_loss(P4, 0, tr, 1.5)


class TestOnlineLabelSmoother:
    def test_fallback_is_one_hot(self):
        ols = OnlineLabelSmoother(3)
        ols.advance_epoch()
        assert np.array_equal(smoother_target(ols, 1), [0.0, 1.0, 0.0])

    def test_single_sample(self):
        ols = OnlineLabelSmoother(2)
        smoother_update(ols, [0.6, 0.4], 0)
        ols.advance_epoch()
        assert np.array_equal(smoother_target(ols, 0), [0.6, 0.4])

    def test_mean_of_accumulated(self):
        ols = OnlineLabelSmoother(2)
        smoother_update(ols, [0.6, 0.4], 0)
        smoother_update(ols, [0.8, 0.2], 0)
        ols.advance_epoch()
        assert np.max(np.abs(smoother_target(ols, 0) - [0.7, 0.3])) < 1e-15

    def test_incorrect_predictions_ignored(self):
        ols = OnlineLabelSmoother(2)
        smoother_update(ols, [0.4, 0.6], 0)  # argmax is 1, label is 0
        ols.advance_epoch()
        assert np.array_equal(smoother_target(ols, 0), [1.0, 0.0])

    def test_targets_come_from_previous_epoch(self):
        ols = OnlineLabelSmoother(2)
        smoother_update(ols, [0.6, 0.4], 0)
        # not yet advanced: still serving the identity
        assert np.array_equal(smoother_target(ols, 0), [1.0, 0.0])
        ols.advance_epoch()
        assert np.array_equal(smoother_target(ols, 0), [0.6, 0.4])
        # a new epoch with no correct predictions falls back to one-hot
        ols.advance_epoch()
        assert np.array_equal(smoother_target(ols, 0), [1.0, 0.0])

    def test_update_batch_matches_scalar_update(self):
        rng = np.random.default_rng(5)
        probs = rng.dirichlet(np.ones(3), size=15)
        labels = rng.integers(0, 3, size=15)
        a = OnlineLabelSmoother(3)
        b = OnlineLabelSmoother(3)
        a.update_batch(labels, probs)
        for p, y in zip(probs, labels):
            smoother_update(b, p, int(y))
        a.advance_epoch()
        b.advance_epoch()
        assert np.allclose(a.targets, b.targets, atol=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.integers(2, 8),
        sizes=st.lists(st.integers(0, 40), max_size=12),
        seed=st.integers(0, 2**32 - 1),
        epochs=st.integers(1, 3),
    )
    def test_epoch_fold_equals_per_batch_folds_bit_for_bit(self, c, sizes, seed, epochs):
        """``advance_epoch`` folds the recorded batches with one add.at; the
        oracle folds each batch as it comes. The targets agree to the bit."""
        rng = np.random.default_rng(seed)
        deferred, per_batch = OnlineLabelSmoother(c), OnlineLabelSmoother(c)
        for _ in range(epochs):
            for size in sizes:
                # coarse probabilities make argmax ties and repeated rows common
                probs = rng.dirichlet(np.ones(c), size=size).round(1)
                probs /= probs.sum(axis=1, keepdims=True)
                agree = rng.random(size) < 0.6
                labels = np.where(agree, probs.argmax(axis=1), rng.integers(0, c, size))
                deferred.update_batch(labels, probs)
                smoother_update_batch(per_batch, labels, probs)
            deferred.advance_epoch()
            per_batch.advance_epoch()
            assert deferred.targets.tobytes() == per_batch.targets.tobytes()


class TestLossGradients:
    """Each loss's logit gradient is p - effective_target; the finite-difference
    estimate over the logits is the oracle."""

    def check(self, target_of_y, loss_of_p):
        rng = np.random.default_rng(9)
        for _ in range(20):
            logits = rng.normal(0, 2, size=4)
            y = int(rng.integers(0, 4))
            target = target_of_y(y)
            analytic = ce_softmax_gradient(softmax(logits), target)
            numeric = finite_difference_gradient(
                lambda v: float(-(target * log_softmax(v)).sum()), logits, h=1e-5
            )
            assert np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric) < 1e-6
            assert abs(loss_of_p(softmax(logits), y) - soft_ce(softmax(logits), target)) < 1e-12

    def test_hard_loss_gradient(self):
        self.check(lambda y: hard_target(y, 4), lambda p, y: hard_ce(p, y))

    def test_vanilla_loss_gradient(self):
        self.check(
            lambda y: vanilla_ls_target(y, 0.1, 4),
            lambda p, y: soft_ce(p, vanilla_ls_target(y, 0.1, 4)),
        )

    def test_cpls_loss_gradient(self):
        tr = ConfusionTracker(4)
        rng = np.random.default_rng(10)
        for _ in range(40):
            accumulate(tr, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        tr.normalize()
        self.check(lambda y: tr.normalized[y], lambda p, y: cpls_ce(p, tr, y))

    def test_hybrid_loss_gradient(self):
        tr = ConfusionTracker(4)
        rng = np.random.default_rng(11)
        for _ in range(40):
            accumulate(tr, int(rng.integers(0, 4)), int(rng.integers(0, 4)))
        tr.normalize()
        # epoch 1 is past a zero-epoch warmup: the trainer's cpls table for beta 0.5
        table = TargetStrategy("cpls", beta=0.5, warmup_epochs=0).table(4, 1, tr, None)
        self.check(lambda y: table[y], lambda p, y: hybrid_loss(p, y, tr, 0.5))


def test_write_confusion_csv(tmp_path):
    tr = ConfusionTracker(3)
    tables = [tr.normalized]
    accumulate(tr, 0, 1)
    tr.normalize()
    tables.append(tr.normalized)
    path = tmp_path / "confusion.csv"
    write_confusion_csv(tables, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 2 * 3
    assert lines[0] == "epoch,true_class,p0,p1,p2"
    assert lines[1] == "1,0,1.000000,0.000000,0.000000"
    assert lines[4] == "2,0,0.000000,1.000000,0.000000"
    assert all(len(line.split(",")) == 5 for line in lines)


@pytest.mark.parametrize(
    "history",
    [[], np.zeros((0, 3, 3)), np.eye(3), np.zeros((2, 3, 4)), np.zeros((2, 0, 0))],
    ids=["no-epochs", "zero-epochs", "one-matrix", "not-square", "no-classes"],
)
def test_write_confusion_csv_rejects_all_but_a_stack_of_square_tables(tmp_path, history):
    path = tmp_path / "confusion.csv"
    with pytest.raises(DimensionError, match="non-empty \\(epochs, C, C\\) stack"):
        write_confusion_csv(history, path)
    assert not path.exists()
