"""The numeric oracles of ``oracles.py`` and the trainer's in-place row softmax."""

import math

import numpy as np
import pytest

from smoothlab import DimensionError, DomainError, NumericError

from oracles import (
    affine_forward,
    ce_softmax_gradient,
    finite_difference_gradient,
    log_softmax,
    softmax,
    softmax_rows,
)


def test_softmax_uniform_on_equal_logits():
    out = softmax([0.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, 0.25, atol=1e-15)


def test_softmax_shift_invariance():
    k = 0.7
    a = softmax([5.0, 5.0 + k, 5.0, 5.0])
    b = softmax([0.0, k, 0.0, 0.0])
    assert np.max(np.abs(a - b)) < 1e-12


def test_softmax_hand_value():
    # direct exponentiation: [e^0, e^ln2] / (1 + 2) = [1/3, 2/3]
    out = softmax([0.0, math.log(2.0)])
    assert abs(out[0] - 1.0 / 3.0) < 1e-12
    assert abs(out[1] - 2.0 / 3.0) < 1e-12


def test_softmax_sums_to_one_and_positive():
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.normal(0, 10, size=rng.integers(2, 40))
        out = softmax(v)
        assert abs(out.sum() - 1.0) < 1e-12
        assert np.all(out > 0.0)


def test_softmax_empty_input_rejected():
    with pytest.raises(DimensionError):
        softmax([])


def test_softmax_non_finite_rejected():
    with pytest.raises(DomainError):
        softmax([0.0, np.inf])


def test_softmax_deterministic():
    v = np.random.default_rng(3).normal(size=16)
    a = softmax(v)
    b = softmax(v)
    assert np.array_equal(a, b)


def test_log_softmax_symmetry():
    out = log_softmax([0.0, 0.0])
    assert np.allclose(out, -math.log(2.0), atol=1e-15)


def test_log_softmax_hand_value():
    out = log_softmax([0.0, math.log(2.0)])
    assert abs(out[0] - math.log(1.0 / 3.0)) < 1e-12
    assert abs(out[1] - math.log(2.0 / 3.0)) < 1e-12


def test_log_softmax_nonpositive():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v = rng.normal(0, 50, size=8)
        assert log_softmax(v).max() <= 0.0


def test_log_softmax_matches_softmax():
    rng = np.random.default_rng(2)
    for _ in range(50):
        v = rng.uniform(-500, 500, size=rng.integers(2, 20))
        assert np.max(np.abs(np.exp(log_softmax(v)) - softmax(v))) < 1e-12


def test_log_softmax_finite_for_extreme_logits():
    out = log_softmax([0.0, 1000.0])
    assert np.all(np.isfinite(out))


def test_softmax_rows_matches_vector_softmax():
    rng = np.random.default_rng(4)
    z = rng.normal(0, 5, size=(6, 9))
    rows = softmax_rows(z)
    for i in range(z.shape[0]):
        assert np.array_equal(rows[i], softmax(z[i]))


def test_affine_identity():
    x = np.array([2.0, -1.0, 3.0])
    out = affine_forward(np.eye(3), np.zeros(3), x)
    assert np.array_equal(out, x)


def test_affine_zero_map():
    out = affine_forward(np.zeros((2, 3)), np.array([5.0, -2.0]), np.array([1.0, 2.0, 3.0]))
    assert np.array_equal(out, [5.0, -2.0])


def test_affine_hand_value():
    out = affine_forward([[1.0, 2.0], [3.0, 4.0]], [1.0, 1.0], [1.0, 1.0])
    assert np.array_equal(out, [4.0, 8.0])


def test_affine_shape_mismatch():
    with pytest.raises(DimensionError):
        affine_forward(np.eye(3), np.zeros(3), np.ones(4))
    with pytest.raises(DimensionError):
        affine_forward(np.eye(3), np.zeros(2), np.ones(3))


def test_ce_gradient_zero_at_target():
    p = np.array([0.1, 0.2, 0.3, 0.4])
    assert np.array_equal(ce_softmax_gradient(p, p), np.zeros(4))


def test_ce_gradient_hand_value():
    out = ce_softmax_gradient([0.25, 0.25, 0.25, 0.25], [1.0, 0.0, 0.0, 0.0])
    assert np.allclose(out, [-0.75, 0.25, 0.25, 0.25], atol=1e-15)


def test_ce_gradient_sums_to_zero():
    rng = np.random.default_rng(5)
    for _ in range(30):
        c = rng.integers(2, 16)
        p = softmax(rng.normal(size=c))
        t = softmax(rng.normal(size=c))
        assert abs(ce_softmax_gradient(p, t).sum()) < 1e-12


def test_ce_gradient_length_mismatch():
    with pytest.raises(DimensionError):
        ce_softmax_gradient([0.5, 0.5], [1.0, 0.0, 0.0])


def test_finite_difference_quadratic():
    grad = finite_difference_gradient(lambda v: float((v**2).sum()), [1.0, 2.0], h=1e-5)
    assert np.max(np.abs(grad - [2.0, 4.0])) < 1e-6


def test_finite_difference_constant():
    grad = finite_difference_gradient(lambda v: 3.25, [1.0, -2.0, 0.5], h=1e-5)
    assert np.max(np.abs(grad)) < 1e-9


def test_finite_difference_rejects_bad_step():
    with pytest.raises(DomainError):
        finite_difference_gradient(lambda v: 0.0, [1.0], h=0.0)


def test_finite_difference_rejects_non_finite_loss():
    with pytest.raises(NumericError):
        finite_difference_gradient(lambda v: float("nan"), [1.0], h=1e-5)


def test_analytic_gradient_matches_finite_differences():
    # 100 seeded (logits, target) pairs across several class counts; the
    # finite-difference estimate is the oracle for ce_softmax_gradient.
    rng = np.random.default_rng(6)
    cases_per_c = {2: 34, 8: 33, 32: 33}
    for c, cases in cases_per_c.items():
        for _ in range(cases):
            logits = rng.normal(0, 2, size=c)
            target = softmax(rng.normal(0, 2, size=c))

            def loss(v):
                return float(-(target * log_softmax(v)).sum())

            analytic = ce_softmax_gradient(softmax(logits), target)
            numeric = finite_difference_gradient(loss, logits, h=1e-5)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-6
