"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import math
import time

import numpy as np
import pytest

from smoothlab import (
    BlobSpec,
    ConfusionTracker,
    ModelParams,
    OnlineLabelSmoother,
    SplitSpec,
    TargetStrategy,
    TrainConfig,
    ece,
    evaluate,
    fit,
    generate_confusable_blobs,
    init_params,
    loss_and_gradients,
    standardize,
    stratified_split,
)
from smoothlab.experiment import config_from_values, prepare_splits, run_compare

from oracles import (
    accumulate,
    ce_softmax_gradient,
    cpls_ce,
    finite_difference_gradient,
    hard_ce,
    hard_target,
    hybrid_loss,
    soft_ce,
    softmax,
    vanilla_ls_target,
)
from test_calibration import brute_force_ece, probs_with_confidence


def verdict(number: int, ok: bool, detail: str) -> None:
    print(f"\n[acceptance] criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_loss_oracles():
    checks = []

    checks.append(abs(hard_ce(np.full(8, 0.125), 2) - math.log(8.0)) <= 1e-12)

    # scalar oracle: 0.925*(-ln 0.7) + 0.075*(-ln 0.1) = 0.5026182051178809
    p = np.array([0.7, 0.1, 0.1, 0.1])
    oracle = 0.925 * -math.log(0.7) + 0.075 * -math.log(0.1)
    checks.append(abs(soft_ce(p, vanilla_ls_target(0, 0.1, 4)) - oracle) <= 1e-6)

    tracker = ConfusionTracker(4)
    for _ in range(3):
        accumulate(tracker, 0, 0)
    accumulate(tracker, 0, 1)
    tracker.normalize()
    mid = hybrid_loss(p, 0, tracker, 0.5)
    mean = (hard_ce(p, 0) + cpls_ce(p, tracker, 0)) / 2.0
    checks.append(abs(mid - mean) <= 1e-12)

    verdict(1, all(checks), "hard/soft/hybrid loss oracles at stated tolerances")


# ---------------------------------------------------------------- criterion 2

def _trajectory(train, val, strategy, seed, epochs=4):
    """The weights and biases after each epoch k: those of ``fit`` for k epochs,
    which trains the first k epochs of a longer fit (see the trainer tests)."""
    snapshots = []
    for k in range(1, epochs + 1):
        cfg = TrainConfig(
            hidden=(6,), epochs=k, batch_size=8, learning_rate=0.05, momentum=0.9, ece_bins=10
        )
        params = fit(train, val, cfg, strategy, seed)[0]
        snapshots.append(params.weights + params.biases)
    return snapshots


def test_criterion_2_equivalence_identities():
    rng = np.random.default_rng(20)
    ok = True

    identity_tracker = ConfusionTracker(6)
    for _ in range(100):
        p = rng.dirichlet(np.ones(6))
        y = int(rng.integers(0, 6))
        ok &= cpls_ce(p, identity_tracker, y) == hard_ce(p, y)
        ok &= soft_ce(p, vanilla_ls_target(y, 0.0, 6)) == hard_ce(p, y)
        ok &= np.array_equal(vanilla_ls_target(y, 0.0, 6), hard_target(y, 6))

    busy_tracker = ConfusionTracker(6)
    for _ in range(60):
        accumulate(busy_tracker, int(rng.integers(0, 6)), int(rng.integers(0, 6)))
    busy_tracker.normalize()
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        y = int(rng.integers(0, 6))
        ok &= hybrid_loss(p, y, busy_tracker, 1.0) == hard_ce(p, y)
        ok &= hybrid_loss(p, y, busy_tracker, 0.0) == cpls_ce(p, busy_tracker, y)

    spec = BlobSpec(3, 20, dimension=4, overlap_pairs=((0, 1),))
    ds = generate_confusable_blobs(spec, seed=2)
    train, val, _ = standardize(*stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=2))
    hard_traj = _trajectory(train, val, TargetStrategy("hard"), seed=5)
    cpls = TargetStrategy("cpls", beta=0.5, warmup_epochs=10)  # N >= epochs
    cpls_traj = _trajectory(train, val, cpls, seed=5)
    for h_epoch, c_epoch in zip(hard_traj, cpls_traj):
        for h_arr, c_arr in zip(h_epoch, c_epoch):
            ok &= np.array_equal(h_arr, c_arr)

    verdict(2, bool(ok), "identity-tracker/alpha-0/beta-endpoint/warmup equivalences are exact")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_gradient_suite():
    started = time.monotonic()
    rng = np.random.default_rng(32)
    ok = True

    # effective target tables for all four strategies, C = 8
    tracker = ConfusionTracker(8)
    for _ in range(300):
        accumulate(tracker, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
    tracker.normalize()
    smoother = OnlineLabelSmoother(8)
    smoother.update_batch(rng.integers(0, 8, size=120), rng.dirichlet(np.ones(8), size=120))
    smoother.advance_epoch()
    strategies = [TargetStrategy("hard"), TargetStrategy("vanilla", alpha=0.1)]
    strategies += [
        TargetStrategy("cpls", beta=0.5, warmup_epochs=0),
        TargetStrategy("ols", warmup_epochs=0),
    ]
    # epoch 1 is past the zero-epoch warmups: the tables the trainer builds
    tables = {s.kind: s.table(8, 1, tracker, smoother) for s in strategies}

    x = rng.normal(size=(5, 4))
    labels = rng.integers(0, 8, size=5)

    # a central-difference check is only valid away from the ReLU kink:
    # every pre-activation must clear the step size by a wide margin
    margin_params = init_params((4, 6, 5, 8), 13)
    h_act = x
    for w, b in zip(margin_params.weights[:-1], margin_params.biases[:-1]):
        z = h_act @ w.T + b
        assert np.abs(z).min() > 1e-3
        h_act = np.maximum(z, 0.0)

    worst = 0.0
    for table in tables.values():
        params = init_params((4, 6, 5, 8), 13)  # two hidden layers
        targets = table[labels]
        _, _, grad = loss_and_gradients(params, x, targets)
        grads_w, grads_b = params.split(grad)
        analytic = np.concatenate([g.ravel() for g in grads_w + grads_b])
        probe = ModelParams(params.weights, params.biases)

        def loss_at(vec, probe=probe, targets=targets):
            pos = 0
            for arr in probe.weights + probe.biases:
                arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
                pos += arr.size
            value, _, _ = loss_and_gradients(probe, x, targets)
            return value

        flat = np.concatenate([a.ravel() for a in params.weights + params.biases])
        numeric = finite_difference_gradient(loss_at, flat, h=1e-5)
        rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
        worst = max(worst, rel)
        ok &= rel < 1e-5

    for _ in range(100):
        c = int(rng.integers(2, 12))
        p = softmax(rng.normal(0, 2, size=c))
        t = rng.dirichlet(np.ones(c))
        ok &= np.max(np.abs(ce_softmax_gradient(p, t) - (p - t))) <= 1e-12

    elapsed = time.monotonic() - started
    ok &= elapsed < 10.0
    verdict(3, bool(ok), f"all four strategies, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_ece_oracle():
    ok = True
    probs, labels = probs_with_confidence([0.9, 0.8, 0.6, 0.55], [1, 0, 1, 0])
    ok &= abs(ece(probs, labels, 10) - 0.2625) <= 1e-12

    rng = np.random.default_rng(40)
    for _ in range(200):
        n = int(rng.integers(1, 21))
        c = int(rng.integers(2, 6))
        bins = int(rng.integers(1, 11))
        p = rng.dirichlet(np.ones(c), size=n)
        y = rng.integers(0, c, size=n)
        ok &= abs(ece(p, y, bins) - brute_force_ece(p, y, bins)) <= 1e-12

    for _ in range(50):
        n = int(rng.integers(1, 25))
        c = int(rng.integers(2, 6))
        p = rng.dirichlet(np.ones(c), size=n)
        y = rng.integers(0, c, size=n)
        expected = abs((p.argmax(axis=1) == y).mean() - p.max(axis=1).mean())
        ok &= abs(ece(p, y, 1) - expected) <= 1e-12

    verdict(4, bool(ok), "hand case 0.2625, 200 brute-force instances, n=1 identity")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_confusion_tracker():
    ok = True
    tracker = ConfusionTracker(4)
    for _ in range(3):
        accumulate(tracker, 0, 0)
    accumulate(tracker, 0, 1)
    tracker.normalize()
    ok &= np.array_equal(tracker.normalized[0], [0.75, 0.25, 0.0, 0.0])

    rng = np.random.default_rng(50)
    for _ in range(50):
        c = int(rng.integers(2, 10))
        tracker = ConfusionTracker(c)
        for _ in range(int(rng.integers(0, 60))):
            accumulate(tracker, int(rng.integers(0, c)), int(rng.integers(0, c)))
        tracker.normalize()
        ok &= np.max(np.abs(tracker.normalized.sum(axis=1) - 1.0)) <= 1e-12

    empty = ConfusionTracker(5)
    accumulate(empty, 0, 1)
    empty.normalize()
    for r in range(1, 5):
        ok &= np.array_equal(empty.normalized[r], np.eye(5)[r])

    verdict(5, bool(ok), "row normalization exact, zero rows fall back to identity")


# ------------------------------------------------------- criteria 6 and 7

@pytest.fixture(scope="module")
def headline_runs():
    """Hard vs CPLS on the default synthetic benchmark, seeds 1..10."""
    started = time.monotonic()
    cfg = config_from_values({})  # package defaults: 8x100 blobs, dim 8, lr 0.1
    strategies = {
        "hard": TargetStrategy("hard"),
        "cpls": TargetStrategy("cpls", beta=0.5, warmup_epochs=5),
    }
    results = {name: {"acc": [], "ece": []} for name in strategies}
    warmup_rows = []
    for seed in range(1, 11):
        train, val, test = prepare_splits(cfg, seed)
        for name, strategy in strategies.items():
            params, metrics, tables = fit(train, val, cfg.train, strategy, seed)
            accuracy, probs, _ = evaluate(params, test)
            results[name]["acc"].append(accuracy)
            results[name]["ece"].append(ece(probs, test.labels, cfg.train.ece_bins))
            if strategy.kind == "cpls":
                # row 0 of the tracker's table at the end of the last warmup epoch
                warmup_rows.append(tables[strategy.warmup_epochs - 1][0])
    results["elapsed"] = time.monotonic() - started
    results["warmup_rows"] = warmup_rows
    return results


def test_criterion_6_directional_replication(headline_runs):
    hard_acc = float(np.median(headline_runs["hard"]["acc"]))
    hard_ece_med = float(np.median(headline_runs["hard"]["ece"]))
    cpls_acc = float(np.median(headline_runs["cpls"]["acc"]))
    cpls_ece_med = float(np.median(headline_runs["cpls"]["ece"]))
    elapsed = headline_runs["elapsed"]
    ok = cpls_ece_med <= hard_ece_med and cpls_acc >= hard_acc - 0.02 and elapsed < 300.0
    verdict(
        6,
        ok,
        f"median acc/ECE hard {hard_acc:.4f}/{hard_ece_med:.4f} vs "
        f"cpls {cpls_acc:.4f}/{cpls_ece_med:.4f} in {elapsed:.0f}s",
    )


def test_criterion_7_confusion_mass_property(headline_runs):
    rows = headline_runs["warmup_rows"]
    hits = sum(1 for row in rows if all(row[1] > row[c] for c in range(4, 8)))
    verdict(7, hits >= 8, f"post-warmup row 0 favors class 1 over classes 4-7 in {hits}/10 seeds")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_split_protocol():
    ok = True
    spec = BlobSpec(4, 100, dimension=2, overlap_pairs=())
    fractions = SplitSpec(0.70, 0.15, 0.15)
    for trial in range(50):
        ds = generate_confusable_blobs(spec, seed=trial)
        train, val, test = stratified_split(ds, fractions, seed=trial)
        for c in range(4):
            ok &= int(np.sum(train.labels == c)) == 70
            ok &= int(np.sum(val.labels == c)) == 15
            ok &= int(np.sum(test.labels == c)) == 15
        stacked = np.vstack([train.features, val.features, test.features])
        ok &= stacked.shape[0] == ds.n_samples
        ok &= bool(np.array_equal(np.sort(stacked, axis=0), np.sort(ds.features, axis=0)))
        again = stratified_split(ds, fractions, seed=trial)
        for a, b in zip((train, val, test), again):
            ok &= bool(np.array_equal(a.features, b.features))
            ok &= bool(np.array_equal(a.labels, b.labels))
    verdict(8, bool(ok), "exact 70/15/15 per class, partition + determinism over 50 trials")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_compare_determinism(tmp_path):
    base = {
        "data.classes": "4",
        "data.per_class": "20",
        "data.dimension": "3",
        "data.overlap": "0:1",
        "train.epochs": "5",
        "train.batch_size": "16",
        "strategies": "hard,cpls",
        "cpls.warmup": "1",
        "seeds": "1,2",
    }
    cfg_a = config_from_values({**base, "out": str(tmp_path / "a")})
    cfg_b = config_from_values({**base, "out": str(tmp_path / "b")})
    table_a, _ = run_compare(cfg_a)
    table_b, _ = run_compare(cfg_b)
    identical = table_a.read_bytes() == table_b.read_bytes()
    verdict(9, identical, "two compare invocations emit byte-identical comparison CSVs")
