import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import smoothlab.trainer
from smoothlab import (
    BlobSpec,
    ConfigError,
    ConfusionTracker,
    DimensionError,
    DomainError,
    EpochMetrics,
    LabeledDataset,
    MlpConfig,
    ModelParams,
    NumericError,
    OnlineLabelSmoother,
    SplitSpec,
    TargetStrategy,
    TrainConfig,
    evaluate,
    extract_features,
    fit,
    generate_confusable_blobs,
    init_params,
    loss_and_gradients,
    standardize,
    stratified_split,
    train_epoch,
)

from oracles import (
    accumulate,
    affine_forward,
    finite_difference_gradient,
    forward,
    hard_ce,
    hybrid_loss,
    smoother_target,
    soft_ce,
    softmax,
    vanilla_ls_target,
)


def tiny_dataset(seed=0, n_per=12, classes=3, dim=4):
    spec = BlobSpec(classes, n_per, dimension=dim)
    ds = generate_confusable_blobs(spec, seed=seed)
    (ds,) = standardize(ds)
    return ds


def make_config(strategy=None, epochs=3, lr=0.05, seed=0, batch_size=8, momentum=0.9):
    return TrainConfig(
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=lr,
        strategy=strategy or TargetStrategy.hard(),
        seed=seed,
        momentum=momentum,
    )


def flatten(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def load_vector(params, vec):
    pos = 0
    for arr in params.weights + params.biases:
        arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size


class TestConfigs:
    def test_mlp_validation(self):
        with pytest.raises(DomainError):
            MlpConfig((4,))
        with pytest.raises(DomainError):
            MlpConfig((4, 0, 2))
        assert MlpConfig((4, 2)).num_hidden == 0
        assert MlpConfig((4, 8, 8, 2)).num_hidden == 2

    def test_train_config_validation(self):
        with pytest.raises(DomainError):
            make_config(epochs=0)
        with pytest.raises(DomainError):
            make_config(batch_size=0)
        with pytest.raises(DomainError):
            make_config(lr=-0.1)
        with pytest.raises(DomainError):
            make_config(momentum=1.0)
        make_config(lr=0.0)  # no-op updates are allowed

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(DomainError, match="learning_rate"):
            make_config(lr=lr)


class TestInit:
    def test_deterministic(self):
        cfg = MlpConfig((5, 7, 3))
        a = init_params(cfg, 11)
        b = init_params(cfg, 11)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(x, y)

    def test_biases_zero(self):
        params = init_params(MlpConfig((5, 7, 3)), 0)
        for b in params.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_weight_scale(self):
        # 100x100 first layer gives 10k draws; std should sit near sqrt(2/100)
        params = init_params(MlpConfig((100, 100, 2)), 1)
        target = math.sqrt(2.0 / 100.0)
        measured = params.weights[0].std()
        assert abs(measured - target) / target < 0.2

    def test_copy_is_deep(self):
        params = init_params(MlpConfig((3, 4, 2)), 2)
        clone = ModelParams(params.weights, params.biases)
        clone.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != clone.weights[0][0, 0]


class TestForward:
    def test_zero_params_give_uniform_softmax(self):
        params = init_params(MlpConfig((3, 4, 5)), 0)
        for w in params.weights:
            w[...] = 0.0
        logits, _ = forward(params, [1.0, -2.0, 0.5])
        assert np.array_equal(logits, np.zeros(5))

    def test_single_layer_reduces_to_affine(self):
        params = init_params(MlpConfig((4, 3)), 3)
        x = np.array([0.5, -1.0, 2.0, 0.0])
        logits, hidden = forward(params, x)
        assert hidden == []
        assert np.array_equal(logits, affine_forward(params.weights[0], params.biases[0], x))

    def test_hand_computed_two_layer(self):
        w1 = np.array([[1.0, -1.0], [0.5, 2.0]])
        b1 = np.array([0.0, -1.0])
        w2 = np.array([[1.0, 1.0], [-1.0, 0.5], [0.25, 0.0]])
        b2 = np.array([0.5, 0.0, -0.25])
        params = ModelParams([w1, w2], [b1, b2])
        x = [1.0, 2.0]
        # by hand: z1 = [1*1 + -1*2, 0.5*1 + 2*2] + [0,-1] = [-1, 3.5]
        #          h  = [0, 3.5]
        #          logits = [0 + 3.5 + 0.5, 0 + 1.75 + 0, 0 - 0.25]
        logits, hidden = forward(params, x)
        assert np.allclose(hidden[0], [0.0, 3.5], atol=1e-15)
        assert np.allclose(logits, [4.0, 1.75, -0.25], atol=1e-15)

    def test_shape_mismatch(self):
        params = init_params(MlpConfig((3, 2)), 0)
        with pytest.raises(DimensionError):
            forward(params, [1.0, 2.0])


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_params(self):
        ds = tiny_dataset()
        params = init_params(MlpConfig((4, 6, 3)), 0)
        before = [w.copy() for w in params.weights]
        loss = train_epoch(params, ds, np.eye(3), make_config(lr=0.0), epoch=1)
        assert math.isfinite(loss) and loss > 0
        for w, old in zip(params.weights, before):
            assert np.array_equal(w, old)

    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = make_config()
        a = init_params(MlpConfig((4, 6, 3)), 1)
        b = init_params(MlpConfig((4, 6, 3)), 1)
        la = train_epoch(a, ds, np.eye(3), cfg, epoch=2)
        lb = train_epoch(b, ds, np.eye(3), cfg, epoch=2)
        assert la == lb
        for x, y in zip(a.weights, b.weights):
            assert np.array_equal(x, y)

    def test_single_step_descends(self):
        ds = LabeledDataset(np.array([[1.0, -0.5]]), np.array([1]), 2)
        params = init_params(MlpConfig((2, 4, 2)), 5)
        table = np.eye(2)
        before, _, _ = loss_and_gradients(params, ds.features, table[ds.labels])
        train_epoch(params, ds, table, make_config(lr=0.01, batch_size=1, momentum=0.0), epoch=1)
        after, _, _ = loss_and_gradients(params, ds.features, table[ds.labels])
        assert after < before

    def test_non_finite_loss_aborts_with_location(self):
        ds = tiny_dataset()
        params = init_params(MlpConfig((4, 6, 3)), 0)
        params.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError, match="epoch 3, batch 0"):
            train_epoch(params, ds, np.eye(3), make_config(), epoch=3)


def reference_epoch(weights, biases, w_vel, b_vel, ds, table, config, epoch):
    """One SGD epoch written the straightforward way, updating the four lists:
    per-batch fancy indexing, out-of-place forward, softmax and backward, and
    a per-layer momentum step. Returns the mean training loss."""
    order = np.random.default_rng([config.seed, epoch]).permutation(ds.n_samples)
    total = 0.0
    for start in range(0, ds.n_samples, config.batch_size):
        idx = order[start : start + config.batch_size]
        x, targets = ds.features[idx], table[ds.labels[idx]]
        activations = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            activations.append(np.maximum(activations[-1] @ w.T + b, 0.0))
        logits = activations[-1] @ weights[-1].T + biases[-1]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        loss = float(-(targets * np.log(np.maximum(probs, 1e-12))).sum(axis=1).mean())
        delta = (probs - targets) / idx.size
        grads_w, grads_b = [None] * len(weights), [None] * len(weights)
        for layer in range(len(weights) - 1, -1, -1):
            grads_w[layer] = delta.T @ activations[layer]
            grads_b[layer] = delta.sum(axis=0)
            if layer > 0:
                delta = (delta @ weights[layer]) * (activations[layer] > 0.0)
        for layer in range(len(weights)):
            w_vel[layer] = config.momentum * w_vel[layer] + grads_w[layer]
            b_vel[layer] = config.momentum * b_vel[layer] + grads_b[layer]
            weights[layer] -= config.learning_rate * w_vel[layer]
            biases[layer] -= config.learning_rate * b_vel[layer]
        total += loss * idx.size
    return total / ds.n_samples


class TestFlatBuffers:
    def test_lists_are_views_of_the_flat_buffers(self):
        params = init_params(MlpConfig((4, 6, 3)), 0)
        arrays = params.weights + params.biases
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in arrays]))
        params.flat[:] = 1.0
        params.flat_velocity[:] = 2.0
        assert all(np.all(a == 1.0) for a in arrays)
        w_velocity, b_velocity = params.split(params.flat_velocity)
        assert all(np.all(v == 2.0) for v in w_velocity + b_velocity)

    def test_gradients_are_views_of_one_flat_gradient(self):
        ds = tiny_dataset()
        params = init_params(MlpConfig((4, 6, 5, 3)), 1)
        _, _, (grads_w, grads_b) = loss_and_gradients(params, ds.features, np.eye(3)[ds.labels])
        flat = grads_w[0].base
        assert flat.shape == params.flat.shape
        assert all(g.base is flat for g in grads_w + grads_b)
        assert np.array_equal(flat, np.concatenate([g.ravel() for g in grads_w + grads_b]))


class TestBitExactOracle:
    """train_epoch on the flat buffers equals ``reference_epoch`` bit for bit."""

    @pytest.mark.parametrize("sizes", [(4, 3), (4, 6, 3), (4, 6, 5, 3)])
    @pytest.mark.parametrize("batch_size", [1, 7, 36])  # 7 leaves a ragged last batch of 1
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_three_epochs(self, sizes, batch_size, momentum):
        ds = tiny_dataset(seed=2)
        assert ds.n_samples == 36
        table = 0.7 * np.eye(3) + 0.3 * np.random.default_rng(5).dirichlet(np.ones(3), size=3)
        config = make_config(lr=0.1, seed=4, batch_size=batch_size, momentum=momentum)
        params = init_params(MlpConfig(sizes), 4)
        lists = (params.weights, params.biases, *params.split(params.flat_velocity))
        reference = [[a.copy() for a in arrays] for arrays in lists]
        for epoch in (1, 2, 3):
            loss = train_epoch(params, ds, table, config, epoch)
            assert loss == reference_epoch(*reference, ds, table, config, epoch)
        for got, want in zip(lists, reference):
            assert len(got) == len(want)
            assert all(np.array_equal(g, w) for g, w in zip(got, want))


class TestGradients:
    def strategy_tables(self):
        """Effective target tables for all four strategies, C = 8."""
        rng = np.random.default_rng(7)
        tracker = ConfusionTracker(8)
        for _ in range(200):
            accumulate(tracker, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
        tracker.normalize()
        smoother = OnlineLabelSmoother(8)
        smoother.update_batch(
            rng.integers(0, 8, size=100), rng.dirichlet(np.ones(8), size=100)
        )
        smoother.advance_epoch()
        strategies = [TargetStrategy.hard(), TargetStrategy.vanilla(0.1)]
        strategies += [TargetStrategy.cpls(0.5, 0), TargetStrategy.ols(0)]
        # epoch 1 is past the zero-epoch warmups
        return {
            s.kind: smoothlab.trainer._target_table(s, 8, 1, tracker, smoother)
            for s in strategies
        }

    def test_full_network_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 8, size=5)
        for name, table in self.strategy_tables().items():
            params = init_params(MlpConfig((4, 6, 5, 8)), 13)
            targets = table[labels]
            _, _, (grads_w, grads_b) = loss_and_gradients(params, x, targets)
            analytic = np.concatenate([g.ravel() for g in grads_w + grads_b])

            probe = ModelParams(params.weights, params.biases)

            def loss_at(vec):
                load_vector(probe, vec)
                value, _, _ = loss_and_gradients(probe, x, targets)
                return value

            numeric = finite_difference_gradient(loss_at, flatten(params), h=1e-5)
            rel = np.linalg.norm(analytic - numeric) / np.linalg.norm(numeric)
            assert rel < 1e-5, f"strategy {name}: relative gradient error {rel}"


class TestTargetTableProperty:
    """Every table the trainer builds is row-stochastic; hard tables and the
    tables of warmup epochs are exactly the identity."""

    @settings(max_examples=200, deadline=None)
    @given(
        c=st.integers(2, 10),
        cells=st.lists(st.integers(0, 30), min_size=100, max_size=100),
        zero_rows=st.sets(st.integers(0, 9)),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(0, 60),
        alpha=st.floats(0.0, 1.0, exclude_max=True),
        beta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        warmup=st.integers(0, 3),
    )
    def test_row_stochastic_and_identity_in_warmup(
        self, c, cells, zero_rows, seed, batch, alpha, beta, warmup
    ):
        counts = np.array(cells[: c * c]).reshape(c, c)
        counts[[r for r in zero_rows if r < c]] = 0
        tracker = ConfusionTracker(c)
        tracker.accumulate_counts(counts)
        tracker.normalize()
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(c), size=batch)
        # about half the labels agree with the argmax, so some rows accumulate
        labels = np.where(rng.random(batch) < 0.5, probs.argmax(axis=1), rng.integers(0, c, batch))
        smoother = OnlineLabelSmoother(c)
        smoother.update_batch(labels, probs)
        smoother.advance_epoch()
        strategies = [TargetStrategy.hard(), TargetStrategy.vanilla(alpha)]
        strategies += [TargetStrategy.ols(warmup), TargetStrategy.cpls(beta, warmup)]
        for strategy in strategies:
            for epoch in range(1, warmup + 3):  # warmup epochs, then two hybrid ones
                table = smoothlab.trainer._target_table(strategy, c, epoch, tracker, smoother)
                assert table.shape == (c, c)
                assert np.all(table >= 0.0)
                assert np.max(np.abs(table.sum(axis=1) - 1.0)) <= 1e-12
                if strategy.kind == "hard" or (strategy.kind != "vanilla" and epoch <= warmup):
                    assert np.array_equal(table, np.eye(c))


class TestOracleLink:
    """The batch loss on the table the trainer builds equals the mean of the
    per-sample loss definitions, for every strategy."""

    @pytest.mark.parametrize("kind", ["hard", "vanilla", "ols", "cpls"])
    def test_batch_loss_equals_mean_per_sample_oracle(self, kind):
        c = 5
        rng = np.random.default_rng(21)
        tracker = ConfusionTracker(c)
        tracker.accumulate_counts(rng.integers(0, 6, size=(c, c)))
        tracker.normalize()
        smoother = OnlineLabelSmoother(c)
        smoother.update_batch(rng.integers(0, c, size=200), rng.dirichlet(np.ones(c), size=200))
        smoother.advance_epoch()
        strategy, oracle = {
            "hard": (TargetStrategy.hard(), hard_ce),
            "vanilla": (
                TargetStrategy.vanilla(0.2),
                lambda p, y: soft_ce(p, vanilla_ls_target(y, 0.2, c)),
            ),
            "ols": (TargetStrategy.ols(1), lambda p, y: soft_ce(p, smoother_target(smoother, y))),
            "cpls": (TargetStrategy.cpls(0.3, 1), lambda p, y: hybrid_loss(p, y, tracker, 0.3)),
        }[kind]
        # epoch 2 is past the one-epoch warmup, so ols and cpls use their own tables
        table = smoothlab.trainer._target_table(strategy, c, 2, tracker, smoother)
        assert kind == "hard" or not np.allclose(table, np.eye(c))
        params = init_params(MlpConfig((4, 6, c)), 3)
        x = rng.normal(size=(16, 4))
        labels = rng.integers(0, c, size=16)
        loss, _, _ = loss_and_gradients(params, x, table[labels])
        per_sample = [oracle(softmax(forward(params, xi)[0]), y) for xi, y in zip(x, labels)]
        assert abs(loss - np.mean(per_sample)) <= 1e-12


class TestEvaluate:
    def test_constant_predictor(self):
        params = init_params(MlpConfig((2, 3)), 0)
        for w in params.weights:
            w[...] = 0.0
        params.biases[0][...] = [5.0, 0.0, 0.0]
        ds = LabeledDataset(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int), 3)
        accuracy, probs, confusion = evaluate(params, ds)
        assert accuracy == 1.0
        assert confusion[0, 0] == 10

    def test_confusion_totals_and_trace_identity(self):
        ds = tiny_dataset(seed=3)
        params = init_params(MlpConfig((4, 6, 3)), 4)
        accuracy, probs, confusion = evaluate(params, ds)
        assert confusion.sum() == ds.n_samples
        assert abs(np.trace(confusion) / ds.n_samples - accuracy) < 1e-12
        assert probs.shape == (ds.n_samples, 3)


class TestExtractFeatures:
    def test_shape_and_consistency_with_forward(self):
        ds = tiny_dataset(seed=5)
        params = init_params(MlpConfig((4, 7, 3)), 6)
        feats = extract_features(params, ds)
        assert feats.shape == (ds.n_samples, 7)
        # the batched path may differ from the per-sample path in the last bit
        _, hidden = forward(params, ds.features[0])
        assert np.allclose(feats[0], hidden[-1], rtol=1e-12, atol=1e-12)

    def test_requires_hidden_layer(self):
        ds = tiny_dataset(seed=5)
        params = init_params(MlpConfig((4, 3)), 6)
        with pytest.raises(ConfigError):
            extract_features(params, ds)

    def test_deterministic(self):
        ds = tiny_dataset(seed=5)
        params = init_params(MlpConfig((4, 7, 3)), 6)
        assert np.array_equal(extract_features(params, ds), extract_features(params, ds))


def split_blob(seed=0, classes=3, per_class=20, dim=4, overlap=()):
    spec = BlobSpec(classes, per_class, dimension=dim, overlap_pairs=overlap)
    ds = generate_confusable_blobs(spec, seed=seed)
    train, val, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=seed)
    return standardize(train, val, test)


class TestFit:
    def test_hard_never_enters_hybrid(self):
        train, val, _ = split_blob()
        _, metrics, _ = fit(train, val, MlpConfig((4, 6, 3)), make_config(epochs=4))
        assert all(m.phase == "warmup" for m in metrics)

    def test_cpls_phases(self):
        train, val, _ = split_blob()
        cfg = make_config(strategy=TargetStrategy.cpls(0.5, 2), epochs=5)
        _, metrics, _ = fit(train, val, MlpConfig((4, 6, 3)), cfg)
        assert [m.phase for m in metrics] == ["warmup", "warmup", "hybrid", "hybrid", "hybrid"]

    def test_metrics_are_sane(self):
        train, val, _ = split_blob()
        _, metrics, _ = fit(train, val, MlpConfig((4, 6, 3)), make_config(epochs=4))
        for m in metrics:
            assert isinstance(m, EpochMetrics)
            assert 0.0 <= m.val_accuracy <= 1.0
            assert 0.0 <= m.val_ece <= 1.0
            assert m.train_loss >= 0.0 and math.isfinite(m.train_loss)
            assert m.val_loss >= 0.0 and math.isfinite(m.val_loss)

    def test_deterministic_end_to_end(self):
        train, val, _ = split_blob(seed=1)
        cfg = make_config(strategy=TargetStrategy.cpls(0.5, 1), epochs=4, seed=3)
        pa, ma, _ = fit(train, val, MlpConfig((4, 6, 3)), cfg)
        pb, mb, _ = fit(train, val, MlpConfig((4, 6, 3)), cfg)
        assert ma == mb
        for x, y in zip(pa.weights, pb.weights):
            assert np.array_equal(x, y)

    def trajectories(self, train, val, cfg):
        snapshots = []

        def grab(epoch, params, record, tracker):
            snapshots.append([w.copy() for w in params.weights] + [b.copy() for b in params.biases])

        fit(train, val, MlpConfig((4, 6, 3)), cfg, on_epoch=grab)
        return snapshots

    def test_warmup_covering_all_epochs_reproduces_hard(self):
        train, val, _ = split_blob(seed=2, overlap=((0, 1),))
        hard = self.trajectories(train, val, make_config(epochs=4, seed=5))
        cpls = self.trajectories(
            train, val, make_config(strategy=TargetStrategy.cpls(0.5, 10), epochs=4, seed=5)
        )
        for h_epoch, c_epoch in zip(hard, cpls):
            for h_arr, c_arr in zip(h_epoch, c_epoch):
                assert np.array_equal(h_arr, c_arr)

    def test_identity_tracker_matches_hard_for_any_beta(self, monkeypatch):
        # a tracker whose normalize() keeps the identity: the hybrid loss must
        # coincide with hard CE bit for bit, beta irrelevant
        class IdentityTracker(ConfusionTracker):
            def normalize(self):
                return self

        train, val, _ = split_blob(seed=2, overlap=((0, 1),))
        hard = self.trajectories(train, val, make_config(epochs=4, seed=5))
        monkeypatch.setattr(smoothlab.trainer, "ConfusionTracker", IdentityTracker)
        cfg = make_config(strategy=TargetStrategy.cpls(0.3, 0), epochs=4, seed=5)
        cpls = self.trajectories(train, val, cfg)
        assert len(cpls) == len(hard) == 4
        for h_epoch, c_epoch in zip(hard, cpls):
            for h_arr, c_arr in zip(h_epoch, c_epoch):
                assert np.array_equal(h_arr, c_arr)

    def test_tracker_refreshes_every_epoch(self):
        train, val, _ = split_blob(seed=4, overlap=((0, 1),))
        cfg = make_config(strategy=TargetStrategy.cpls(0.5, 2), epochs=5)
        _, _, tracker = fit(train, val, MlpConfig((4, 6, 3)), cfg)
        assert tracker.epoch_tag == 5
        assert np.max(np.abs(tracker.normalized.sum(axis=1) - 1.0)) < 1e-12

    def test_shape_validation(self):
        train, val, _ = split_blob()
        with pytest.raises(DimensionError):
            fit(train, val, MlpConfig((5, 6, 3)), make_config(epochs=1))
        with pytest.raises(DimensionError):
            fit(train, val, MlpConfig((4, 6, 4)), make_config(epochs=1))
