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
    load_csv,
    loss_and_gradients,
    save_csv,
    standardize,
    stratified_split,
    train_epoch,
)

from smoothlab.trainer import _fit_stack, _RunError, _RunState, _scores, _stack_scores

from oracles import (
    accumulate,
    affine_forward,
    confusion_counts,
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
    spec = BlobSpec(classes, n_per, dimension=dim, overlap_pairs=())
    ds = generate_confusable_blobs(spec, seed=seed)
    (ds,) = standardize(ds)
    return ds


HARD = TargetStrategy("hard")


def make_config(epochs=3, lr=0.05, batch_size=8, momentum=0.9, ece_bins=10, hidden=(6,)):
    return TrainConfig(
        hidden=hidden,
        epochs=epochs,
        batch_size=batch_size,
        learning_rate=lr,
        momentum=momentum,
        ece_bins=ece_bins,
    )


def flatten(params):
    return np.concatenate([a.ravel() for a in params.weights + params.biases])


def load_vector(params, vec):
    pos = 0
    for arr in params.weights + params.biases:
        arr[...] = vec[pos : pos + arr.size].reshape(arr.shape)
        pos += arr.size


class TestConfigs:
    def test_layer_size_validation(self):
        with pytest.raises(DomainError, match="input and output"):
            init_params((4,), 0)
        with pytest.raises(DomainError, match="layer sizes"):
            init_params((4, 0, 2), 0)
        assert init_params((4, 2), 0).num_layers == 1
        assert init_params((4, 8, 8, 2), 0).num_layers == 3

    def test_train_config_validation(self):
        with pytest.raises(DomainError, match="hidden"):
            make_config(hidden=(0,))
        with pytest.raises(DomainError, match="hidden"):
            make_config(hidden=(8, -2))
        make_config(hidden=())  # no hidden layer: softmax regression
        with pytest.raises(DomainError):
            make_config(epochs=0)
        with pytest.raises(DomainError):
            make_config(batch_size=0)
        with pytest.raises(DomainError):
            make_config(lr=-0.1)
        with pytest.raises(DomainError):
            make_config(momentum=1.0)
        with pytest.raises(DomainError):
            make_config(ece_bins=0)
        make_config(lr=0.0)  # no-op updates are allowed

    @pytest.mark.parametrize("lr", [math.nan, math.inf])
    def test_non_finite_learning_rate_rejected(self, lr):
        with pytest.raises(DomainError, match="learning_rate"):
            make_config(lr=lr)


class TestInit:
    def test_deterministic(self):
        a = init_params((5, 7, 3), 11)
        b = init_params((5, 7, 3), 11)
        for x, y in zip(a.weights + a.biases, b.weights + b.biases):
            assert np.array_equal(x, y)

    def test_biases_zero(self):
        params = init_params((5, 7, 3), 0)
        for b in params.biases:
            assert np.array_equal(b, np.zeros_like(b))

    def test_weight_scale(self):
        # 100x100 first layer gives 10k draws; std should sit near sqrt(2/100)
        params = init_params((100, 100, 2), 1)
        target = math.sqrt(2.0 / 100.0)
        measured = params.weights[0].std()
        assert abs(measured - target) / target < 0.2

    def test_copy_is_deep(self):
        params = init_params((3, 4, 2), 2)
        clone = ModelParams(params.weights, params.biases)
        clone.weights[0][0, 0] += 1.0
        assert params.weights[0][0, 0] != clone.weights[0][0, 0]


class TestForward:
    def test_zero_params_give_uniform_softmax(self):
        params = init_params((3, 4, 5), 0)
        for w in params.weights:
            w[...] = 0.0
        logits, _ = forward(params, [1.0, -2.0, 0.5])
        assert np.array_equal(logits, np.zeros(5))

    def test_single_layer_reduces_to_affine(self):
        params = init_params((4, 3), 3)
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
        params = init_params((3, 2), 0)
        with pytest.raises(DimensionError):
            forward(params, [1.0, 2.0])


class TestTrainEpoch:
    def test_zero_learning_rate_keeps_params(self):
        ds = tiny_dataset()
        params = init_params((4, 6, 3), 0)
        before = [w.copy() for w in params.weights]
        loss = train_epoch(params, ds, np.eye(3), make_config(lr=0.0), seed=0, epoch=1)
        assert math.isfinite(loss) and loss > 0
        for w, old in zip(params.weights, before):
            assert np.array_equal(w, old)

    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = make_config()
        a = init_params((4, 6, 3), 1)
        b = init_params((4, 6, 3), 1)
        la = train_epoch(a, ds, np.eye(3), cfg, seed=0, epoch=2)
        lb = train_epoch(b, ds, np.eye(3), cfg, seed=0, epoch=2)
        assert la == lb
        for x, y in zip(a.weights, b.weights):
            assert np.array_equal(x, y)

    def test_single_step_descends(self):
        ds = LabeledDataset(np.array([[1.0, -0.5]]), np.array([1]), 2)
        params = init_params((2, 4, 2), 5)
        table = np.eye(2)
        before, _, _ = loss_and_gradients(params, ds.features, table[ds.labels])
        config = make_config(lr=0.01, batch_size=1, momentum=0.0)
        train_epoch(params, ds, table, config, seed=0, epoch=1)
        after, _, _ = loss_and_gradients(params, ds.features, table[ds.labels])
        assert after < before

    def test_non_finite_loss_aborts_with_location(self):
        ds = tiny_dataset()
        params = init_params((4, 6, 3), 0)
        params.weights[0][0, 0] = np.nan
        with pytest.raises(NumericError, match="epoch 3, batch 0"):
            train_epoch(params, ds, np.eye(3), make_config(), seed=0, epoch=3)


def reference_epoch(weights, biases, w_vel, b_vel, ds, table, config, seed, epoch):
    """One SGD epoch written the straightforward way, updating the four lists:
    per-batch fancy indexing, out-of-place forward, softmax and backward, and
    a per-layer momentum step. Returns the mean training loss."""
    order = np.random.default_rng([seed, epoch]).permutation(ds.n_samples)
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
        params = init_params((4, 6, 3), 0)
        arrays = params.weights + params.biases
        assert np.array_equal(params.flat, np.concatenate([a.ravel() for a in arrays]))
        params.flat[:] = 1.0
        params.flat_velocity[:] = 2.0
        assert all(np.all(a == 1.0) for a in arrays)
        w_velocity, b_velocity = params.split(params.flat_velocity)
        assert all(np.all(v == 2.0) for v in w_velocity + b_velocity)

    def test_gradient_is_one_flat_array_split_into_views(self):
        ds = tiny_dataset()
        params = init_params((4, 6, 5, 3), 1)
        _, _, grad = loss_and_gradients(params, ds.features, np.eye(3)[ds.labels])
        assert grad.shape == params.flat.shape
        grads_w, grads_b = params.split(grad)
        shapes = [a.shape for a in params.weights + params.biases]
        assert [g.shape for g in grads_w + grads_b] == shapes
        assert np.array_equal(grad, np.concatenate([g.ravel() for g in grads_w + grads_b]))


class TestEmptyInputs:
    def test_empty_batch_is_refused(self):
        params = init_params((4, 6, 3), 1)
        with pytest.raises(DimensionError, match="at least one sample"):
            loss_and_gradients(params, np.zeros((0, 4)), np.zeros((0, 3)))

    def test_empty_dataset_is_not_evaluated(self):
        params = init_params((4, 6, 3), 1)
        ds = LabeledDataset(np.zeros((0, 4)), np.zeros(0, dtype=int), 3)
        with pytest.raises(DimensionError, match="0 samples"):
            evaluate(params, ds)


class TestBufferContracts:
    """What the step's buffers promise callers: the gradient lives in one
    buffer per params, and every batch's probabilities are a new array."""

    def test_gradient_is_the_params_buffer_and_the_next_call_overwrites_it(self):
        ds = tiny_dataset()
        params = init_params((4, 6, 3), 1)
        targets = np.eye(3)[ds.labels]
        _, _, first = loss_and_gradients(params, ds.features[:10], targets[:10])
        assert first is params.flat_grad
        kept = first.copy()
        _, _, second = loss_and_gradients(params, ds.features[10:], targets[10:])
        assert second is first
        assert not np.array_equal(first, kept)
        # the buffer holds exactly the gradient a fresh params gives for that batch
        fresh = ModelParams(params.weights, params.biases)
        _, _, alone = loss_and_gradients(fresh, ds.features[10:], targets[10:])
        assert np.array_equal(second, alone)

    @pytest.mark.parametrize("batch_size", [1, 7, 36])
    def test_on_batch_never_gets_the_same_probs_twice_in_an_epoch(self, batch_size):
        # The ols smoother keeps every batch's arrays until the epoch ends, so
        # none may be reused or written after it was handed over.
        ds = tiny_dataset(seed=2)
        params = init_params((4, 6, 3), 4)
        seen, copies = [], []

        def on_batch(labels, probs):
            seen.append((labels, probs))
            copies.append((labels.copy(), probs.copy()))

        config = make_config(batch_size=batch_size)
        for epoch in (1, 2):
            train_epoch(params, ds, np.eye(3), config, 4, epoch, on_batch)
        assert len(seen) == 2 * -(-ds.n_samples // batch_size)
        held = [probs for _, probs in seen]
        assert len({id(probs) for probs in held}) == len(held)
        assert not any(
            np.shares_memory(a, b) for i, a in enumerate(held) for b in held[i + 1 :]
        )
        for (labels, probs), (labels_then, probs_then) in zip(seen, copies):
            assert np.array_equal(labels, labels_then)
            assert probs.tobytes() == probs_then.tobytes()


class TestBitExactOracle:
    """train_epoch on the flat buffers equals ``reference_epoch`` bit for bit."""

    @pytest.mark.parametrize("sizes", [(4, 3), (4, 6, 3), (4, 6, 5, 3)])
    @pytest.mark.parametrize("batch_size", [1, 7, 36])  # 7 leaves a ragged last batch of 1
    @pytest.mark.parametrize("momentum", [0.0, 0.9])
    def test_three_epochs(self, sizes, batch_size, momentum):
        ds = tiny_dataset(seed=2)
        assert ds.n_samples == 36
        table = 0.7 * np.eye(3) + 0.3 * np.random.default_rng(5).dirichlet(np.ones(3), size=3)
        config = make_config(lr=0.1, batch_size=batch_size, momentum=momentum)
        params = init_params(sizes, 4)
        lists = (params.weights, params.biases, *params.split(params.flat_velocity))
        reference = [[a.copy() for a in arrays] for arrays in lists]
        for epoch in (1, 2, 3):
            loss = train_epoch(params, ds, table, config, 4, epoch)
            assert loss == reference_epoch(*reference, ds, table, config, 4, epoch)
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
        strategies = [HARD, TargetStrategy("vanilla", alpha=0.1)]
        strategies += [
            TargetStrategy("cpls", beta=0.5, warmup_epochs=0),
            TargetStrategy("ols", warmup_epochs=0),
        ]
        # epoch 1 is past the zero-epoch warmups
        return {s.kind: s.table(8, 1, tracker, smoother) for s in strategies}

    def test_full_network_gradients_match_finite_differences(self):
        rng = np.random.default_rng(8)
        x = rng.normal(size=(5, 4))
        labels = rng.integers(0, 8, size=5)
        for name, table in self.strategy_tables().items():
            params = init_params((4, 6, 5, 8), 13)
            targets = table[labels]
            _, _, grad = loss_and_gradients(params, x, targets)
            grads_w, grads_b = params.split(grad)
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
        strategies = [HARD, TargetStrategy("vanilla", alpha=alpha)]
        strategies += [
            TargetStrategy("ols", warmup_epochs=warmup),
            TargetStrategy("cpls", beta=beta, warmup_epochs=warmup),
        ]
        for strategy in strategies:
            # as in fit, a kind gets only the state it reads
            own_tracker = tracker if strategy.kind == "cpls" else None
            own_smoother = smoother if strategy.kind == "ols" else None
            for epoch in range(1, warmup + 3):  # warmup epochs, then two hybrid ones
                table = strategy.table(c, epoch, own_tracker, own_smoother)
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
            "hard": (HARD, hard_ce),
            "vanilla": (
                TargetStrategy("vanilla", alpha=0.2),
                lambda p, y: soft_ce(p, vanilla_ls_target(y, 0.2, c)),
            ),
            "ols": (
                TargetStrategy("ols", warmup_epochs=1),
                lambda p, y: soft_ce(p, smoother_target(smoother, y)),
            ),
            "cpls": (
                TargetStrategy("cpls", beta=0.3, warmup_epochs=1),
                lambda p, y: hybrid_loss(p, y, tracker, 0.3),
            ),
        }[kind]
        # epoch 2 is past the one-epoch warmup, so ols and cpls use their own tables
        table = strategy.table(c, 2, tracker, smoother)
        assert kind == "hard" or not np.allclose(table, np.eye(c))
        params = init_params((4, 6, c), 3)
        x = rng.normal(size=(16, 4))
        labels = rng.integers(0, c, size=16)
        loss, _, _ = loss_and_gradients(params, x, table[labels])
        per_sample = [oracle(softmax(forward(params, xi)[0]), y) for xi, y in zip(x, labels)]
        assert abs(loss - np.mean(per_sample)) <= 1e-12


class TestEvaluate:
    def test_constant_predictor(self):
        params = init_params((2, 3), 0)
        for w in params.weights:
            w[...] = 0.0
        params.biases[0][...] = [5.0, 0.0, 0.0]
        ds = LabeledDataset(np.random.default_rng(0).normal(size=(10, 2)), np.zeros(10, dtype=int), 3)
        accuracy, probs, confusion = evaluate(params, ds)
        assert accuracy == 1.0
        assert confusion[0, 0] == 10

    def test_confusion_totals_and_trace_identity(self):
        ds = tiny_dataset(seed=3)
        params = init_params((4, 6, 3), 4)
        accuracy, probs, confusion = evaluate(params, ds)
        assert confusion.sum() == ds.n_samples
        assert abs(np.trace(confusion) / ds.n_samples - accuracy) < 1e-12
        assert probs.shape == (ds.n_samples, 3)

    @settings(max_examples=100, deadline=None)
    @given(
        c=st.integers(2, 9),
        n=st.integers(1, 60),
        hidden=st.lists(st.integers(1, 6), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_confusion_matches_add_at_counting(self, c, n, hidden, seed):
        rng = np.random.default_rng(seed)
        ds = LabeledDataset(rng.normal(size=(n, 3)), rng.integers(0, c, size=n), c)
        params = init_params((3, *hidden, c), seed)
        accuracy, probs, confusion = evaluate(params, ds)
        want = confusion_counts(ds.labels, probs.argmax(axis=1), c)
        assert confusion.dtype == want.dtype == np.int64
        assert confusion.tobytes() == want.tobytes()
        assert accuracy == float((probs.argmax(axis=1) == ds.labels).mean())

    @pytest.mark.parametrize("outputs, classes", [(4, 3), (3, 4), (2, 3)])
    def test_class_count_must_match_the_outputs(self, outputs, classes):
        params = init_params((2, outputs), 0)
        params.weights[0][...] = 0.0
        params.biases[0][...] = 0.0
        params.biases[0][-1] = 5.0  # always predicts the last output
        labels = np.arange(10) % classes
        ds = LabeledDataset(np.random.default_rng(0).normal(size=(10, 2)), labels, classes)
        with pytest.raises(DimensionError, match=f"expected {outputs} classes, got {classes}"):
            evaluate(params, ds)


class TestExtractFeatures:
    def test_shape_and_consistency_with_forward(self):
        ds = tiny_dataset(seed=5)
        params = init_params((4, 7, 3), 6)
        feats = extract_features(params, ds)
        assert feats.shape == (ds.n_samples, 7)
        # the batched path may differ from the per-sample path in the last bit
        _, hidden = forward(params, ds.features[0])
        assert np.allclose(feats[0], hidden[-1], rtol=1e-12, atol=1e-12)

    def test_requires_hidden_layer(self):
        ds = tiny_dataset(seed=5)
        params = init_params((4, 3), 6)
        with pytest.raises(ConfigError):
            extract_features(params, ds)

    def test_deterministic(self):
        ds = tiny_dataset(seed=5)
        params = init_params((4, 7, 3), 6)
        assert np.array_equal(extract_features(params, ds), extract_features(params, ds))


def split_blob(seed=0, classes=3, per_class=20, dim=4, overlap=()):
    spec = BlobSpec(classes, per_class, dimension=dim, overlap_pairs=overlap)
    ds = generate_confusable_blobs(spec, seed=seed)
    train, val, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), seed=seed)
    return standardize(train, val, test)


def cpls(beta, warmup_epochs):
    return TargetStrategy("cpls", beta=beta, warmup_epochs=warmup_epochs)


class TestFit:
    def test_hard_never_enters_hybrid(self):
        train, val, _ = split_blob()
        _, metrics = fit(train, val, make_config(epochs=4), HARD, 0)
        assert all(m.phase == "warmup" for m in metrics)

    def test_cpls_phases(self):
        train, val, _ = split_blob()
        _, metrics = fit(train, val, make_config(epochs=5), cpls(0.5, 2), 0)
        assert [m.phase for m in metrics] == ["warmup", "warmup", "hybrid", "hybrid", "hybrid"]

    def test_metrics_are_sane(self):
        train, val, _ = split_blob()
        _, metrics = fit(train, val, make_config(epochs=4), HARD, 0)
        for m in metrics:
            assert isinstance(m, EpochMetrics)
            assert 0.0 <= m.val_accuracy <= 1.0
            assert 0.0 <= m.val_ece <= 1.0
            assert m.train_loss >= 0.0 and math.isfinite(m.train_loss)
            assert m.val_loss >= 0.0 and math.isfinite(m.val_loss)

    def test_deterministic_end_to_end(self):
        train, val, _ = split_blob(seed=1)
        cfg = make_config(epochs=4)
        pa, ma = fit(train, val, cfg, cpls(0.5, 1), 3)
        pb, mb = fit(train, val, cfg, cpls(0.5, 1), 3)
        assert ma == mb
        for x, y in zip(pa.weights, pb.weights):
            assert np.array_equal(x, y)

    def trajectories(self, train, val, strategy, seed):
        snapshots = []

        def grab(epoch, params, record, tracker):
            snapshots.append([w.copy() for w in params.weights] + [b.copy() for b in params.biases])

        fit(train, val, make_config(epochs=4), strategy, seed, on_epoch=grab)
        return snapshots

    def test_warmup_covering_all_epochs_reproduces_hard(self):
        train, val, _ = split_blob(seed=2, overlap=((0, 1),))
        hard = self.trajectories(train, val, HARD, seed=5)
        cpls_run = self.trajectories(train, val, cpls(0.5, 10), seed=5)
        for h_epoch, c_epoch in zip(hard, cpls_run):
            for h_arr, c_arr in zip(h_epoch, c_epoch):
                assert np.array_equal(h_arr, c_arr)

    def test_identity_tracker_matches_hard_for_any_beta(self, monkeypatch):
        # a tracker whose normalize() keeps the identity: the hybrid loss must
        # coincide with hard CE bit for bit, beta irrelevant
        class IdentityTracker(ConfusionTracker):
            def normalize(self):
                return self

        train, val, _ = split_blob(seed=2, overlap=((0, 1),))
        hard = self.trajectories(train, val, HARD, seed=5)
        monkeypatch.setattr(smoothlab.trainer, "ConfusionTracker", IdentityTracker)
        cpls_run = self.trajectories(train, val, cpls(0.3, 0), seed=5)
        assert len(cpls_run) == len(hard) == 4
        for h_epoch, c_epoch in zip(hard, cpls_run):
            for h_arr, c_arr in zip(h_epoch, c_epoch):
                assert np.array_equal(h_arr, c_arr)

    def test_tracker_refreshes_every_epoch(self, monkeypatch):
        normalized_by = []

        class CountingTracker(ConfusionTracker):
            def normalize(self):
                normalized_by.append(self)
                return super().normalize()

        monkeypatch.setattr(smoothlab.trainer, "ConfusionTracker", CountingTracker)
        train, val, _ = split_blob(seed=4, overlap=((0, 1),))
        handed = []
        fit(
            train, val, make_config(epochs=5), cpls(0.5, 2), 0,
            on_epoch=lambda epoch, params, record, tracker: handed.append(tracker),
        )
        assert len(normalized_by) == 5
        tracker = handed[-1]
        assert all(t is tracker for t in normalized_by + handed)
        assert np.max(np.abs(tracker.normalized.sum(axis=1) - 1.0)) < 1e-12

    @pytest.mark.parametrize(
        "strategy",
        [
            HARD,
            TargetStrategy("vanilla", alpha=0.1),
            TargetStrategy("ols", warmup_epochs=1),
            cpls(0.5, 1),
        ],
        ids=lambda s: s.kind,
    )
    def test_only_the_state_its_kind_reads_is_kept(self, monkeypatch, strategy):
        # a tracker is built and refreshed for cpls alone, a smoother for ols alone
        normalized, smoothers, handed = [], [], []

        class CountingTracker(ConfusionTracker):
            def normalize(self):
                normalized.append(self)
                return super().normalize()

        class CountingSmoother(OnlineLabelSmoother):
            def __init__(self, num_classes):
                smoothers.append(self)
                super().__init__(num_classes)

        monkeypatch.setattr(smoothlab.trainer, "ConfusionTracker", CountingTracker)
        monkeypatch.setattr(smoothlab.trainer, "OnlineLabelSmoother", CountingSmoother)
        train, val, _ = split_blob(seed=4, overlap=((0, 1),))
        fit(
            train, val, make_config(epochs=3), strategy, 0,
            on_epoch=lambda epoch, params, record, tracker: handed.append(tracker),
        )
        assert len(normalized) == (3 if strategy.kind == "cpls" else 0)
        assert len(smoothers) == (1 if strategy.kind == "ols" else 0)
        assert len(handed) == 3
        if strategy.kind != "cpls":
            assert handed == [None] * 3

    def test_negative_seed_rejected(self):
        train, val, _ = split_blob()
        with pytest.raises(DomainError, match="seed"):
            fit(train, val, make_config(epochs=1), HARD, -1)

    def test_shape_validation(self):
        train, _, _ = split_blob()
        _, wider_val, _ = split_blob(dim=5)
        with pytest.raises(DimensionError, match="feature count"):
            fit(train, wider_val, make_config(epochs=1), HARD, 0)

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 2)])
    def test_network_ends_come_from_the_data(self, hidden):
        train, val, _ = split_blob(classes=5, dim=7)
        params, _ = fit(train, val, make_config(epochs=1, hidden=hidden), HARD, 0)
        sizes = (7, *hidden, 5)
        assert [w.shape for w in params.weights] == list(zip(sizes[1:], sizes[:-1]))


KINDS = [
    HARD,
    TargetStrategy("vanilla", alpha=0.1),
    TargetStrategy("ols", warmup_epochs=1),
    cpls(0.5, 1),
]


def fit_alone(train, val, config, strategy, seed):
    """``fit``'s parameters and metrics, and the cpls tracker's table after each epoch."""
    tables = []

    def grab(epoch, params, record, tracker):
        if tracker is not None:
            tables.append(tracker.normalized)

    params, metrics = fit(train, val, config, strategy, seed, on_epoch=grab)
    return params, metrics, tables


def assert_stack_matches_fit(splits, config, strategies, seeds):
    """Run k * S + s of ``_fit_stack``, for S seeds, is ``strategies[k]`` on
    ``splits[s]`` with ``seeds[s]``; each must match ``fit`` of that run alone."""
    stacked = _fit_stack(splits, config, strategies, seeds)
    runs = [(kind, split, seed) for kind in strategies for split, seed in zip(splits, seeds)]
    assert len(stacked) == len(runs)
    for (strategy, (train, val), seed), got in zip(runs, stacked):
        want = fit_alone(train, val, config, strategy, seed)
        assert got[0].flat.tobytes() == want[0].flat.tobytes()
        assert [w.shape for w in got[0].weights] == [w.shape for w in want[0].weights]
        assert got[1] == want[1]
        for m_got, m_want in zip(got[1], want[1]):
            for name in EpochMetrics.__dataclass_fields__:
                value = getattr(m_got, name)
                assert type(value) is type(getattr(m_want, name))
                assert repr(value) == repr(getattr(m_want, name))  # the bits, for floats
        assert len(got[2]) == len(want[2]) == (config.epochs if strategy.kind == "cpls" else 0)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got[2], want[2]))


def csv_splits(tmp_path, seeds):
    """One parsed feature file, split by each seed, as a compare with data.csv does."""
    path = tmp_path / "feats.csv"
    save_csv(generate_confusable_blobs(BlobSpec(3, 25, 4, ((0, 1),)), seed=0), path)
    ds = load_csv(path)
    return [standardize(*stratified_split(ds, SplitSpec(0.70, 0.15, 0.15), s))[:2] for s in seeds]


class TestFitStack:
    """``_fit_stack`` gives each run of a stack what ``fit`` gives it alone, bit
    for bit: the parameters, every metric and the cpls tracker's tables."""

    @pytest.mark.parametrize("hidden", [(), (6, 5), (32,)])
    @pytest.mark.parametrize("count", [2, 3, 5])
    @pytest.mark.parametrize("strategy", KINDS, ids=lambda s: s.kind)
    def test_matches_fit_per_run(self, strategy, count, hidden):
        seeds = [7 + 3 * i for i in range(count)]
        splits = [split_blob(seed=s, classes=4, dim=3, overlap=((0, 1),))[:2] for s in seeds]
        assert splits[0][0].n_samples % 16 != 0  # a remainder batch every epoch
        config = make_config(epochs=4, lr=0.1, batch_size=16, hidden=hidden)
        assert_stack_matches_fit(splits, config, [strategy], seeds)

    @pytest.mark.parametrize("kinds", [KINDS, KINDS[::-1]], ids=["config", "reversed"])
    @pytest.mark.parametrize("hidden", [(), (6, 5), (32,)])
    @pytest.mark.parametrize("seeds", [[7, 4], [9, 2, 5]], ids=str)
    def test_every_kind_in_one_stack_matches_fit_per_run(self, seeds, hidden, kinds):
        splits = [split_blob(seed=s, classes=4, dim=3, overlap=((0, 1),))[:2] for s in seeds]
        assert splits[0][0].n_samples % 16 != 0  # a remainder batch every epoch
        config = make_config(epochs=4, lr=0.1, batch_size=16, hidden=hidden)
        assert_stack_matches_fit(splits, config, kinds, seeds)

    @pytest.mark.parametrize(
        "kinds", [[kind] for kind in KINDS] + [KINDS], ids=[k.kind for k in KINDS] + ["every-kind"]
    )
    def test_matches_fit_per_run_on_a_csv_source(self, tmp_path, kinds):
        seeds = [2, 1, 3]
        config = make_config(epochs=3, lr=0.1, batch_size=7, hidden=(6, 5))
        assert_stack_matches_fit(csv_splits(tmp_path, seeds), config, kinds, seeds)

    @staticmethod
    def poison(monkeypatch, seeds):
        def poisoned(sizes, seed):
            params = init_params(sizes, seed)
            if seed in seeds:
                params.weights[0][0, 0] = np.nan
            return params

        monkeypatch.setattr(smoothlab.trainer, "init_params", poisoned)

    def test_non_finite_loss_names_the_lowest_failing_seed(self, monkeypatch):
        self.poison(monkeypatch, {4, 2})
        seeds = [4, 3, 2]
        splits = [split_blob(seed=s)[:2] for s in seeds]
        with pytest.raises(_RunError) as caught:
            _fit_stack(splits, make_config(), [HARD], seeds)
        assert seeds[caught.value.index] == 2
        assert isinstance(caught.value.error, NumericError)
        assert str(caught.value.error) == "non-finite training loss at epoch 1, batch 0"

    def test_non_finite_loss_names_the_first_strategy_then_the_lowest_seed(self, monkeypatch):
        # every strategy's run of a poisoned seed fails at the same step
        self.poison(monkeypatch, {4, 2})
        seeds = [4, 3, 2]
        splits = [split_blob(seed=s)[:2] for s in seeds]
        with pytest.raises(_RunError) as caught:
            _fit_stack(splits, make_config(), KINDS[::-1], seeds)
        assert caught.value.index == 2  # the first strategy's run of seed 2
        assert str(caught.value.error) == "non-finite training loss at epoch 1, batch 0"

    def test_splits_of_different_shapes_rejected(self):
        splits = [split_blob(seed=1)[:2], split_blob(seed=2, per_class=30)[:2]]
        with pytest.raises(DimensionError, match="share their split shapes"):
            _fit_stack(splits, make_config(), [HARD], [1, 2])


@st.composite
def probability_stacks(draw):
    """An (R, n, C) stack of probability rows, its (R, n) labels and a bin
    count. Rows are random, hold tied maxima, put their maximum exactly on a
    bin edge m / num_bins, or hold 1 + 1e-7 (inside the row-sum tolerance)."""
    count, n, c = draw(st.integers(1, 4)), draw(st.integers(1, 12)), draw(st.integers(2, 5))
    num_bins = draw(st.integers(1, 12))
    rows = []
    for _ in range(count * n):
        kind = draw(st.sampled_from(["random", "tie", "edge", "over"]))
        weights = draw(st.lists(st.floats(0.01, 1.0), min_size=c, max_size=c))
        if kind == "random":
            row = np.array(weights) / math.fsum(weights)
        elif kind == "tie":
            tied = draw(st.lists(st.integers(0, c - 1), min_size=2, max_size=c, unique=True))
            weights = np.array(weights)
            weights[tied] = weights.max()
            row = weights / weights.sum()
        elif kind == "edge":
            top = draw(st.integers(-(-num_bins // c), num_bins)) / num_bins
            row, rest = np.zeros(c), 1.0 - top
            row[draw(st.integers(0, c - 1))] = top
            for j in range(c):  # the rest in pieces no larger than the top
                if row[j] == 0.0 and rest > 0.0:
                    row[j] = min(top, rest)
                    rest -= row[j]
        else:
            row = np.zeros(c)
            row[draw(st.integers(0, c - 1))] = 1.0 + 1e-7
        rows.append(row)
    probs = np.array(rows).reshape(count, n, c)
    labels = np.array(draw(st.lists(st.integers(0, c - 1), min_size=count * n, max_size=count * n)))
    return probs, labels.reshape(count, n), num_bins


class TestStackScores:
    """The stacked validation pass gives each run the bits of the per-run one."""

    @settings(max_examples=100, deadline=None)
    @given(probability_stacks())
    def test_each_run_matches_the_per_run_pass(self, stack):
        probs, labels, num_bins = stack
        config = make_config(ece_bins=num_bins)
        val_losses, accuracies, eces, confusions = _stack_scores(probs, labels, num_bins)
        for r in range(probs.shape[0]):
            val = LabeledDataset(np.zeros((labels.shape[1], 1)), labels[r], probs.shape[2])
            accuracy, confusion = _scores(probs[r], val)
            record = _RunState(HARD, val, config).end_epoch(1, 0.0, accuracy, probs[r], confusion)
            for got, want in [
                (accuracies[r], accuracy),
                (val_losses[r], record.val_loss),
                (eces[r], record.val_ece),
            ]:
                assert type(got) is type(want)
                assert repr(got) == repr(want)  # the bits
            assert confusions[r].dtype == confusion.dtype
            assert np.array_equal(confusions[r], confusion)

    @pytest.mark.parametrize("run, row", [(0, 0), (2, 3), (1, 4)])
    def test_non_finite_entry_names_its_run_and_row(self, run, row):
        probs = np.full((3, 5, 4), 0.25)
        probs[run, row, 1] = np.nan
        labels = np.zeros((3, 5), dtype=np.int64)
        with pytest.raises(_RunError) as caught:
            _stack_scores(probs, labels, 10)
        assert caught.value.index == run
        assert isinstance(caught.value.error, DomainError)
        assert str(caught.value.error) == f"row {row} of probs has a non-finite entry"
