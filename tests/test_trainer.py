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
    ece,
    evaluate,
    extract_features,
    fit,
    generate_confusable_blobs,
    init_params,
    load_csv,
    loss_and_gradients,
    reliability_bins,
    save_csv,
    standardize,
    stratified_split,
)

from smoothlab.calibration import _binned
from smoothlab.trainer import _fit_stack, _RunError, _stack_scores, train_epoch

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
    val_loss,
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

    @pytest.mark.parametrize(
        "name, value", [("epochs", 3.0), ("batch_size", 8.0), ("ece_bins", 10.0), ("ece_bins", "10")]
    )
    def test_non_integer_counts_rejected(self, name, value):
        with pytest.raises(DomainError, match=f"^{name} must be an integer, got {value!r}$"):
            make_config(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        config = make_config(epochs=np.int64(2), batch_size=np.int32(4), ece_bins=np.uint8(5))
        assert (config.epochs, config.batch_size, config.ece_bins) == (2, 4, 5)

    def test_negative_seed_rejected_as_fit_rejects_it(self):
        with pytest.raises(DomainError, match="^seed must be a non-negative integer, got -1$"):
            init_params((2, 3), -1)


def w(rows, cols):
    return np.ones((rows, cols))


class TestModelParamsLayers:
    @pytest.mark.parametrize(
        "weights, biases, message",
        [
            ([w(3, 2), w(4, 3)], [np.zeros(3)], "got 2 weight matrices and 1 bias vectors$"),
            ([], [], "^need at least one layer .*, got 0 weight matrices and 0 bias vectors$"),
            ([np.ones(3)], [np.zeros(3)], r"^layer 0: needs 2-D .*, got shapes \(3,\) and \(3,\)$"),
            ([w(3, 2)], [np.zeros(1)], r"^layer 0: needs .*, got shapes \(3, 2\) and \(1,\)$"),
            ([w(3, 2)], [np.zeros((1, 3))], r"^layer 0: needs .*, got shapes \(3, 2\) and \(1, 3\)$"),
            (
                [w(3, 2), w(2, 4)],
                [np.zeros(3), np.zeros(2)],
                "^layer 1: weights take 4 inputs, but layer 0 gives 3$",
            ),
        ],
    )
    def test_malformed_layers_rejected(self, weights, biases, message):
        with pytest.raises(DimensionError, match=message):
            ModelParams(weights, biases)

    def test_chained_layers_accepted(self):
        params = ModelParams([w(3, 2), w(4, 3)], [np.zeros(3), np.zeros(4)])
        assert (params.num_layers, params.input_dim, params.output_dim) == (2, 2, 4)


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
        loss, _, _ = train_epoch(params, ds, np.eye(3), make_config(lr=0.0), seed=0, epoch=1)
        assert math.isfinite(loss) and loss > 0
        for w, old in zip(params.weights, before):
            assert np.array_equal(w, old)

    def test_deterministic(self):
        ds = tiny_dataset()
        cfg = make_config()
        a = init_params((4, 6, 3), 1)
        b = init_params((4, 6, 3), 1)
        la, labels_a, probs_a = train_epoch(a, ds, np.eye(3), cfg, seed=0, epoch=2)
        lb, labels_b, probs_b = train_epoch(b, ds, np.eye(3), cfg, seed=0, epoch=2)
        assert la == lb
        assert np.array_equal(labels_a, labels_b)
        assert probs_a.tobytes() == probs_b.tobytes()
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
    a per-layer momentum step. Returns the mean training loss, the shuffled
    labels and each batch's probabilities, stacked in the epoch's order."""
    order = np.random.default_rng([seed, epoch]).permutation(ds.n_samples)
    total = 0.0
    batch_probs = []
    for start in range(0, ds.n_samples, config.batch_size):
        idx = order[start : start + config.batch_size]
        x, targets = ds.features[idx], table[ds.labels[idx]]
        activations = [x]
        for w, b in zip(weights[:-1], biases[:-1]):
            activations.append(np.maximum(activations[-1] @ w.T + b, 0.0))
        logits = activations[-1] @ weights[-1].T + biases[-1]
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs = e / e.sum(axis=1, keepdims=True)
        batch_probs.append(probs)
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
    return total / ds.n_samples, ds.labels[order], np.concatenate(batch_probs)


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
    buffer per params."""

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


class TestBitExactOracle:
    """train_epoch on the flat buffers equals ``reference_epoch`` bit for bit,
    the epoch's labels and probabilities it returns included."""

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
            loss, labels, probs = train_epoch(params, ds, table, config, 4, epoch)
            want_loss, want_labels, want_probs = reference_epoch(
                *reference, ds, table, config, 4, epoch
            )
            assert loss == want_loss
            assert np.array_equal(labels, want_labels)
            assert probs.tobytes() == want_probs.tobytes()
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
        _, metrics, _ = fit(train, val, make_config(epochs=4), HARD, 0)
        assert all(m.phase == "warmup" for m in metrics)

    def test_cpls_phases(self):
        train, val, _ = split_blob()
        _, metrics, _ = fit(train, val, make_config(epochs=5), cpls(0.5, 2), 0)
        assert [m.phase for m in metrics] == ["warmup", "warmup", "hybrid", "hybrid", "hybrid"]

    def test_metrics_are_sane(self):
        train, val, _ = split_blob()
        _, metrics, _ = fit(train, val, make_config(epochs=4), HARD, 0)
        for m in metrics:
            assert isinstance(m, EpochMetrics)
            assert 0.0 <= m.val_accuracy <= 1.0
            assert 0.0 <= m.val_ece <= 1.0
            assert m.train_loss >= 0.0 and math.isfinite(m.train_loss)
            assert m.val_loss >= 0.0 and math.isfinite(m.val_loss)

    def test_deterministic_end_to_end(self):
        train, val, _ = split_blob(seed=1)
        cfg = make_config(epochs=4)
        pa, ma, _ = fit(train, val, cfg, cpls(0.5, 1), 3)
        pb, mb, _ = fit(train, val, cfg, cpls(0.5, 1), 3)
        assert ma == mb
        for x, y in zip(pa.weights, pb.weights):
            assert np.array_equal(x, y)

    def trajectories(self, train, val, strategy, seed):
        """The weights and biases after each of 4 epochs: those of ``fit`` for
        that many epochs (see test_a_shorter_fit_is_a_prefix_of_a_longer_one)."""
        snapshots = []
        for epochs in range(1, 5):
            params = fit(train, val, make_config(epochs=epochs), strategy, seed)[0]
            snapshots.append(params.weights + params.biases)
        return snapshots

    @pytest.mark.parametrize("strategy", [HARD, cpls(0.5, 2)], ids=lambda s: s.kind)
    def test_a_shorter_fit_is_a_prefix_of_a_longer_one(self, monkeypatch, strategy):
        # fit(epochs=k) gives the parameters and metrics of the first k epochs
        # of fit(epochs=E), read as each epoch's validation pass sees them
        real, seen = smoothlab.trainer.evaluate, []

        def recording(params, ds):
            seen.append(params.flat.copy())
            return real(params, ds)

        train, val, _ = split_blob(seed=2, overlap=((0, 1),))
        monkeypatch.setattr(smoothlab.trainer, "evaluate", recording)
        _, metrics, tables = fit(train, val, make_config(epochs=4), strategy, 5)
        monkeypatch.undo()
        assert len(seen) == 4
        for epochs in range(1, 5):
            params, head, head_tables = fit(train, val, make_config(epochs=epochs), strategy, 5)
            assert params.flat.tobytes() == seen[epochs - 1].tobytes()
            assert head == metrics[:epochs]
            assert [t.tobytes() for t in head_tables] == [t.tobytes() for t in tables[:epochs]]

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
        _, _, tables = fit(train, val, make_config(epochs=5), cpls(0.5, 2), 0)
        assert len(normalized_by) == len(tables) == 5
        tracker = normalized_by[-1]
        assert all(t is tracker for t in normalized_by)
        assert tables[-1] is tracker.normalized
        for table in tables:
            assert np.max(np.abs(table.sum(axis=1) - 1.0)) < 1e-12

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
        # a tracker is built and refreshed for cpls alone, a smoother for ols
        # alone, and only a cpls run returns a table history
        normalized, smoothers = [], []

        class CountingTracker(ConfusionTracker):
            def normalize(self):
                result = super().normalize()
                normalized.append(self.normalized)
                return result

        class CountingSmoother(OnlineLabelSmoother):
            def __init__(self, num_classes):
                smoothers.append(self)
                super().__init__(num_classes)

        monkeypatch.setattr(smoothlab.trainer, "ConfusionTracker", CountingTracker)
        monkeypatch.setattr(smoothlab.trainer, "OnlineLabelSmoother", CountingSmoother)
        train, val, _ = split_blob(seed=4, overlap=((0, 1),))
        _, _, tables = fit(train, val, make_config(epochs=3), strategy, 0)
        assert len(normalized) == (3 if strategy.kind == "cpls" else 0)
        assert len(smoothers) == (1 if strategy.kind == "ols" else 0)
        # each epoch's own table: one distinct array per epoch, none copied
        assert len(tables) == len(normalized)
        assert all(table is bound for table, bound in zip(tables, normalized))
        assert len({id(table) for table in tables}) == len(tables)

    def test_negative_seed_rejected(self):
        train, val, _ = split_blob()
        with pytest.raises(DomainError, match="seed"):
            fit(train, val, make_config(epochs=1), HARD, -1)

    def test_failing_validation_pass_raises_the_public_error(self, monkeypatch):
        real = smoothlab.trainer.evaluate

        def poisoned(params, ds):
            accuracy, probs, confusion = real(params, ds)
            probs[2, 0] = np.nan
            return accuracy, probs, confusion

        monkeypatch.setattr(smoothlab.trainer, "evaluate", poisoned)
        train, val, _ = split_blob()
        with pytest.raises(DomainError, match="^row 2 of probs has a non-finite entry$"):
            fit(train, val, make_config(epochs=1), HARD, 0)

    def test_shape_validation(self):
        train, _, _ = split_blob()
        _, wider_val, _ = split_blob(dim=5)
        with pytest.raises(DimensionError, match="feature count"):
            fit(train, wider_val, make_config(epochs=1), HARD, 0)

    @pytest.mark.parametrize("hidden", [(), (6,), (6, 2)])
    def test_network_ends_come_from_the_data(self, hidden):
        train, val, _ = split_blob(classes=5, dim=7)
        params, _, _ = fit(train, val, make_config(epochs=1, hidden=hidden), HARD, 0)
        sizes = (7, *hidden, 5)
        assert [w.shape for w in params.weights] == list(zip(sizes[1:], sizes[:-1]))


KINDS = [
    HARD,
    TargetStrategy("vanilla", alpha=0.1),
    TargetStrategy("ols", warmup_epochs=1),
    cpls(0.5, 1),
]


def assert_stack_matches_fit(splits, config, strategies, seeds):
    """Run k * S + s of ``_fit_stack``, for S seeds, is ``strategies[k]`` on
    ``splits[s]`` with ``seeds[s]``; each must match ``fit`` of that run alone."""
    stacked = _fit_stack(splits, config, strategies, seeds)
    runs = [(kind, split, seed) for kind in strategies for split, seed in zip(splits, seeds)]
    assert len(stacked) == len(runs)
    for (strategy, (train, val), seed), got in zip(runs, stacked):
        want = fit(train, val, config, strategy, seed)
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

    @pytest.mark.parametrize("classes", [8, 9])
    @pytest.mark.parametrize("seeds", [[7, 4], [9, 2, 5]], ids=str)
    def test_eight_or_more_classes_match_fit_per_run(self, seeds, classes):
        # From 8 classes on, numpy sums the class axis with its 8-accumulator
        # pairwise loop, as at the benchmark workloads' 8 and 32 classes; 9
        # leaves one class over.
        overlap = ((0, 1), (2, 3))
        splits = [split_blob(seed=s, classes=classes, dim=3, overlap=overlap)[:2] for s in seeds]
        assert splits[0][0].n_samples % 24 != 0  # a remainder batch every epoch
        config = make_config(epochs=4, lr=0.1, batch_size=24, hidden=(32,))
        assert_stack_matches_fit(splits, config, KINDS, seeds)

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

    def test_non_finite_loss_names_the_first_failing_seed_in_config_order(self, monkeypatch):
        self.poison(monkeypatch, {4, 2})
        seeds = [4, 3, 2]
        splits = [split_blob(seed=s)[:2] for s in seeds]
        with pytest.raises(_RunError) as caught:
            _fit_stack(splits, make_config(), [HARD], seeds)
        assert seeds[caught.value.index] == 4
        assert isinstance(caught.value.error, NumericError)
        assert str(caught.value.error) == "non-finite training loss at epoch 1, batch 0"

    def test_non_finite_loss_names_the_first_strategy_then_the_first_failing_seed(
        self, monkeypatch
    ):
        # every strategy's run of a poisoned seed fails at the same step
        self.poison(monkeypatch, {3, 2})
        seeds = [4, 3, 2]
        splits = [split_blob(seed=s)[:2] for s in seeds]
        with pytest.raises(_RunError) as caught:
            _fit_stack(splits, make_config(), KINDS[::-1], seeds)
        assert caught.value.index == 1  # the first strategy's run of seed 3
        assert str(caught.value.error) == "non-finite training loss at epoch 1, batch 0"

    @pytest.mark.parametrize("place, row", [(0, 0), (2, 3), (1, 4)])
    def test_non_finite_validation_entry_names_its_run_and_row(self, place, row):
        seeds = [7, 4, 9]
        splits = [split_blob(seed=s)[:2] for s in seeds]
        train, val = splits[place]
        features = val.features.copy()
        features[row, 0] = np.nan
        splits[place] = (train, LabeledDataset(features, val.labels, val.num_classes))
        with np.errstate(invalid="ignore"), pytest.raises(_RunError) as caught:
            _fit_stack(splits, make_config(epochs=1), [HARD, cpls(0.5, 1)], seeds)
        assert caught.value.index == place  # the first strategy's run of that seed
        assert isinstance(caught.value.error, DomainError)
        assert str(caught.value.error) == f"row {row} of probs has a non-finite entry"

    def test_smoother_gets_each_epoch_in_one_call_in_both_trainers(self, monkeypatch):
        fed = []
        fold = OnlineLabelSmoother.update_batch

        def counted(smoother, labels, probs):
            fed.append((smoother, labels.shape, probs.shape))
            fold(smoother, labels, probs)

        monkeypatch.setattr(OnlineLabelSmoother, "update_batch", counted)
        seeds = [7, 4]
        splits = [split_blob(seed=s, classes=4, dim=3, overlap=((0, 1),))[:2] for s in seeds]
        n = splits[0][0].n_samples
        assert n % 16 != 0  # a ragged last batch every epoch
        config = make_config(epochs=3, lr=0.1, batch_size=16)
        ols = TargetStrategy("ols", warmup_epochs=1)
        _fit_stack(splits, config, [HARD, ols, cpls(0.5, 1)], seeds)
        # once per ols run per epoch, the whole epoch each time
        assert len(fed) == 2 * 3
        assert len({id(smoother) for smoother, *_ in fed}) == 2
        assert all(shapes == [(n,), (n, 4)] for _, *shapes in fed)
        fed.clear()
        fit(*splits[0], config, ols, seeds[0])
        assert len(fed) == 3
        assert all(shapes == [(n,), (n, 4)] for _, *shapes in fed)

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
    """The stacked validation pass gives each run the bits of that run scored
    alone: its loss by the oracle, its ECE and bins by the public functions."""

    @settings(max_examples=100, deadline=None)
    @given(probability_stacks())
    def test_each_run_matches_the_per_run_pass(self, stack):
        probs, labels, num_bins = stack
        n, c = probs.shape[1:]
        val_losses, accuracies, eces, confusions = _stack_scores(probs, labels, num_bins)
        for r in range(probs.shape[0]):
            confusion = confusion_counts(labels[r], probs[r].argmax(axis=1), c)
            for got, want in [
                (val_losses[r], val_loss(probs[r], labels[r])),
                (accuracies[r], np.trace(confusion) / n),
                (eces[r], ece(probs[r], labels[r], num_bins)),
            ]:
                assert type(got) is type(want)
                assert repr(got) == repr(want)  # the bits
            assert confusions[r].dtype == confusion.dtype
            assert np.array_equal(confusions[r], confusion)

    @settings(max_examples=100, deadline=None)
    @given(probability_stacks())
    def test_each_run_bins_as_reliability_bins_bins_it_alone(self, stack):
        probs, labels, num_bins = stack
        predicted, counts, mean_conf, accuracy, _ = _binned(probs, labels, num_bins)
        for r in range(probs.shape[0]):
            alone = reliability_bins(probs[r], labels[r], num_bins)
            assert np.array_equal(predicted[r], probs[r].argmax(axis=1))
            for got, want in [
                (counts[r], alone.counts),
                (mean_conf[r], alone.mean_confidence),
                (accuracy[r], alone.accuracy),
            ]:
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()  # the bits
