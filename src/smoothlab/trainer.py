"""Feed-forward softmax classifier with mini-batch SGD.

All four smoothing strategies share one training path: at the start of each
epoch ``TargetStrategy.table`` gives a C x C target table (row y = the soft
target for label y), so the per-batch work is always plain soft-target
cross-entropy. ``fit`` keeps only the per-epoch state the strategy's kind
reads: the confusion tracker for cpls, the online-smoothing accumulator for ols.

``_ParamStack`` holds the only parameter layout, forward pass, gradient and
SGD step, and ``_stack_scores`` the only validation scoring (over
``calibration``'s binning), each for R runs at once; the per-run functions run
them at R=1, and a ``ModelParams`` is a one-run stack's row. ``_fit_stack``
trains every strategy's runs of several seeds in lockstep with one batched
validation pass per epoch, and gives each run the bits ``fit`` gives it alone.
It alone keeps what only a stack needs: which run a failure belongs to.
Both are held to ``reference_epoch`` in the trainer tests and to
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calibration import _binned, _validated, ece
from .errors import ConfigError, DimensionError, DomainError, NumericError
from .datasets import LabeledDataset, _check_count, _check_seed
from .smoothing import ConfusionTracker, OnlineLabelSmoother, TargetStrategy

# Probabilities are floored before taking logs so a zero prediction yields a
# large finite loss instead of an infinite one.
PROB_FLOOR = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    """The network and SGD settings every run of an experiment shares; the
    strategy and seed that tell one run from another are arguments to ``fit``.

    ``hidden`` holds the ReLU hidden-layer widths; the input and output widths
    come from the data, and an empty tuple means plain softmax regression.
    """

    hidden: tuple[int, ...]
    epochs: int
    batch_size: int
    learning_rate: float
    momentum: float
    ece_bins: int

    def __post_init__(self):
        for width in self.hidden:
            _check_count("hidden widths", width)
        _check_count("epochs", self.epochs)
        _check_count("batch_size", self.batch_size)
        # 0 is allowed so a no-op update step can be exercised in tests.
        if not (0 <= self.learning_rate < math.inf):
            raise DomainError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")
        _check_count("ece_bins", self.ece_bins)


@dataclass(eq=False)
class ModelParams:
    """Per-layer weights (out x in) and biases, plus their momentum and gradient.

    The constructor copies the given arrays into a flat float64 buffer that the
    instance owns: ``flat`` holds every weight matrix and then every bias,
    layer by layer. ``_stack`` is the one-run ``_ParamStack`` over ``flat``
    that trains it and owns the layout: the two lists are row 0 of its views,
    and ``flat_velocity`` (the momentum, starting at zero) and ``flat_grad``
    (where ``loss_and_gradients`` writes each gradient) are its row 0. Each
    layer needs 2-D weights, one bias per weight row, and the previous
    layer's outputs as its inputs, or ``DimensionError`` names it.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)
    flat_velocity: np.ndarray = field(init=False, repr=False)
    flat_grad: np.ndarray = field(init=False, repr=False)
    _stack: _ParamStack = field(init=False, repr=False)

    def __post_init__(self):
        if not 0 < len(self.weights) == len(self.biases):
            counts = f"{len(self.weights)} weight matrices and {len(self.biases)} bias vectors"
            raise DimensionError(f"need at least one layer and a bias per weight, got {counts}")
        inputs = None
        for layer, (w, b) in enumerate(zip(self.weights, self.biases)):
            shape, b_shape = np.shape(w), np.shape(b)
            if len(shape) != 2 or b_shape != shape[:1]:
                raise DimensionError(
                    f"layer {layer}: needs 2-D weights and one bias per weight row, "
                    f"got shapes {shape} and {b_shape}"
                )
            if inputs not in (None, shape[1]):
                message = f"weights take {shape[1]} inputs, but layer {layer - 1} gives {inputs}"
                raise DimensionError(f"layer {layer}: {message}")
            inputs = shape[0]
        arrays = self.weights + self.biases
        self.flat = np.concatenate([np.asarray(a, dtype=np.float64).ravel() for a in arrays])
        self._stack = _ParamStack([np.shape(a) for a in arrays], self.flat[None])
        self.flat_velocity = self._stack.velocity[0]
        self.flat_grad = self._stack.grad[0]
        self.weights, self.biases = self.split(self.flat)

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a flat buffer in this layout."""
        weights, biases = self._stack.views(flat[None])
        return [w[0] for w in weights], [b[0, 0] for b in biases]

    @property
    def num_layers(self) -> int:
        return len(self.weights)

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[0]


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    phase: str  # "warmup" or "hybrid"
    train_loss: float
    val_loss: float
    val_accuracy: float
    val_ece: float


def init_params(layer_sizes: tuple[int, ...], seed: int) -> ModelParams:
    """He-normal weights (std sqrt(2 / fan_in)), zero biases, zero momentum, for
    layer sizes (d_in, h_1, .., h_k, C): ReLU hidden layers, softmax output."""
    _check_seed(seed)
    sizes = tuple(layer_sizes)
    if len(sizes) < 2:
        raise DomainError(f"need at least input and output sizes, got {sizes}")
    for size in sizes:
        _check_count("layer sizes", size)
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        weights.append(rng.normal(0.0, math.sqrt(2.0 / fan_in), size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return ModelParams(weights, biases)


def softmax_rows_inplace(z: np.ndarray) -> np.ndarray:
    """Overwrite a float64 array with the stable softmax of each row (along its
    last axis); returns it."""
    z -= np.maximum.reduce(z, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def loss_and_gradients(
    params: ModelParams, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean soft-target cross-entropy over a non-empty batch, the predicted
    probabilities, and the gradient w.r.t. every weight and bias as one flat
    array laid out like ``params.flat``, from the params' one-run stack.

    The gradient is written into ``params.flat_grad`` and that buffer is
    returned, so the next call on the same params overwrites it.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(f"expected batch of shape (n, {params.input_dim}), got {x.shape}")
    if x.shape[0] == 0:
        raise DimensionError("expected a batch of at least one sample, got 0")
    if targets.shape != (x.shape[0], params.output_dim):
        raise DimensionError(
            f"expected targets of shape ({x.shape[0]}, {params.output_dim}), got {targets.shape}"
        )
    losses, probs = params._stack.loss_and_gradients(x[None], targets[None])
    return float(losses[0]), probs[0], params.flat_grad


def train_epoch(
    params: ModelParams,
    train: LabeledDataset,
    target_table: np.ndarray,
    config: TrainConfig,
    seed: int,
    epoch: int,
) -> tuple[float, np.ndarray, np.ndarray]:
    """One pass of shuffled mini-batch SGD with momentum. Returns the mean
    loss, the epoch's (n,) shuffled labels and the (n, C) probabilities each
    sample got in its step's forward pass, both in the epoch's order.

    The shuffle is a pure function of (seed, epoch). ``target_table``
    row y is the soft target applied to every sample labeled y this epoch.
    """
    target_table = np.asarray(target_table, dtype=np.float64)
    if target_table.shape != (train.num_classes, train.num_classes):
        raise DimensionError(
            f"target table must be ({train.num_classes}, {train.num_classes}), "
            f"got {target_table.shape}"
        )
    n = train.n_samples
    order = np.random.default_rng([seed, epoch]).permutation(n)
    features = train.features[order]
    labels = train.labels[order]
    targets = target_table[labels]
    epoch_probs = np.empty((n, train.num_classes))
    total = 0.0
    for batch_no, start in enumerate(range(0, n, config.batch_size)):
        batch = slice(start, start + config.batch_size)
        loss, probs, _ = loss_and_gradients(params, features[batch], targets[batch])
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}, batch {batch_no}")
        epoch_probs[batch] = probs
        params._stack.sgd_step(config.learning_rate, config.momentum)
        total += loss * probs.shape[0]
    return total / n, labels, epoch_probs


def _counts(predictions: np.ndarray, labels: np.ndarray, c: int) -> tuple[np.ndarray, np.ndarray]:
    """Each run's accuracy, an (R,) array, and its confusion counts (true x
    predicted), an (R, C, C) array, from (R, n) predictions and labels of C classes."""
    count, n = labels.shape
    accuracies = np.count_nonzero(predictions == labels, axis=1) / n
    # Run r's counts sit at offset r * C * C of one bincount.
    cells = ((np.arange(count)[:, None] * c + labels) * c + predictions).ravel()
    confusions = np.bincount(cells, minlength=count * c * c).reshape(count, c, c)
    return accuracies, confusions


def evaluate(params: ModelParams, ds: LabeledDataset) -> tuple[float, np.ndarray, np.ndarray]:
    """Accuracy, per-sample probability matrix, and confusion counts (true x predicted).

    Argmax ties break toward the lowest class index, so accuracy always equals
    trace(confusion) / n_samples.
    """
    if ds.n_features != params.input_dim:
        raise DimensionError(f"expected {params.input_dim} features, got {ds.n_features}")
    if ds.num_classes != params.output_dim:
        raise DimensionError(f"expected {params.output_dim} classes, got {ds.num_classes}")
    if ds.n_samples == 0:
        raise DimensionError("cannot evaluate a dataset of 0 samples")
    probs = softmax_rows_inplace(params._stack.forward(ds.features[None])[0])
    accuracies, confusions = _counts(probs.argmax(axis=2), ds.labels[None], ds.num_classes)
    return accuracies[0], probs[0], confusions[0]


def extract_features(params: ModelParams, ds: LabeledDataset) -> np.ndarray:
    """Penultimate-layer activations, n_samples x h_k, for external embedding."""
    if params.num_layers < 2:
        raise ConfigError("feature extraction needs at least one hidden layer")
    if ds.n_features != params.input_dim:
        raise DimensionError(f"expected {params.input_dim} features, got {ds.n_features}")
    return params._stack.forward(ds.features[None])[1][-1][0]


def fit(
    train: LabeledDataset,
    val: LabeledDataset,
    config: TrainConfig,
    strategy: TargetStrategy,
    seed: int,
) -> tuple[ModelParams, list[EpochMetrics], list[np.ndarray]]:
    """Run the full warmup-then-hybrid training schedule of one strategy.

    Every epoch ends with a validation pass. A cpls run folds its confusion
    counts into a fresh tracker matrix, so the hybrid phase always works from
    the latest one; an ols run folds the epoch's correct training predictions
    into the next epoch's targets. Returns the parameters, the metrics of each
    epoch and, for cpls, the tracker's table after each epoch (empty for every
    other kind): the per-run triple of ``_fit_stack``. A non-finite training
    loss raises ``NumericError``, and validation probabilities that ``ece``
    would refuse raise its error, naming the row.
    The network maps train.n_features inputs through ``config.hidden`` to
    train.num_classes outputs; its initial parameters are drawn from those
    sizes and the seed.
    """
    if train.n_features != val.n_features or train.num_classes != val.num_classes:
        raise DimensionError("train and val splits must share feature count and class count")
    params = init_params((train.n_features, *config.hidden, train.num_classes), seed)
    run = _RunState(strategy, train.num_classes)
    for epoch in range(1, config.epochs + 1):
        loss, labels, probs = train_epoch(params, train, run.table(epoch), config, seed, epoch)
        if run.smoother is not None:
            run.smoother.update_batch(labels, probs)
        # perfbench/tracing.py's HOOKS pin this one evaluate call per epoch.
        _, val_probs, _ = evaluate(params, val)
        scores = _stack_scores(val_probs[None], val.labels[None], config.ece_bins)
        run.fold(epoch, loss, *(score[0] for score in scores))
    return params, run.metrics, run.tables


class _RunState:
    """What one run keeps from epoch to epoch besides its parameters: the
    state its strategy's kind reads (the confusion tracker of a cpls run, the
    online-smoothing accumulator of an ols run), its epoch metrics and, for
    cpls, the tracker's table after each epoch."""

    def __init__(self, strategy: TargetStrategy, num_classes: int):
        self.strategy = strategy
        self.num_classes = num_classes
        self.tracker = ConfusionTracker(num_classes) if strategy.kind == "cpls" else None
        self.smoother = OnlineLabelSmoother(num_classes) if strategy.kind == "ols" else None
        self.metrics: list[EpochMetrics] = []
        self.tables: list[np.ndarray] = []

    def table(self, epoch: int) -> np.ndarray:
        return self.strategy.table(self.num_classes, epoch, self.tracker, self.smoother)

    def fold(
        self,
        epoch: int,
        train_loss: float,
        val_loss: float,
        val_accuracy: float,
        val_ece: float,
        val_confusion: np.ndarray,
    ) -> None:
        """Record the epoch's metrics, then fold its validation counts (cpls)
        or its training predictions (ols) into the next epoch's table. A cpls
        tracker binds a new ``normalized`` array every epoch, so ``tables``
        keeps each one without a copy."""
        phase = self.strategy.phase(epoch)
        self.metrics.append(EpochMetrics(epoch, phase, train_loss, val_loss, val_accuracy, val_ece))
        if self.tracker is not None:
            self.tracker.accumulate_counts(val_confusion)
            self.tracker.normalize()
            self.tables.append(self.tracker.normalized)
        if self.smoother is not None:
            self.smoother.advance_epoch()


# The most working-set bytes one stack of runs may hold (see _stack_cap), about
# one core's L2 cache. The README default shape (about 42 KB a run) stacks up
# to 47 runs, the wide 32-class shape of 128,128 hidden units and batch 128
# (about 1.45 MB a run) one. Measured on one core of a 2-core Xeon with 2 MB
# of L2 per core, stacks against as many separate fit calls ran 0.90-1.01x
# at two wide runs and 0.80-0.97x at eight, while the default shape ran
# 1.05-1.33x at two, 1.54-2.09x at five and 2.02-2.64x at twenty.
_STACK_BUDGET = 2_000_000


def _stack_cap(layer_sizes: tuple[int, ...], batch_size: int) -> int:
    """The most runs of this network and batch size that one stack holds,
    whatever their strategies: ``_STACK_BUDGET`` over one run's working set,
    its parameter, momentum, gradient and step buffers plus one batch's
    activations forward and back."""
    num_params = sum(
        (fan_in + 1) * fan_out for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:])
    )
    run_bytes = 8 * (4 * num_params + 2 * batch_size * sum(layer_sizes))
    return max(1, _STACK_BUDGET // run_bytes)


class _RunError(Exception):
    """An error that one run of a stack owns: ``index`` is the run's place in
    the stack and ``error`` the error itself."""

    def __init__(self, index: int, error: Exception):
        super().__init__(index, error)
        self.index = index
        self.error = error


def _stack_scores(
    probs: np.ndarray, labels: np.ndarray, num_bins: int
) -> tuple[list[float], list[np.float64], list[float], np.ndarray]:
    """Each run's val loss, accuracy, ECE and confusion counts (true x
    predicted) from an (R, n, C) stack of validation probabilities and its (R, n)
    labels: ``calibration``'s binning gives the argmax and ECE, and its argmax
    feeds the ``_counts`` of ``evaluate``. At R=1 this is ``fit``'s pass.

    The probabilities are checked as the public ``ece`` checks them, all runs
    at once as one (R * n, C) matrix, and a failure raises its public error;
    at R=1 that is the run's own check and message.
    """
    n, c = probs.shape[1:]
    _validated(probs.reshape(-1, c), labels.ravel())
    predictions, *_, eces = _binned(probs, labels, num_bins)
    picked = np.take_along_axis(probs, labels[:, :, None], axis=2)[:, :, 0]
    val_losses = -np.add.reduce(np.log(np.maximum(picked, PROB_FLOOR)), axis=1) / n
    accuracies, confusions = _counts(predictions, labels, c)
    # the accuracy as evaluate types it, a numpy float
    return val_losses.tolist(), list(accuracies), eces.tolist(), confusions


class _ParamStack:
    """The parameters, momentum and gradients of R runs as (R, P) stacks, with
    per-layer (R, out, in) weight and (R, 1, out) bias views. ``shapes`` gives
    each weight's and then each bias's shape, layer by layer, and so the
    layout of a row, which is run r's ``ModelParams.flat``.

    ``flat`` is the (R, P) parameter buffer, updated in place. Every product
    is ``np.matmul`` over the stack, which hands each run's 2-D product to
    BLAS on its own, and every other operation is elementwise or reduces
    within one run, so each row gets the bits of a one-run stack, the stack
    every ``ModelParams`` trains through.
    """

    def __init__(self, shapes: list[tuple[int, ...]], flat: np.ndarray):
        self._shapes = shapes
        self.flat = flat
        self.velocity = np.zeros_like(self.flat)
        self.grad = np.zeros_like(self.flat)
        self.step = np.empty_like(self.flat)
        self.weights, self.biases = self.views(self.flat)
        self.weights_t = [w.transpose(0, 2, 1) for w in self.weights]
        self.grad_weights, self.grad_biases = self.views(self.grad)

    def views(self, stack: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of an (R, P) stack in this layout."""
        count = stack.shape[0]
        views, stop = [], 0
        for shape in self._shapes:
            start, stop = stop, stop + math.prod(shape)
            views.append(stack[:, start:stop].reshape(count, -1, shape[-1]))
        half = len(views) // 2
        return views[:half], views[half:]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Logits and layer inputs (the i-th feeds layer i) of an (R, n, d) batch stack."""
        activations = [x]
        h = x
        for w_t, b in zip(self.weights_t[:-1], self.biases[:-1]):
            h = np.matmul(h, w_t)
            h += b
            np.maximum(h, 0.0, out=h)
            activations.append(h)
        logits = np.matmul(h, self.weights_t[-1])
        logits += self.biases[-1]
        return logits, activations

    def loss_and_gradients(
        self, x: np.ndarray, targets: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Each run's mean batch loss, an (R,) array, and the (R, n, C)
        probabilities; the gradients go into ``grad``: per sample
        probs - target at the logits, then the chain rule through ReLU layers."""
        logits, activations = self.forward(x)
        probs = softmax_rows_inplace(logits)
        n = x.shape[1]
        terms = np.maximum(probs, PROB_FLOOR)
        np.log(terms, out=terms)
        terms *= targets
        losses = np.add.reduce(np.add.reduce(terms, axis=2), axis=1)
        losses /= -n
        delta = probs - targets
        delta /= n
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.transpose(0, 2, 1), activations[layer], out=self.grad_weights[layer])
            np.add.reduce(delta, axis=1, keepdims=True, out=self.grad_biases[layer])
            if layer > 0:
                # ReLU output is positive exactly where its pre-activation was.
                delta = np.matmul(delta, self.weights[layer])
                delta *= activations[layer] > 0.0
        return losses, probs

    def sgd_step(self, learning_rate: float, momentum: float) -> None:
        # v = momentum * v + g; w -= learning_rate * v, for every run and layer
        self.velocity *= momentum
        self.velocity += self.grad
        np.multiply(self.velocity, learning_rate, out=self.step)
        self.flat -= self.step

    def params_of(self, index: int) -> ModelParams:
        """Run ``index``'s parameters as a ``ModelParams`` of their own."""
        return ModelParams(
            [w[index] for w in self.weights], [b[index, 0] for b in self.biases]
        )


def _fit_stack(
    splits: list[tuple[LabeledDataset, LabeledDataset]],
    config: TrainConfig,
    strategies: list[TargetStrategy],
    seeds: list[int],
) -> list[tuple[ModelParams, list[EpochMetrics], list[np.ndarray]]]:
    """``fit`` of every strategy on each (train, val) split with its seed, the
    runs trained in lockstep: one stacked SGD program (see ``_ParamStack``)
    whose every run gets, bit for bit, the parameters and metrics ``fit``
    gives it alone. The splits must share their shapes, as the splits of one
    config's seeds do. The runs are strategy by strategy, seed by seed within
    each: run r is ``strategies[r // S]`` with ``seeds[r % S]`` for S seeds.

    Each run keeps its own targets and ``_RunState``; a seed's runs share its
    shuffled training split, drawn once per epoch. An ols smoother is fed its
    run's whole epoch in one call, and the validation pass is one stacked
    forward and one ``_stack_scores`` per epoch. Returns, per run, the triple
    ``fit`` returns: its parameters, its metrics and, for cpls, the tracker's
    table after each epoch. A non-finite loss raises ``_RunError`` naming
    the first run, in the stack's order, that shows one at that step. When the
    stacked validation check fails, ``ece`` checks the runs one by one, and
    the first it fails on raises ``_RunError`` with that run's message.
    """
    train, val = splits[0]
    shapes = (train.features.shape, val.features.shape)
    if any((t.features.shape, v.features.shape) != shapes for t, v in splits):
        raise DimensionError("the runs of a stack must share their split shapes")
    n, num_classes = train.n_samples, train.num_classes
    sizes = (train.n_features, *config.hidden, num_classes)
    initial = [init_params(sizes, seed) for seed in seeds]
    layout = [a.shape for a in initial[0].weights + initial[0].biases]
    stack = _ParamStack(layout, np.stack([p.flat for _ in strategies for p in initial]))
    runs = [_RunState(strategy, num_classes) for strategy in strategies for _ in splits]
    count = len(runs)
    ols = np.flatnonzero([run.smoother is not None for run in runs])
    rows = np.arange(count) % len(seeds)  # each run's seed row
    # Every epoch refills the same buffers, one row per seed.
    features = np.empty((len(seeds), n, train.n_features))
    labels = np.empty((len(seeds), n), dtype=train.labels.dtype)
    # row i holds run ols[i]'s probabilities of each sample at its step
    ols_probs = np.empty((ols.size, n, num_classes))
    tables = np.empty((count, num_classes, num_classes))
    # row r * C + y of tables_flat is run r's target for label y
    tables_flat = tables.reshape(-1, num_classes)
    offsets = np.arange(count)[:, None] * num_classes
    val_features = np.stack([v.features for _, v in splits])[rows]
    val_labels = np.stack([v.labels for _, v in splits])[rows]

    for epoch in range(1, config.epochs + 1):
        for row, ((t, _), seed) in enumerate(zip(splits, seeds)):
            order = np.random.default_rng([seed, epoch]).permutation(n)
            np.take(t.features, order, axis=0, out=features[row])
            np.take(t.labels, order, out=labels[row])
        for index, run in enumerate(runs):
            tables[index] = run.table(epoch)
        totals = np.zeros(count)
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
            batch = slice(start, start + config.batch_size)
            targets = np.take(tables_flat, labels[rows, batch] + offsets, axis=0)
            losses, probs = stack.loss_and_gradients(features[rows, batch], targets)
            finite = np.isfinite(losses)
            if not finite.all():
                index = int(np.flatnonzero(~finite)[0])
                error = NumericError(f"non-finite training loss at epoch {epoch}, batch {batch_no}")
                raise _RunError(index, error)
            ols_probs[:, batch] = probs[ols]
            stack.sgd_step(config.learning_rate, config.momentum)
            totals += losses * probs.shape[1]
        train_losses = (totals / n).tolist()
        for index, epoch_probs in zip(ols.tolist(), ols_probs):
            runs[index].smoother.update_batch(labels[rows[index]], epoch_probs)

        val_probs = softmax_rows_inplace(stack.forward(val_features)[0])
        try:
            scores = _stack_scores(val_probs, val_labels, config.ece_bins)
        except (DimensionError, DomainError):
            for index in range(count):
                try:
                    ece(val_probs[index], val_labels[index], config.ece_bins)
                except (DimensionError, DomainError) as exc:
                    raise _RunError(index, exc) from exc
            raise
        for run, train_loss, *score in zip(runs, train_losses, *scores):
            run.fold(epoch, train_loss, *score)
    return [(stack.params_of(index), run.metrics, run.tables) for index, run in enumerate(runs)]
