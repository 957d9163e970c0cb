"""Feed-forward softmax classifier with mini-batch SGD.

All four smoothing strategies share one training path: at the start of each
epoch ``TargetStrategy.table`` gives a C x C target table (row y = the soft
target for label y), so the per-batch work is always plain soft-target
cross-entropy. ``fit`` keeps only the per-epoch state the strategy's kind
reads: the confusion tracker for cpls, the online-smoothing accumulator for ols.

``_fit_stack`` trains every strategy's runs of several seeds in lockstep, as
one stacked program with the same per-run state and one batched validation
pass per epoch, and gives each run the bits ``fit`` gives it alone; ``fit``
stays the reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calibration import _bin_index, _validated, ece
from .errors import ConfigError, DimensionError, DomainError, NumericError
from .datasets import LabeledDataset
from .smoothing import (
    PROB_FLOOR,
    ConfusionTracker,
    OnlineLabelSmoother,
    TargetStrategy,
    floored_log,
)


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
        if any(width < 1 for width in self.hidden):
            raise DomainError(f"hidden widths must each be >= 1, got {self.hidden}")
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        # 0 is allowed so a no-op update step can be exercised in tests.
        if not (0 <= self.learning_rate < math.inf):
            raise DomainError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.ece_bins < 1:
            raise DomainError(f"ece_bins must be >= 1, got {self.ece_bins}")


@dataclass(eq=False)
class ModelParams:
    """Per-layer weights (out x in) and biases, plus their momentum and gradient.

    The constructor copies the given arrays into a flat float64 buffer that the
    instance owns: ``flat`` holds every weight matrix and then every bias,
    layer by layer, and the two lists are views into it. ``flat_velocity``
    holds the momentum in the same layout and starts at zero, so one SGD step
    can update every layer at once. ``flat_grad`` is the buffer, in the same
    layout, that ``loss_and_gradients`` writes each gradient into;
    ``grad_weights`` and ``grad_biases`` are its per-layer views.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)
    flat_velocity: np.ndarray = field(init=False, repr=False)
    flat_grad: np.ndarray = field(init=False, repr=False)
    grad_weights: list[np.ndarray] = field(init=False, repr=False)
    grad_biases: list[np.ndarray] = field(init=False, repr=False)
    _layout: list[tuple[int, int, tuple[int, ...]]] = field(init=False, repr=False)

    def __post_init__(self):
        self._layout = []
        stop = 0
        for shape in [np.shape(a) for a in self.weights + self.biases]:
            start, stop = stop, stop + math.prod(shape)
            self._layout.append((start, stop, shape))
        self.flat = np.concatenate(
            [np.asarray(a, dtype=np.float64).ravel() for a in self.weights + self.biases]
        )
        self.flat_velocity = np.zeros_like(self.flat)
        self.flat_grad = np.zeros_like(self.flat)
        self.weights, self.biases = self.split(self.flat)
        self.grad_weights, self.grad_biases = self.split(self.flat_grad)

    def split(self, flat: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        """Per-layer weight and bias views of a flat buffer in this layout."""
        views = [flat[start:stop].reshape(shape) for start, stop, shape in self._layout]
        half = len(views) // 2
        return views[:half], views[half:]

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
    sizes = tuple(int(s) for s in layer_sizes)
    if len(sizes) < 2:
        raise DomainError(f"need at least input and output sizes, got {sizes}")
    if any(s < 1 for s in sizes):
        raise DomainError(f"all layer sizes must be >= 1, got {sizes}")
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


def _forward_batch(params: ModelParams, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    # activations[i] is the input to layer i; activations[-1] feeds the output layer.
    activations = [x]
    h = x
    # np.dot has less call overhead than @ on these small matrices; both hand a
    # 2-D float64 product to the same BLAS routine, so the bits are the same.
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = np.dot(h, w.T)
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    logits = np.dot(h, params.weights[-1].T)
    logits += params.biases[-1]
    return logits, activations


def loss_and_gradients(
    params: ModelParams, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Mean soft-target cross-entropy over a batch, the predicted probabilities,
    and the gradient w.r.t. every weight and bias as one flat array laid out
    like ``params.flat``.

    The gradient is written into ``params.flat_grad`` and that buffer is
    returned (``params.grad_weights`` and ``params.grad_biases`` are its
    per-layer views), so the next call on the same params overwrites it. The
    probabilities are a new array on every call and are not written again.

    The logit gradient per sample is probs - target; everything else is the
    chain rule through ReLU affine layers.
    """
    x = np.asarray(x, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise DimensionError(f"expected batch of shape (n, {params.input_dim}), got {x.shape}")
    if targets.shape != (x.shape[0], params.output_dim):
        raise DimensionError(
            f"expected targets of shape ({x.shape[0]}, {params.output_dim}), got {targets.shape}"
        )
    logits, activations = _forward_batch(params, x)
    probs = softmax_rows_inplace(logits)
    n = x.shape[0]
    # targets * floored_log(probs), row sums, then their mean, in place.
    terms = np.maximum(probs, PROB_FLOOR)
    np.log(terms, out=terms)
    terms *= targets
    loss = -float(np.add.reduce(np.add.reduce(terms, axis=1))) / n

    delta = probs - targets
    delta /= n
    grads_w, grads_b = params.grad_weights, params.grad_biases
    for layer in range(params.num_layers - 1, -1, -1):
        np.dot(delta.T, activations[layer], out=grads_w[layer])
        np.add.reduce(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            # ReLU output is positive exactly where its pre-activation was.
            delta = np.dot(delta, params.weights[layer])
            delta *= activations[layer] > 0.0
    return loss, probs, params.flat_grad


def train_epoch(
    params: ModelParams,
    train: LabeledDataset,
    target_table: np.ndarray,
    config: TrainConfig,
    seed: int,
    epoch: int,
    on_batch: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> float:
    """One pass of shuffled mini-batch SGD with momentum; returns the mean loss.

    The shuffle is a pure function of (seed, epoch). ``target_table``
    row y is the soft target applied to every sample labeled y this epoch.
    ``on_batch(labels, probs)`` is invoked after each forward pass; every call
    gets a new ``probs`` array and a slice of the epoch's labels, and neither
    is written again, so the callback may keep them without copying.
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
    total = 0.0
    lr = config.learning_rate
    mu = config.momentum
    weights, velocity = params.flat, params.flat_velocity
    step = np.empty_like(weights)
    for batch_no, start in enumerate(range(0, n, config.batch_size)):
        batch = slice(start, start + config.batch_size)
        loss, probs, grad = loss_and_gradients(params, features[batch], targets[batch])
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}, batch {batch_no}")
        if on_batch is not None:
            on_batch(labels[batch], probs)
        # v = mu * v + g; w -= lr * v, for every layer at once on the flat buffers.
        velocity *= mu
        velocity += grad
        np.multiply(velocity, lr, out=step)
        weights -= step
        total += loss * probs.shape[0]
    return total / n


def _scores(probs: np.ndarray, ds: LabeledDataset) -> tuple[float, np.ndarray]:
    """Accuracy and confusion counts (true x predicted) of one probability matrix."""
    predictions = probs.argmax(axis=1)
    accuracy = np.count_nonzero(predictions == ds.labels) / ds.n_samples
    c = ds.num_classes
    confusion = np.bincount(ds.labels * c + predictions, minlength=c * c).reshape(c, c)
    return accuracy, confusion


def evaluate(params: ModelParams, ds: LabeledDataset) -> tuple[float, np.ndarray, np.ndarray]:
    """Accuracy, per-sample probability matrix, and confusion counts (true x predicted).

    Argmax ties break toward the lowest class index, so accuracy always equals
    trace(confusion) / n_samples.
    """
    if ds.n_features != params.input_dim:
        raise DimensionError(f"expected {params.input_dim} features, got {ds.n_features}")
    logits, _ = _forward_batch(params, ds.features)
    probs = softmax_rows_inplace(logits)
    accuracy, confusion = _scores(probs, ds)
    return accuracy, probs, confusion


def extract_features(params: ModelParams, ds: LabeledDataset) -> np.ndarray:
    """Penultimate-layer activations, n_samples x h_k, for external embedding."""
    if params.num_layers < 2:
        raise ConfigError("feature extraction needs at least one hidden layer")
    if ds.n_features != params.input_dim:
        raise DimensionError(f"expected {params.input_dim} features, got {ds.n_features}")
    _, activations = _forward_batch(params, ds.features)
    return activations[-1]


def fit(
    train: LabeledDataset,
    val: LabeledDataset,
    config: TrainConfig,
    strategy: TargetStrategy,
    seed: int,
    on_epoch: Callable[[int, ModelParams, EpochMetrics, ConfusionTracker | None], None] | None = None,
) -> tuple[ModelParams, list[EpochMetrics]]:
    """Run the full warmup-then-hybrid training schedule of one strategy.

    Every epoch ends with a validation pass. A cpls run folds its confusion
    counts into a fresh tracker matrix, so the hybrid phase always works from
    the latest one; an ols run folds the epoch's correct training predictions
    into the next epoch's targets. ``on_epoch`` gets the tracker of a cpls run
    and None otherwise.
    The network maps train.n_features inputs through ``config.hidden`` to
    train.num_classes outputs; its initial parameters are drawn from those
    sizes and the seed.
    """
    if seed < 0:
        raise DomainError(f"seed must be a non-negative integer, got {seed}")
    if train.n_features != val.n_features or train.num_classes != val.num_classes:
        raise DimensionError("train and val splits must share feature count and class count")
    params = init_params((train.n_features, *config.hidden, train.num_classes), seed)
    run = _RunState(strategy, val, config)
    on_batch = run.smoother.update_batch if run.smoother is not None else None
    for epoch in range(1, config.epochs + 1):
        train_loss = train_epoch(params, train, run.table(epoch), config, seed, epoch, on_batch)
        val_accuracy, val_probs, val_confusion = evaluate(params, val)
        record = run.end_epoch(epoch, train_loss, val_accuracy, val_probs, val_confusion)
        if on_epoch is not None:
            on_epoch(epoch, params, record, run.tracker)
    return params, run.metrics


class _RunState:
    """What one run keeps from epoch to epoch besides its parameters: the
    state its strategy's kind reads (the confusion tracker of a cpls run, the
    online-smoothing accumulator of an ols run) and its epoch metrics."""

    def __init__(self, strategy: TargetStrategy, val: LabeledDataset, config: TrainConfig):
        num_classes = val.num_classes
        self.strategy = strategy
        self.val = val
        self.ece_bins = config.ece_bins
        self.tracker = ConfusionTracker(num_classes) if strategy.kind == "cpls" else None
        self.smoother = OnlineLabelSmoother(num_classes) if strategy.kind == "ols" else None
        # each validation sample's true-class probability
        self.val_picks = (np.arange(val.n_samples), val.labels)
        self.metrics: list[EpochMetrics] = []

    def table(self, epoch: int) -> np.ndarray:
        return self.strategy.table(self.val.num_classes, epoch, self.tracker, self.smoother)

    def end_epoch(
        self,
        epoch: int,
        train_loss: float,
        val_accuracy: float,
        val_probs: np.ndarray,
        val_confusion: np.ndarray,
    ) -> EpochMetrics:
        """Take the val loss and ECE of the epoch's validation pass, then
        ``fold`` the epoch."""
        n = self.val.n_samples
        val_loss = -float(np.add.reduce(floored_log(val_probs[self.val_picks]))) / n
        val_ece = ece(val_probs, self.val.labels, self.ece_bins)
        return self.fold(epoch, train_loss, val_loss, val_accuracy, val_ece, val_confusion)

    def fold(
        self,
        epoch: int,
        train_loss: float,
        val_loss: float,
        val_accuracy: float,
        val_ece: float,
        val_confusion: np.ndarray,
    ) -> EpochMetrics:
        """Record the epoch's metrics, then fold its validation counts (cpls)
        or its training batches (ols) into the next epoch's table. A cpls
        tracker binds a new ``normalized`` array every epoch."""
        phase = self.strategy.phase(epoch)
        record = EpochMetrics(epoch, phase, train_loss, val_loss, val_accuracy, val_ece)
        self.metrics.append(record)
        if self.tracker is not None:
            self.tracker.accumulate_counts(val_confusion)
            self.tracker.normalize()
        if self.smoother is not None:
            self.smoother.advance_epoch()
        return record


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
    labels, each the bits ``fit`` takes for the run alone (``_scores``, the
    floored-log loss and the public ``ece``), in one pass over the stack.

    The probabilities are checked as the public ``ece`` checks them, all runs
    at once; when that fails, ``ece`` is called run by run, and the first run
    it fails on raises ``_RunError`` with that run's index and message.
    """
    count, n, c = probs.shape
    try:
        _validated(probs.reshape(-1, c), labels.ravel())
    except (DimensionError, DomainError):
        for index in range(count):
            try:
                ece(probs[index], labels[index], num_bins)
            except (DimensionError, DomainError) as exc:
                raise _RunError(index, exc) from exc
        raise
    # As in reliability_bins: the argmax once, the confidence read at it.
    predictions = probs.argmax(axis=2)
    confidence = np.take_along_axis(probs, predictions[:, :, None], axis=2)[:, :, 0]
    picked = np.take_along_axis(probs, labels[:, :, None], axis=2)[:, :, 0]
    val_losses = -np.add.reduce(floored_log(picked), axis=1) / n
    correct = predictions == labels
    accuracies = np.count_nonzero(correct, axis=1) / n
    # Run r's counts and bins sit at offset r of one bincount each.
    runs = np.arange(count)[:, None]
    cells = ((runs * c + labels) * c + predictions).ravel()
    confusions = np.bincount(cells, minlength=count * c * c).reshape(count, c, c)
    bins = (runs * num_bins + _bin_index(confidence, num_bins)).ravel()
    size = count * num_bins
    counts = np.bincount(bins, minlength=size)
    conf_sums = np.bincount(bins, weights=confidence.ravel(), minlength=size)
    correct_sums = np.bincount(bins, weights=correct.ravel(), minlength=size)
    nonempty = counts > 0
    mean_conf = np.divide(conf_sums, counts, out=np.zeros(size), where=nonempty)
    accuracy = np.divide(correct_sums, counts, out=np.zeros(size), where=nonempty)
    gaps = counts / n * np.abs(accuracy - mean_conf)
    eces = np.add.reduce(gaps.reshape(count, num_bins), axis=1)
    # the accuracy as _scores types it, a numpy float
    return val_losses.tolist(), list(accuracies), eces.tolist(), confusions


class _ParamStack:
    """The parameters, momentum and gradients of R runs as (R, P) stacks, row r
    in run r's ``ModelParams.flat`` layout, with per-layer (R, out, in) weight
    and (R, 1, out) bias views.

    Every product is ``np.matmul`` over the stack, which hands each run's 2-D
    product to the BLAS routine ``np.dot`` calls for it alone, and every other
    operation is elementwise or reduces within one run as the per-run code
    does, so each row follows ``loss_and_gradients`` and ``train_epoch`` bit
    for bit.
    """

    def __init__(self, runs: list[ModelParams]):
        self._layout = runs[0]._layout
        self.flat = np.stack([params.flat for params in runs])
        self.velocity = np.zeros_like(self.flat)
        self.grad = np.zeros_like(self.flat)
        self.step = np.empty_like(self.flat)
        self.weights, self.biases = self._views(self.flat)
        self.weights_t = [w.transpose(0, 2, 1) for w in self.weights]
        self.grad_weights, self.grad_biases = self._views(self.grad)

    def _views(self, stack: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
        count = stack.shape[0]
        views = [
            stack[:, start:stop].reshape(count, -1, shape[-1])
            for start, stop, shape in self._layout
        ]
        half = len(views) // 2
        return views[:half], views[half:]

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
        """Logits and layer inputs of an (R, n, d) batch stack, as ``_forward_batch``."""
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
        probabilities, a new array; the gradients go into ``grad``."""
        logits, activations = self.forward(x)
        probs = softmax_rows_inplace(logits)
        n = x.shape[1]
        terms = np.maximum(probs, PROB_FLOOR)
        np.log(terms, out=terms)
        terms *= targets
        losses = np.add.reduce(np.add.reduce(terms, axis=2), axis=1)
        losses /= -n  # exactly -(sum) / n, as each run's loss is taken
        delta = probs - targets
        delta /= n
        for layer in range(len(self.weights) - 1, -1, -1):
            np.matmul(delta.transpose(0, 2, 1), activations[layer], out=self.grad_weights[layer])
            np.add.reduce(delta, axis=1, keepdims=True, out=self.grad_biases[layer])
            if layer > 0:
                delta = np.matmul(delta, self.weights[layer])
                delta *= activations[layer] > 0.0
        return losses, probs

    def sgd_step(self, learning_rate: float, momentum: float) -> None:
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
    shuffled training split, drawn once per epoch. An ols smoother is fed a
    copy of its run's slice of the step's probabilities, and the validation
    pass is one stacked forward and one ``_stack_scores`` per epoch. Returns,
    per run, its parameters, its metrics and, for cpls, the tracker's table
    after each epoch. A non-finite loss raises ``_RunError`` naming, of the
    runs it shows in at that step, the one of the first strategy and then the
    lowest seed; an error in one run's validation pass names that run.
    """
    train, val = splits[0]
    shapes = (train.features.shape, val.features.shape)
    if any((t.features.shape, v.features.shape) != shapes for t, v in splits):
        raise DimensionError("the runs of a stack must share their split shapes")
    n, num_classes = train.n_samples, train.num_classes
    sizes = (train.n_features, *config.hidden, num_classes)
    initial = [init_params(sizes, seed) for seed in seeds]
    stack = _ParamStack([params for _ in strategies for params in initial])
    runs = [_RunState(strategy, v, config) for strategy in strategies for _, v in splits]
    smoothers = [(r, run.smoother) for r, run in enumerate(runs) if run.smoother is not None]
    count = len(runs)
    # the order in which a non-finite loss names runs, and each run's seed row
    blame = [(place, seed) for place in range(len(strategies)) for seed in seeds]
    rows = np.arange(count) % len(seeds)
    # Every epoch refills the same buffers, one row per seed.
    features = np.empty((len(seeds), n, train.n_features))
    labels = np.empty((len(seeds), n), dtype=train.labels.dtype)
    tables = np.empty((count, num_classes, num_classes))
    # row r * C + y of tables_flat is run r's target for label y
    tables_flat = tables.reshape(-1, num_classes)
    offsets = np.arange(count)[:, None] * num_classes
    val_features = np.stack([v.features for _, v in splits])[rows]
    val_labels = np.stack([v.labels for _, v in splits])[rows]
    tables_seen: list[list[np.ndarray]] = [[] for _ in runs]

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
            batch_labels = labels[rows, batch]
            targets = np.take(tables_flat, batch_labels + offsets, axis=0)
            losses, probs = stack.loss_and_gradients(features[rows, batch], targets)
            finite = np.isfinite(losses)
            if not finite.all():
                index = min(np.flatnonzero(~finite).tolist(), key=blame.__getitem__)
                error = NumericError(f"non-finite training loss at epoch {epoch}, batch {batch_no}")
                raise _RunError(index, error)
            for index, smoother in smoothers:
                smoother.update_batch(batch_labels[index], probs[index].copy())
            stack.sgd_step(config.learning_rate, config.momentum)
            totals += losses * probs.shape[1]
        train_losses = (totals / n).tolist()

        val_probs = softmax_rows_inplace(stack.forward(val_features)[0])
        scores = _stack_scores(val_probs, val_labels, config.ece_bins)
        for index, (run, train_loss, *score) in enumerate(zip(runs, train_losses, *scores)):
            run.fold(epoch, train_loss, *score)
            if run.tracker is not None:
                tables_seen[index].append(run.tracker.normalized)
    return [
        (stack.params_of(index), run.metrics, tables_seen[index])
        for index, run in enumerate(runs)
    ]
