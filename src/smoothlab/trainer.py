"""Feed-forward softmax classifier with mini-batch SGD.

All four smoothing strategies share one training path: at the start of each
epoch ``TargetStrategy.table`` gives a C x C target table (row y = the soft
target for label y), so the per-batch work is always plain soft-target
cross-entropy. ``fit`` keeps only the per-epoch state the strategy's kind
reads: the confusion tracker for cpls, the online-smoothing accumulator for ols.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .calibration import ece
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
    """Overwrite a 2-D float64 array with its row-wise stable softmax; returns it."""
    z -= np.maximum.reduce(z, axis=1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=1, keepdims=True)
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


def evaluate(params: ModelParams, ds: LabeledDataset) -> tuple[float, np.ndarray, np.ndarray]:
    """Accuracy, per-sample probability matrix, and confusion counts (true x predicted).

    Argmax ties break toward the lowest class index, so accuracy always equals
    trace(confusion) / n_samples.
    """
    if ds.n_features != params.input_dim:
        raise DimensionError(f"expected {params.input_dim} features, got {ds.n_features}")
    logits, _ = _forward_batch(params, ds.features)
    probs = softmax_rows_inplace(logits)
    predictions = probs.argmax(axis=1)
    accuracy = np.count_nonzero(predictions == ds.labels) / ds.n_samples
    c = ds.num_classes
    confusion = np.bincount(ds.labels * c + predictions, minlength=c * c).reshape(c, c)
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
    num_classes = train.num_classes
    tracker = ConfusionTracker(num_classes) if strategy.kind == "cpls" else None
    smoother = OnlineLabelSmoother(num_classes) if strategy.kind == "ols" else None
    on_batch = smoother.update_batch if smoother is not None else None

    val_picks = (np.arange(val.n_samples), val.labels)  # each sample's true-class probability

    metrics: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        phase = strategy.phase(epoch)
        table = strategy.table(num_classes, epoch, tracker, smoother)
        train_loss = train_epoch(params, train, table, config, seed, epoch, on_batch)
        val_accuracy, val_probs, val_confusion = evaluate(params, val)
        val_loss = -float(np.add.reduce(floored_log(val_probs[val_picks]))) / val.n_samples
        val_ece = ece(val_probs, val.labels, config.ece_bins)
        record = EpochMetrics(epoch, phase, train_loss, val_loss, val_accuracy, val_ece)
        metrics.append(record)
        if tracker is not None:
            tracker.accumulate_counts(val_confusion)
            tracker.normalize()
        if smoother is not None:
            smoother.advance_epoch()
        if on_epoch is not None:
            on_epoch(epoch, params, record, tracker)
    return params, metrics
