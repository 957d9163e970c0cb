"""Feed-forward softmax classifier with mini-batch SGD.

All four smoothing strategies share one training path: at the start of each
epoch the strategy is folded into a C x C target table (row y = the soft
target for label y), so the per-batch work is always plain soft-target
cross-entropy. The warmup/hybrid switch, the confusion tracker refresh, and
the online-smoothing accumulator all live in ``fit``.
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
class MlpConfig:
    """Layer sizes [d_in, h_1, .., h_k, C]; ReLU hidden layers, softmax output.

    Two entries mean no hidden layer at all (plain softmax regression).
    """

    layer_sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        if len(sizes) < 2:
            raise DomainError(f"need at least input and output sizes, got {sizes}")
        if any(s < 1 for s in sizes):
            raise DomainError(f"all layer sizes must be >= 1, got {sizes}")
        object.__setattr__(self, "layer_sizes", sizes)

    @property
    def num_hidden(self) -> int:
        return len(self.layer_sizes) - 2


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    learning_rate: float
    strategy: TargetStrategy
    seed: int
    momentum: float = 0.9
    ece_bins: int = 10

    def __post_init__(self):
        if self.epochs < 1:
            raise DomainError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise DomainError(f"batch_size must be >= 1, got {self.batch_size}")
        # 0 is allowed so a no-op update step can be exercised in tests.
        if not (0 <= self.learning_rate < math.inf):
            raise DomainError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not (0.0 <= self.momentum < 1.0):
            raise DomainError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.seed < 0:
            raise DomainError(f"seed must be a non-negative integer, got {self.seed}")
        if self.ece_bins < 1:
            raise DomainError(f"ece_bins must be >= 1, got {self.ece_bins}")


@dataclass(eq=False)
class ModelParams:
    """Per-layer weights (out x in) and biases, plus their momentum.

    The constructor copies the given arrays into a flat float64 buffer that the
    instance owns: ``flat`` holds every weight matrix and then every bias,
    layer by layer, and the two lists are views into it. ``flat_velocity``
    holds the momentum in the same layout and starts at zero, so one SGD step
    can update every layer at once.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: np.ndarray = field(init=False, repr=False)
    flat_velocity: np.ndarray = field(init=False, repr=False)
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
        self.weights, self.biases = self.split(self.flat)

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


def init_params(config: MlpConfig, seed: int) -> ModelParams:
    """He-normal weights (std sqrt(2 / fan_in)), zero biases, zero momentum."""
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    sizes = config.layer_sizes
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
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        h = h @ w.T
        h += b
        np.maximum(h, 0.0, out=h)
        activations.append(h)
    logits = h @ params.weights[-1].T
    logits += params.biases[-1]
    return logits, activations


def loss_and_gradients(
    params: ModelParams, x: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray, tuple[list[np.ndarray], list[np.ndarray]]]:
    """Mean soft-target cross-entropy over a batch, the predicted probabilities,
    and the gradients w.r.t. every weight and bias.

    The logit gradient per sample is probs - target; everything else is the
    chain rule through ReLU affine layers. The gradient lists are views of one
    flat gradient (their common ``.base``) laid out like ``params.flat``.
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
    loss = float(-(np.add.reduce(np.add.reduce(terms, axis=1)) / n))

    delta = probs - targets
    delta /= n
    grads_w, grads_b = params.split(np.empty_like(params.flat))
    for layer in range(params.num_layers - 1, -1, -1):
        np.matmul(delta.T, activations[layer], out=grads_w[layer])
        np.add.reduce(delta, axis=0, out=grads_b[layer])
        if layer > 0:
            # ReLU output is positive exactly where its pre-activation was.
            delta = delta @ params.weights[layer]
            delta *= activations[layer] > 0.0
    return loss, probs, (grads_w, grads_b)


def train_epoch(
    params: ModelParams,
    train: LabeledDataset,
    target_table: np.ndarray,
    config: TrainConfig,
    epoch: int,
    on_batch: Callable[[np.ndarray, np.ndarray], None] | None = None,
) -> float:
    """One pass of shuffled mini-batch SGD with momentum; returns the mean loss.

    The shuffle is a pure function of (config.seed, epoch). ``target_table``
    row y is the soft target applied to every sample labeled y this epoch.
    ``on_batch(labels, probs)`` is invoked after each forward pass.
    """
    target_table = np.asarray(target_table, dtype=np.float64)
    if target_table.shape != (train.num_classes, train.num_classes):
        raise DimensionError(
            f"target table must be ({train.num_classes}, {train.num_classes}), "
            f"got {target_table.shape}"
        )
    n = train.n_samples
    order = np.random.default_rng([config.seed, epoch]).permutation(n)
    features = train.features[order]
    labels = train.labels[order]
    total = 0.0
    lr = config.learning_rate
    mu = config.momentum
    weights, velocity = params.flat, params.flat_velocity
    step = np.empty_like(weights)
    for batch_no, start in enumerate(range(0, n, config.batch_size)):
        stop = start + config.batch_size
        batch_labels = labels[start:stop]
        loss, probs, (grads_w, _) = loss_and_gradients(
            params, features[start:stop], target_table[batch_labels]
        )
        if not math.isfinite(loss):
            raise NumericError(f"non-finite training loss at epoch {epoch}, batch {batch_no}")
        if on_batch is not None:
            on_batch(batch_labels, probs)
        # v = mu * v + g; w -= lr * v, for every layer at once on the flat buffers.
        velocity *= mu
        velocity += grads_w[0].base
        np.multiply(velocity, lr, out=step)
        weights -= step
        total += loss * batch_labels.size
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
    accuracy = float((predictions == ds.labels).mean())
    confusion = np.zeros((ds.num_classes, ds.num_classes), dtype=np.int64)
    np.add.at(confusion, (ds.labels, predictions), 1)
    return accuracy, probs, confusion


def extract_features(params: ModelParams, ds: LabeledDataset) -> np.ndarray:
    """Penultimate-layer activations, n_samples x h_k, for external embedding."""
    if params.num_layers < 2:
        raise ConfigError("feature extraction needs at least one hidden layer")
    if ds.n_features != params.input_dim:
        raise DimensionError(f"expected {params.input_dim} features, got {ds.n_features}")
    _, activations = _forward_batch(params, ds.features)
    return activations[-1]


def strategy_phase(strategy: TargetStrategy, epoch: int) -> str:
    """"hybrid" once a warmup strategy has passed its threshold, else "warmup"."""
    if strategy.kind in ("cpls", "ols") and epoch > strategy.warmup_epochs:
        return "hybrid"
    return "warmup"


def _target_table(
    strategy: TargetStrategy,
    num_classes: int,
    epoch: int,
    tracker: ConfusionTracker,
    smoother: OnlineLabelSmoother | None,
) -> np.ndarray:
    identity = np.eye(num_classes)
    if strategy.kind == "hard":
        return identity
    if strategy.kind == "vanilla":
        # row y is (1 - alpha) * one_hot(y) + alpha / C
        table = np.full((num_classes, num_classes), strategy.alpha / num_classes)
        table += (1.0 - strategy.alpha) * identity
        return table
    if strategy_phase(strategy, epoch) == "warmup":
        return identity
    if strategy.kind == "cpls":
        # Additive mixing form: exactly the identity table when the tracker is
        # still the identity, for any beta.
        return identity + (1.0 - strategy.beta) * (tracker.normalized - identity)
    return smoother.targets.copy()  # type: ignore[union-attr]


def fit(
    train: LabeledDataset,
    val: LabeledDataset,
    mlp_config: MlpConfig,
    config: TrainConfig,
    on_epoch: Callable[[int, ModelParams, EpochMetrics, ConfusionTracker], None] | None = None,
) -> tuple[ModelParams, list[EpochMetrics], ConfusionTracker]:
    """Run the full warmup-then-hybrid training schedule.

    Every epoch ends with a validation pass whose confusion counts are folded
    into the tracker and re-normalized, so the hybrid phase always works from
    the freshest matrix; warmup epochs keep the matrix warm but unused.
    Initial parameters are drawn from (mlp_config, config.seed).
    """
    if train.n_features != val.n_features or train.num_classes != val.num_classes:
        raise DimensionError("train and val splits must share feature count and class count")
    if mlp_config.layer_sizes[0] != train.n_features:
        raise DimensionError(
            f"model expects {mlp_config.layer_sizes[0]} inputs, data has {train.n_features}"
        )
    if mlp_config.layer_sizes[-1] != train.num_classes:
        raise DimensionError(
            f"model emits {mlp_config.layer_sizes[-1]} classes, data has {train.num_classes}"
        )
    params = init_params(mlp_config, config.seed)
    strategy = config.strategy
    num_classes = train.num_classes
    tracker = ConfusionTracker(num_classes)
    smoother = OnlineLabelSmoother(num_classes) if strategy.kind == "ols" else None
    on_batch = smoother.update_batch if smoother is not None else None

    metrics: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        phase = strategy_phase(strategy, epoch)
        table = _target_table(strategy, num_classes, epoch, tracker, smoother)
        train_loss = train_epoch(params, train, table, config, epoch, on_batch)
        val_accuracy, val_probs, val_confusion = evaluate(params, val)
        val_loss = float(-floored_log(val_probs[np.arange(val.n_samples), val.labels]).mean())
        val_ece = ece(val_probs, val.labels, config.ece_bins)
        record = EpochMetrics(epoch, phase, train_loss, val_loss, val_accuracy, val_ece)
        metrics.append(record)
        tracker.accumulate_counts(val_confusion)
        tracker.normalize()
        if smoother is not None:
            smoother.advance_epoch()
        if on_epoch is not None:
            on_epoch(epoch, params, record, tracker)
    return params, metrics, tracker
