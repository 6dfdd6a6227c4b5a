"""Minimal feed-forward classifier, plain SGD, and a stratified batch sampler.

The model is a small MLP (ReLU hidden layers, linear output) producing raw
logits; the losses own the softmax. Training is deterministic: the same
data, config, and seeds yield bit-identical weights and history.

The sampler guarantees every emitted batch contains at least one sample of
every class present in the training labels, which the pairwise ranking
losses require. When nominal batch count floor(n / batch_size) exceeds the
smallest class count, the batch count is clamped down so the guarantee stays
satisfiable; emitted batches then run larger than requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import FieldError, InfeasibleBatchError, NonFiniteError
from .losses import LOSS_KINDS, SurrogateParams, DEFAULT_SURROGATE, loss_function, softmax
from .metrics import PredictionBatch, auroc_multiclass_ovr, auroc_rank

__all__ = [
    "MLPModel",
    "TrainConfig",
    "TrainHistory",
    "init_model",
    "forward",
    "stratified_batches",
    "evaluate_auroc",
    "train",
]


@dataclass
class MLPModel:
    """Weights and biases of a feed-forward net.

    ``layer_dims`` runs input -> hidden... -> n_classes. Mutated only by the
    training run that owns it; copies are cheap via ``copy()``.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    def copy(self) -> "MLPModel":
        return MLPModel(
            layer_dims=self.layer_dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


@dataclass(frozen=True)
class TrainConfig:
    """Training hyperparameters.

    batch_size must be at least 2: one positive and one negative per batch
    is the floor for any pairwise ranking loss.
    """

    batch_size: int
    loss_kind: str
    max_epochs: int = 40
    learning_rate: float = 0.1
    surrogate: SurrogateParams = DEFAULT_SURROGATE
    seed: int = 0

    def __post_init__(self):
        if self.batch_size < 2:
            raise FieldError("batch_size", f"batch_size must be at least 2, got {self.batch_size}")
        if self.loss_kind not in LOSS_KINDS:
            raise FieldError(
                "loss_kind", f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        if self.max_epochs < 1:
            raise FieldError("max_epochs", f"max_epochs must be at least 1, got {self.max_epochs}")
        # 0 is allowed so a no-op run can serve as an untrained control arm.
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise FieldError(
                "learning_rate", f"learning_rate must be nonnegative, got {self.learning_rate}"
            )
        if self.seed < 0:
            raise FieldError("seed", f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class TrainHistory:
    """Per-epoch record of a training run."""

    train_loss: tuple[float, ...]
    val_auroc: tuple[float, ...]
    best_epoch: int
    initial_loss: float

    @property
    def best_val_auroc(self) -> float:
        return self.val_auroc[self.best_epoch]


def init_model(layer_dims: Sequence[int], seed: int) -> MLPModel:
    """Build a model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    if any(d < 1 for d in dims):
        raise ValueError(f"layer dims must be positive, got {dims}")
    if seed < 0:
        raise ValueError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    return MLPModel(layer_dims=dims, weights=weights, biases=biases)


def _check_features(model: MLPModel, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.input_dim:
        raise ValueError(
            f"feature width {x.shape[1]} does not match model input dim {model.input_dim}"
        )
    return x


def forward(model: MLPModel, features: np.ndarray) -> np.ndarray:
    """Logits for a feature matrix: affine layers with ReLU between, linear out."""
    x = _check_features(model, features)
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = a @ w + b
        if i < last:
            a = np.maximum(a, 0.0)
    return a


def _forward_cached(model: MLPModel, x: np.ndarray):
    # Returns logits plus per-layer inputs and pre-activations for backprop.
    inputs = []
    pre_acts = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w + b
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if i < last else z
    return a, inputs, pre_acts


def _backprop(model: MLPModel, inputs, pre_acts, grad_logits):
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = grad_logits
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = inputs[layer].T @ delta
        grads_b[layer] = delta.sum(axis=0)
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (pre_acts[layer - 1] > 0.0)
    return grads_w, grads_b


def stratified_batches(labels, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Partition indices into batches that each contain every observed class.

    Shuffling is reseeded from (seed, epoch). Each class's shuffled indices
    are dealt across the batches, so the union of batches is exactly the
    index set and every batch holds at least one sample of every class. The
    batch count is floor(n / batch_size), clamped to the smallest class
    count (a remainder that cannot form a full batch is absorbed by the
    others).
    """
    y = np.asarray(labels)
    if y.ndim != 1 or y.size == 0:
        raise ValueError("labels must be a non-empty 1-D array")
    if seed < 0 or epoch < 0:
        raise ValueError("seed and epoch must be nonnegative")
    classes, counts = np.unique(y, return_counts=True)
    if classes.size < 2:
        raise InfeasibleBatchError(
            "cannot form class-balanced batches from a single class"
        )
    if batch_size < classes.size:
        raise InfeasibleBatchError(
            f"batch_size {batch_size} cannot hold one sample of each of "
            f"{classes.size} classes"
        )
    n = y.size
    n_batches = max(1, n // batch_size)
    n_batches = min(n_batches, int(counts.min()))

    rng = np.random.default_rng([int(seed), int(epoch)])
    members: list[list[np.ndarray]] = [[] for _ in range(n_batches)]
    for c in classes:
        idx = rng.permutation(np.flatnonzero(y == c))
        chunks = np.array_split(idx, n_batches)
        placement = rng.permutation(n_batches)
        for b, chunk in zip(placement, chunks):
            members[b].append(chunk)
    return [rng.permutation(np.concatenate(parts)) for parts in members]


def _require_finite(values, what: str, epoch: int | None = None, batch: int | None = None):
    if not np.isfinite(values).all():
        where = "" if epoch is None else f" at epoch {epoch}"
        where += "" if batch is None else f", batch {batch}"
        raise NonFiniteError(f"{what} became non-finite{where}", epoch=epoch, batch=batch)


def evaluate_auroc(
    model: MLPModel, features: np.ndarray, labels: np.ndarray, epoch: int | None = None
) -> float:
    """Exact AUROC of the model's softmax scores on one partition.

    Binary AUROC of the last class for 2-class models, macro one-vs-rest
    otherwise. Non-finite logits raise ``NonFiniteError``; ``epoch`` only
    labels that error.
    """
    logits = forward(model, features)
    _require_finite(logits, "evaluation logits", epoch)
    batch = PredictionBatch(softmax(logits), labels, probabilities=True)
    if model.n_classes == 2:
        return auroc_rank(batch, positive_class=1).value
    return auroc_multiclass_ovr(batch).value


def train(
    model: MLPModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
) -> tuple[MLPModel, TrainHistory]:
    """SGD over stratified batches, returning the best-validation checkpoint.

    The input model is left untouched; training happens on a copy. After
    each epoch the validation AUROC (binary for 2-class models, macro
    one-vs-rest otherwise) is recorded, and the returned model is the weight
    snapshot with the highest validation AUROC (earliest epoch on ties).

    Every forward pass and loss value is checked: the first non-finite one
    raises ``NonFiniteError`` naming the epoch and, within an epoch, the
    batch. A step that makes a weight non-finite is caught by the next
    forward pass, batch or validation, whose logits it poisons.
    """
    train_x = _check_features(model, np.asarray(train_x, dtype=np.float64))
    val_x = _check_features(model, np.asarray(val_x, dtype=np.float64))
    train_y = np.asarray(train_y, dtype=np.int64)
    val_y = np.asarray(val_y, dtype=np.int64)
    if train_x.shape[0] == 0 or val_x.shape[0] == 0:
        raise ValueError("train and validation partitions must be non-empty")
    if train_y.shape[0] != train_x.shape[0] or val_y.shape[0] != val_x.shape[0]:
        raise ValueError("label lengths must match feature rows")

    loss_fn = loss_function(config.loss_kind, config.surrogate)
    work = model.copy()
    logits = forward(work, train_x)
    _require_finite(logits, "initial logits")
    initial_loss = loss_fn(PredictionBatch(logits, train_y), False).value
    _require_finite(initial_loss, "initial loss")

    train_losses: list[float] = []
    val_aurocs: list[float] = []
    best_epoch = -1
    best_auroc = -np.inf
    best_model = work.copy()

    for epoch in range(config.max_epochs):
        batches = stratified_batches(train_y, config.batch_size, config.seed, epoch)
        epoch_losses = []
        for batch_no, batch_idx in enumerate(batches):
            logits, inputs, pre_acts = _forward_cached(work, train_x[batch_idx])
            _require_finite(logits, "logits", epoch, batch_no)
            out = loss_fn(PredictionBatch(logits, train_y[batch_idx]), True)
            _require_finite(out.value, "loss", epoch, batch_no)
            grads_w, grads_b = _backprop(work, inputs, pre_acts, out.grad)
            for w, b, gw, gb in zip(work.weights, work.biases, grads_w, grads_b):
                w -= config.learning_rate * gw
                b -= config.learning_rate * gb
            epoch_losses.append(out.value)
        train_losses.append(float(np.mean(epoch_losses)))
        val_auroc = evaluate_auroc(work, val_x, val_y, epoch)
        val_aurocs.append(val_auroc)
        if val_auroc > best_auroc:
            best_auroc = val_auroc
            best_epoch = epoch
            best_model = work.copy()

    history = TrainHistory(
        train_loss=tuple(train_losses),
        val_auroc=tuple(val_aurocs),
        best_epoch=best_epoch,
        initial_loss=initial_loss,
    )
    return best_model, history
