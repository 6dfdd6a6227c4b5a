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

from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import FieldError, InfeasibleBatchError, NonFiniteError, RanklossError
from .losses import (
    DEFAULT_SURROGATE,
    LOSS_KINDS,
    SurrogateParams,
    _softmax_rows,
    loss_function,
    softmax,
    stacked_loss,
)
from .metrics import PredictionBatch, auroc_multiclass_ovr, auroc_rank, auroc_rank_rows

__all__ = [
    "MLPModel",
    "TrainConfig",
    "TrainHistory",
    "init_model",
    "forward",
    "stratified_batches",
    "evaluate_auroc",
    "train",
    "MLPStack",
    "StackedTraining",
    "train_stacked",
    "evaluate_auroc_stacked",
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


def _forward_cached(model: MLPModel | MLPStack, x: np.ndarray):
    # Returns logits plus per-layer inputs and pre-activations for backprop.
    # Serves an MLPStack too, whose arrays carry a leading model axis.
    inputs = []
    pre_acts = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        inputs.append(a)
        z = a @ w + b[..., None, :]
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if i < last else z
    return a, inputs, pre_acts


def _backprop(model: MLPModel | MLPStack, inputs, pre_acts, grad_logits):
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = grad_logits
    for layer in range(len(model.weights) - 1, -1, -1):
        grads_w[layer] = np.swapaxes(inputs[layer], -1, -2) @ delta
        grads_b[layer] = delta.sum(axis=-2)
        if layer > 0:
            weights_t = np.swapaxes(model.weights[layer], -1, -2)
            delta = (delta @ weights_t) * (pre_acts[layer - 1] > 0.0)
    return grads_w, grads_b


def _batch_count(class_counts: np.ndarray, batch_size: int) -> int:
    return min(max(1, int(class_counts.sum()) // batch_size), int(class_counts.min()))


class _LabelGroups:
    """Training labels grouped by class, done once for a training run's epochs."""

    def __init__(self, labels):
        y = np.asarray(labels)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        self.n = y.size
        self.members = [np.flatnonzero(y == c) for c in np.unique(y)]
        self.counts = np.array([m.size for m in self.members])


def stratified_batches(labels, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Partition indices into batches that each contain every observed class.

    Shuffling is reseeded from (seed, epoch). Each class's shuffled indices
    are dealt across the batches, so the union of batches is exactly the
    index set and every batch holds at least one sample of every class. The
    batch count is floor(n / batch_size), clamped to the smallest class
    count (a remainder that cannot form a full batch is absorbed by the
    others). ``labels`` may also be this module's ``_LabelGroups`` of the
    labels, which a caller sampling many epochs builds once.
    """
    groups = labels if isinstance(labels, _LabelGroups) else _LabelGroups(labels)
    if seed < 0 or epoch < 0:
        raise ValueError("seed and epoch must be nonnegative")
    n_classes = len(groups.members)
    if n_classes < 2:
        raise InfeasibleBatchError(
            "cannot form class-balanced batches from a single class"
        )
    if batch_size < n_classes:
        raise InfeasibleBatchError(
            f"batch_size {batch_size} cannot hold one sample of each of "
            f"{n_classes} classes"
        )
    n_batches = _batch_count(groups.counts, batch_size)

    rng = np.random.default_rng([int(seed), int(epoch)])
    shuffled = []
    placement = np.empty((n_classes, n_batches), dtype=np.intp)
    for c, members in enumerate(groups.members):
        shuffled.append(rng.permutation(members))
        placement[c] = rng.permutation(n_batches)
    # Class c is cut into chunks as np.array_split cuts it (the first
    # m % n_batches one longer), and chunk j joins batch placement[c, j].
    # Each batch lists its classes in order, laid out batch after batch.
    q, r = np.divmod(groups.counts, n_batches)
    chunk = q[:, None] + (np.arange(n_batches) < r[:, None])
    cls = np.arange(n_classes)[:, None]
    rows = np.empty_like(chunk)  # rows[c, b]: how many rows class c gives batch b
    rows[cls, placement] = chunk
    sizes = rows.sum(axis=0)
    ends = np.cumsum(sizes)
    slot = ends - sizes + np.cumsum(rows, axis=0) - rows  # where class c starts in batch b
    dest = slot[cls, placement].ravel()  # where chunk j of class c goes
    chunk = chunk.ravel()
    out = np.empty(groups.n, dtype=np.intp)
    out[np.repeat(dest - (np.cumsum(chunk) - chunk), chunk) + np.arange(groups.n)] = (
        np.concatenate(shuffled)
    )
    batches = [out[a:b] for a, b in zip((0, *ends[:-1].tolist()), ends.tolist())]
    for batch in batches:
        rng.shuffle(batch)
    return batches


def _non_finite(what: str, epoch: int | None = None, batch: int | None = None) -> NonFiniteError:
    where = "" if epoch is None else f" at epoch {epoch}"
    where += "" if batch is None else f", batch {batch}"
    return NonFiniteError(f"{what} became non-finite{where}", epoch=epoch, batch=batch)


def _require_finite(values, what: str, epoch: int | None = None, batch: int | None = None):
    if not np.isfinite(values).all():
        raise _non_finite(what, epoch, batch)


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


@np.errstate(over="ignore", invalid="ignore")
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
    forward pass, batch or validation, whose logits it poisons. NumPy's
    overflow and invalid-value warnings are silenced, as in ``train_stacked``:
    the ``NonFiniteError`` already reports that arithmetic.
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

    groups = _LabelGroups(train_y)
    for epoch in range(config.max_epochs):
        batches = stratified_batches(groups, config.batch_size, config.seed, epoch)
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


# ---------------------------------------------------------------- trial-batched engine
#
# Trains T models at once, each bit for bit as ``train`` would, for the
# Monte Carlo harness: an SGD step takes microseconds of arithmetic, so
# stacking the trials on a leading axis replaces T dispatches per step by
# a few. Every trial must have the same per-class training counts
# (stratified splits do). Then every trial gets the same batch count each
# epoch, and a batch holds floor or ceil(m_c / n_batches) rows of class c.
#
# BLAS rounding can depend on a matrix's row count, so each layer runs per
# group of trials whose batches have equal size, on exactly those rows:
# every matmul has the shape the per-trial run gives it. The loss runs once
# per step on the batches padded to P = sum_c ceil(m_c / n_batches) rows, a
# width fixed by the class counts, and its kernels sum over each trial's
# real rows and pairs only. Either way a trial's arithmetic does not depend
# on which other trials share its block.


@dataclass
class MLPStack:
    """T feed-forward nets of one shape, stacked for trial-batched training.

    ``weights[i]`` is (T, fan_in, fan_out) and ``biases[i]`` (T, fan_out),
    so one batched matmul runs layer i of every model.
    """

    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def of(cls, models: Sequence[MLPModel]) -> "MLPStack":
        dims = models[0].layer_dims
        if any(m.layer_dims != dims for m in models):
            raise ValueError("stacked models must share their layer dims")
        layers = range(len(dims) - 1)
        return cls(
            layer_dims=dims,
            weights=[np.stack([m.weights[i] for m in models]) for i in layers],
            biases=[np.stack([m.biases[i] for m in models]) for i in layers],
        )

    @property
    def n_models(self) -> int:
        return self.weights[0].shape[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def model(self, t: int) -> MLPModel:
        """A copy of model t."""
        return MLPModel(
            layer_dims=self.layer_dims,
            weights=[w[t].copy() for w in self.weights],
            biases=[b[t].copy() for b in self.biases],
        )

    def take(self, keep) -> "MLPStack":
        """A copy holding the models a boolean mask or index array selects."""
        return MLPStack(
            layer_dims=self.layer_dims,
            weights=[w[keep] for w in self.weights],
            biases=[b[keep] for b in self.biases],
        )

    def copy(self) -> "MLPStack":
        return self.take(np.arange(self.n_models))

    def view(self, lo: int, hi: int) -> "MLPStack":
        """Models lo..hi-1, sharing this stack's arrays."""
        return MLPStack(
            layer_dims=self.layer_dims,
            weights=[w[lo:hi] for w in self.weights],
            biases=[b[lo:hi] for b in self.biases],
        )


@dataclass(frozen=True)
class StackedTraining:
    """Outcome of ``train_stacked``.

    ``model`` holds each trial's best-validation checkpoint; ``errors[t]``
    is the error ``train`` would have raised for trial t, or None. A failed
    trial's entry in ``model`` keeps its initial weights.
    """

    model: MLPStack
    errors: tuple[Optional[RanklossError], ...]


def _nonfinite_rows(values: np.ndarray) -> np.ndarray:
    return ~np.isfinite(values).reshape(values.shape[0], -1).all(axis=1)


def _check_stacked(model: MLPStack, features, labels, what: str):
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 3 or x.shape[0] != model.n_models or x.shape[2] != model.layer_dims[0]:
        raise ValueError(
            f"{what} features must be ({model.n_models}, rows, {model.layer_dims[0]}), "
            f"got {x.shape}"
        )
    if y.shape != x.shape[:2]:
        raise ValueError(f"{what} labels must have shape {x.shape[:2]}, got {y.shape}")
    if y.size == 0:
        raise ValueError(f"{what} partitions must be non-empty")
    if y.min() < 0 or y.max() >= model.n_classes:
        raise ValueError(f"{what} labels must lie in [0, {model.n_classes})")
    return x, y


def evaluate_auroc_stacked(
    model: MLPStack, features, labels, epoch: int | None = None
) -> tuple[np.ndarray, tuple[Optional[NonFiniteError], ...]]:
    """``evaluate_auroc`` of model t on ``features[t]``, ``labels[t]``, for every t.

    Returns the AUROCs, equal to the per-model values bit for bit, and per
    model the ``NonFiniteError`` that ``evaluate_auroc`` would raise, or
    None; a failed model's AUROC is NaN.
    """
    x, y = _check_stacked(model, features, labels, "evaluation")
    logits = _forward_cached(model, x)[0]
    bad = _nonfinite_rows(logits)
    values = np.full(model.n_models, np.nan)
    if not bad.all():
        ok = ~bad
        probs, y = _softmax_rows(logits[ok]), y[ok]
        if model.n_classes == 2:
            values[ok] = auroc_rank_rows(probs[:, :, 1], y == 1)
        else:
            per_class = [auroc_rank_rows(probs[:, :, c], y == c) for c in range(model.n_classes)]
            values[ok] = np.mean(np.stack(per_class, axis=1), axis=1)
    return values, tuple(_non_finite("evaluation logits", epoch) if b else None for b in bad)


def _sample(groups, seeds, batch_size: int, epoch: int, train_x, train_y, rows: int):
    """The epoch's batches of every trial, padded to ``rows`` rows: features
    (T, n_batches, rows, n_features), labels with -1 on padding, and the
    real row counts (T, n_batches)."""
    batches = [stratified_batches(g, batch_size, s, epoch) for g, s in zip(groups, seeds)]
    sizes = np.array([[b.size for b in trial] for trial in batches])
    flat = np.stack([np.concatenate(trial) for trial in batches])
    n_trials, n_batches = sizes.shape
    # Entry k of trial t's back-to-back batches lands in row k - start
    # of its batch b, at flat position ((t * n_batches) + b) * rows + row.
    starts = np.cumsum(sizes, axis=1) - sizes + flat.shape[1] * np.arange(n_trials)[:, None]
    base = np.arange(n_trials * n_batches) * rows - starts.ravel()
    index = np.zeros((n_trials, n_batches, rows), dtype=np.intp)
    index.reshape(-1)[np.repeat(base, sizes.ravel()) + np.arange(flat.size)] = flat.ravel()
    trial = np.arange(n_trials)[:, None, None]
    labels = np.where(np.arange(rows) < sizes[:, :, None], train_y[trial, index], -1)
    return train_x[trial, index], labels, sizes


def _step(
    work: MLPStack, x, y, sizes, config: TrainConfig, pool=None
) -> tuple[np.ndarray, np.ndarray]:
    """One SGD step of every trial on its batch ``x``, ``y`` of ``sizes`` real rows.

    Trials are ordered by batch size, and each layer runs per run of equal
    sizes on exactly the real rows. Returns the trials whose logits and
    whose loss value are non-finite; their updates are garbage, which no
    other trial's arithmetic reads.

    The AUC value is computed only where it can be non-finite with finite
    logits. Each of its terms then lies in [0, L], and a trial has at most
    P**2 / 4 pairs per class, so its term sum cannot overflow while
    L * P**2 stays within the float range. A trial with non-finite logits
    has failed on them already. Cross entropy can overflow from finite
    logits, so its value is always checked.
    """
    order = np.argsort(sizes, kind="stable")
    ordered = sizes[order]
    cuts = [0, *(np.flatnonzero(np.diff(ordered)) + 1).tolist(), sizes.size]
    stack = work.take(order)
    x = x[order]
    logits = np.zeros(x.shape[:2] + (work.n_classes,))
    caches = []
    for lo, hi in zip(cuts, cuts[1:]):
        size = int(ordered[lo])
        part = stack.view(lo, hi)
        out, inputs, pre_acts = _forward_cached(part, x[lo:hi, :size])
        logits[lo:hi, :size] = out
        caches.append((lo, hi, size, part, inputs, pre_acts))
    want_value = (
        config.loss_kind == "cross_entropy"
        or config.surrogate.L * x.shape[1] ** 2 > np.finfo(float).max
    )
    values, grad = stacked_loss(config.loss_kind, logits, y[order], config.surrogate, True,
                                want_value=want_value, pool=pool)
    for lo, hi, size, part, inputs, pre_acts in caches:
        grads_w, grads_b = _backprop(part, inputs, pre_acts, grad[lo:hi, :size])
        for w, b, gw, gb in zip(part.weights, part.biases, grads_w, grads_b):
            w -= config.learning_rate * gw
            b -= config.learning_rate * gb
    for kept, updated in zip(work.weights + work.biases, stack.weights + stack.biases):
        kept[order] = updated
    bad_logits, bad_loss = np.empty((2, order.size), dtype=bool)
    bad_logits[order] = _nonfinite_rows(logits)
    bad_loss[order] = False if values is None else ~np.isfinite(values)
    return bad_logits, bad_loss


@np.errstate(over="ignore", invalid="ignore")
def train_stacked(
    model: MLPStack,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    configs: Sequence[TrainConfig],
    *,
    pool=None,
) -> StackedTraining:
    """Train every model of the stack at once, model t exactly as
    ``train(model.model(t), train_x[t], train_y[t], val_x[t], val_y[t], configs[t])``.

    Arrays carry the trial on their leading axis. The configs must agree in
    everything but the seed, and every trial must have the same per-class
    training counts. The returned checkpoints equal ``train``'s bit for bit.
    Where ``train`` would raise, the trial's error is recorded instead and
    the other trials train on; it is the same error type with the same
    message, epoch and batch. No ``TrainHistory`` is kept.

    A failed trial stays in the stack, masked: no kernel reduces across
    trials, so its non-finite values reach no other trial's arithmetic.
    NumPy's overflow and invalid-value warnings are silenced, as that
    arithmetic is expected and the trial's error already reports it.

    ``pool`` is passed on to every ``stacked_loss`` call, whose pairwise
    kernel may run on its threads; the result does not depend on it.
    """
    config = configs[0]
    if len(configs) != model.n_models or any(
        replace(c, seed=config.seed) != config for c in configs
    ):
        raise ValueError("need one TrainConfig per model, equal in everything but the seed")
    train_x, train_y = _check_stacked(model, train_x, train_y, "training")
    val_x, val_y = _check_stacked(model, val_x, val_y, "validation")
    counts = np.stack([np.bincount(y, minlength=model.n_classes) for y in train_y])
    if (counts != counts[0]).any():
        raise ValueError("stacked trials must share their per-class training counts")
    present = counts[0][counts[0] > 0]
    rows = int(np.sum(-(-present // _batch_count(present, config.batch_size))))

    errors: list[Optional[RanklossError]] = [None] * model.n_models
    failed = np.zeros(model.n_models, dtype=bool)

    def fail(bad: np.ndarray, what: str, epoch=None, batch=None) -> None:
        if bad.any():  # checked every step, so the common case returns early
            for t in np.flatnonzero(bad & ~failed):
                errors[t] = _non_finite(what, epoch, batch)
            failed[:] |= bad

    work, best = model.copy(), model.copy()
    best_auroc = np.full(model.n_models, -np.inf)
    logits = _forward_cached(work, train_x)[0]
    fail(_nonfinite_rows(logits), "initial logits")
    values, _ = stacked_loss(config.loss_kind, logits, train_y, config.surrogate, pool=pool)
    fail(~np.isfinite(values), "initial loss")

    groups = [_LabelGroups(y) for y in train_y]
    seeds = [c.seed for c in configs]
    for epoch in range(config.max_epochs):
        if failed.all():
            break
        # Trials with equal class counts fail the sampler together, and in
        # the first epoch, before any checkpoint.
        try:
            batch_x, batch_y, sizes = _sample(
                groups, seeds, config.batch_size, epoch, train_x, train_y, rows
            )
        except RanklossError as exc:
            errors[:] = [exc if e is None else e for e in errors]
            break
        for batch in range(sizes.shape[1]):
            bad_logits, bad_loss = _step(
                work, batch_x[:, batch], batch_y[:, batch], sizes[:, batch], config, pool
            )
            fail(bad_logits, "logits", epoch, batch)
            fail(bad_loss, "loss", epoch, batch)
        aurocs, val_errors = evaluate_auroc_stacked(work, val_x, val_y, epoch)
        fail(np.array([e is not None for e in val_errors]), "evaluation logits", epoch)
        improved = ~failed & (aurocs > best_auroc)
        for kept, current in zip(best.weights + best.biases, work.weights + work.biases):
            np.copyto(kept, current, where=improved.reshape((-1,) + (1,) * (kept.ndim - 1)))
        best_auroc = np.where(improved, aurocs, best_auroc)

    for kept, initial in zip(best.weights + best.biases, model.weights + model.biases):
        kept[failed] = initial[failed]
    return StackedTraining(model=best, errors=tuple(errors))
