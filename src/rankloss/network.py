"""Minimal feed-forward classifier, plain SGD, and a stratified batch sampler.

The model is a small MLP (ReLU hidden layers, linear output) producing raw
logits; the losses own the softmax. Training is deterministic: the same
data, config, and seeds yield bit-identical weights.

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

from .errors import (FieldError, InfeasibleBatchError, NonFiniteError, RanklossError,
                     _check_fields, _check_integers, _integer, _real)
from .losses import (
    DEFAULT_SURROGATE,
    LOSS_KINDS,
    SurrogateParams,
    _kernel,
    _missing_class,
    _softmax_rows,
    _targets,
    _Targets,
)
from .metrics import _class_labels, _Ranking

__all__ = [
    "MLPModel",
    "TrainConfig",
    "init_model",
    "forward",
    "stratified_batches",
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
        _check_fields(self, _integer, batch_size=2, max_epochs=1, seed=0)
        if self.loss_kind not in LOSS_KINDS:
            raise FieldError(
                "loss_kind", f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}"
            )
        # 0 is allowed so a no-op run can serve as an untrained control arm.
        _check_fields(self, _real, learning_rate=0)
        if not isinstance(self.surrogate, SurrogateParams):
            raise FieldError("surrogate",
                             f"surrogate must be a SurrogateParams, got {self.surrogate!r}")


def init_model(layer_dims: Sequence[int], seed: int) -> MLPModel:
    """Build a model with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    dims = tuple(layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least input and output dims, got {dims}")
    if not all(_integer(d) and d >= 1 for d in dims):
        raise ValueError(f"layer dims must be positive integers, got {dims}")
    dims = tuple(map(int, dims))
    _check_integers(0, seed=seed)
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
    return _layers(MLPStack.of([model]).blocks, _with_ones(x[None]))[0]


class _LabelGroups:
    """Training labels, checked and grouped once for a run's epochs: each
    observed class's members and count, the batch count at ``batch_size``,
    the widest batch's row count ``width`` = sum_c ceil(m_c / n_batches),
    and the ``InfeasibleBatchError`` sampling them raises, or None (and
    then ``n_batches`` and ``width`` are 0)."""

    def __init__(self, labels, batch_size: int):
        y = np.asarray(labels)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        self.n = y.size
        self.members = [np.flatnonzero(y == c) for c in np.unique(y)]
        counts = [m.size for m in self.members]
        self.counts = np.array(counts)
        n_classes, self.n_batches, self.width, self.error = len(counts), 0, 0, None
        if n_classes < 2:
            self.error = InfeasibleBatchError(
                "cannot form class-balanced batches from a single class"
            )
        elif batch_size < n_classes:
            self.error = InfeasibleBatchError(
                f"batch_size {batch_size} cannot hold one sample of each of "
                f"{n_classes} classes"
            )
        else:  # an integer batch size past the int64 range gives one batch
            self.n_batches = int(min(max(1, self.n // batch_size), min(counts)))
            self.width = sum(-(-m // self.n_batches) for m in counts)


def stratified_batches(labels, batch_size: int, seed: int, epoch: int) -> list[np.ndarray]:
    """Partition indices into batches that each contain every observed class.

    Shuffling is reseeded from (seed, epoch). Each class's shuffled indices
    are dealt across the batches, so the union of batches is exactly the
    index set and every batch holds at least one sample of every class. The
    batch count is floor(n / batch_size), clamped to the smallest class
    count (a remainder that cannot form a full batch is absorbed by the
    others). A batch is ordered by class, in label order, and lists each
    class's indices in the order that class's shuffle drew them; its rows
    are not shuffled further. Checks, in order: that ``batch_size`` is an
    integer, the labels, then that seed and epoch are nonnegative integers
    (all ``ValueError``, by ``errors._check_integers``), then
    ``_LabelGroups``'s ``InfeasibleBatchError``.
    """
    _check_integers(batch_size=batch_size)
    groups = _LabelGroups(labels, batch_size)
    _check_integers(0, seed=seed, epoch=epoch)
    if groups.error is not None:
        raise groups.error
    index, sizes = _batch_index([groups], [seed], epoch)
    return [row[:size] for row, size in zip(index[0], sizes[0].tolist())]


def _batch_index(groups: Sequence[_LabelGroups], seeds: Sequence[int],
                 epoch: int) -> tuple[np.ndarray, np.ndarray]:
    """``stratified_batches`` of every trial t, for ``groups[t]`` and ``seeds[t]``.

    Unchecked: the groups must be feasible and share their sample count,
    number of classes and batch count, and the seeds and epoch must be
    nonnegative; the per-class counts m_tc may differ. Returns ``index``
    (T, n_batches, P), whose row b of trial t starts with that trial's batch
    b and is zero-padded to P, the largest ``width`` of the groups, and the
    batch sizes (T, n_batches).
    """
    counts = np.stack([trial.counts for trial in groups])
    n_classes = counts.shape[1]
    n_trials, n, n_batches = len(groups), groups[0].n, groups[0].n_batches

    # Each trial's stream: per class a permutation of its members and one
    # of the batches. Nothing shuffles within a batch: its loss and gradient
    # are sums over its rows, so their order would change only rounding.
    shuffled = np.empty((n_trials, n), dtype=np.intp)
    placement = np.empty((n_trials, n_classes, n_batches), dtype=np.intp)
    ends = np.cumsum(counts, axis=1).tolist()
    for t, (seed, trial) in enumerate(zip(seeds, groups)):
        rng = np.random.default_rng([int(seed), int(epoch)])
        for c, (members, lo, hi) in enumerate(zip(trial.members, [0, *ends[t]], ends[t])):
            shuffled[t, lo:hi] = rng.permutation(members)
            placement[t, c] = rng.permutation(n_batches)
    # Class c is cut into chunks as np.array_split cuts it (the first
    # m % n_batches one longer), and chunk j joins batch placement[t, c, j].
    # Each batch lists its classes in label order, each class's rows in the
    # order its permutation drew them, in its own row of width P.
    q, r = np.divmod(counts, n_batches)
    chunk = q[:, :, None] + (np.arange(n_batches) < r[:, :, None])
    width = max(trial.width for trial in groups)
    # placement[t, c, j] as a flat position into a (T, n_classes, n_batches) array.
    at = placement + np.arange(0, placement.size, n_batches).reshape(n_trials, n_classes, 1)
    rows = np.empty_like(placement)  # rows[t, c, b]: how many rows class c gives batch b
    rows.put(at, chunk)
    sizes = rows.sum(axis=1)
    # Where class c starts in the flat index: its batch's row, then its slot.
    batch_start = (np.arange(n_trials)[:, None] * n_batches + np.arange(n_batches)) * width
    slot = batch_start[:, None, :] + np.cumsum(rows, axis=1) - rows
    dest = slot.take(at).reshape(n_trials, -1)
    chunk = chunk.reshape(n_trials, -1)
    shift = dest - (np.cumsum(chunk, axis=1) - chunk)
    offset = np.repeat(shift.ravel(), chunk.ravel()).reshape(n_trials, n) + np.arange(n)
    index = np.zeros((n_trials, n_batches, width), dtype=np.intp)
    index.reshape(-1)[offset.ravel()] = shuffled.ravel()
    return index, sizes


def _non_finite(what: str, epoch: int | None = None, batch: int | None = None) -> NonFiniteError:
    where = "" if epoch is None else f" at epoch {epoch}"
    where += "" if batch is None else f", batch {batch}"
    return NonFiniteError(f"{what} became non-finite{where}", epoch=epoch, batch=batch)


# ---------------------------------------------------------------- trial-batched engine
#
# Trains T models at once for the Monte Carlo harness: an SGD step takes
# microseconds of arithmetic, so stacking the trials on a leading axis
# replaces T dispatches per step by a few. Each model trains bit for bit as
# it would alone, one batch at a time through the textbook per-batch loss
# formulas; the tests keep such a per-trial trainer as their oracle. A batch
# holds floor or ceil(m_c / n_batches) rows of the trial's class c, so a
# trial's widest batch has P_t = sum_c ceil(m_c / n_batches) rows.
#
# BLAS rounding can depend on a matrix's row count, so every batch of a
# trial runs its layers on exactly P_t rows: the batch, padded with copies
# of its first row, which the loss labels -1 and gives a gradient of
# exactly 0 (a copy overflows only where the real row does). "Alone" means
# padded so, and the oracle pads the same way. ``train_stacked`` steps the
# trials with equal class count, batch count and P_t as one stack
# (stratified splits make every trial alike, so there is one), and each
# step is then one forward pass, one loss call and one backprop pass over
# the stack. No kernel reduces across trials, so a trial's arithmetic does
# not depend on which other trials share its stack.
# Data is checked once per run, so the initial loss and the steps call the
# unchecked code behind ``stratified_batches`` and the per-batch losses:
# ``_batch_index``, ``losses._targets`` and ``losses._kernel``.


class MLPStack:
    """T feed-forward nets of one shape, stacked for trial-batched training.

    ``params`` (T, n_params) holds model t in row t: layer by layer, one
    (fan_in + 1, fan_out) block, the layer's weights with its biases as the
    last row. ``blocks[i]`` (T, fan_in + 1, fan_out), ``weights[i]``
    (T, fan_in, fan_out) and ``biases[i]`` (T, fan_out) are views of it, so
    one batched matmul of inputs with a ones column runs layer i of every
    model, weights and biases, and one operation updates all the
    parameters. ``layer_dims`` is a tuple, as ``MLPModel.layer_dims`` is.
    """

    __slots__ = ("layer_dims", "params", "blocks", "weights", "biases")

    def __init__(self, layer_dims: tuple[int, ...], params: np.ndarray):
        self.layer_dims, self.params = layer_dims, params
        self.blocks, start = [], 0
        for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]):
            stop = start + (fan_in + 1) * fan_out
            self.blocks.append(params[:, start:stop].reshape(-1, fan_in + 1, fan_out))
            start = stop
        self.weights = [block[:, :-1] for block in self.blocks]
        self.biases = [block[:, -1] for block in self.blocks]

    @classmethod
    def of(cls, models: Sequence[MLPModel]) -> "MLPStack":
        dims = models[0].layer_dims
        if any(m.layer_dims != dims for m in models):
            raise ValueError("stacked models must share their layer dims")
        return cls(dims, np.stack([np.concatenate([p.ravel() for layer in zip(m.weights, m.biases)
                                                   for p in layer]) for m in models]))

    @property
    def n_models(self) -> int:
        return self.params.shape[0]

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

    def copy(self) -> "MLPStack":
        return MLPStack(self.layer_dims, self.params.copy())


@dataclass(frozen=True)
class StackedTraining:
    """Outcome of ``train_stacked``.

    ``model`` holds each trial's best-validation checkpoint; ``errors[t]``
    is the first error of trial t, or None. A failed trial's entry in
    ``model`` keeps its initial weights.
    """

    model: MLPStack
    errors: tuple[Optional[RanklossError], ...]


def _nonfinite_rows(values: np.ndarray) -> np.ndarray:
    return ~np.isfinite(values).reshape(values.shape[0], -1).all(axis=1)


def _check_stacked(model: MLPStack, features, labels, what: str):
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 3 or x.shape[0] != model.n_models or x.shape[2] != model.layer_dims[0]:
        raise ValueError(
            f"{what} features must be ({model.n_models}, rows, {model.layer_dims[0]}), "
            f"got {x.shape}"
        )
    y = _class_labels(labels, model.n_classes, x.shape[:2], name=f"{what} labels")
    if y.size == 0:
        raise ValueError(f"{what} partitions must be non-empty")
    return x, y


def _with_ones(x: np.ndarray) -> np.ndarray:
    """``x`` (..., n) with a last column of ones appended: (..., n + 1)."""
    return np.concatenate([x, np.ones((*x.shape[:-1], 1))], axis=-1)


def _layers(blocks, a, inputs=None) -> np.ndarray:
    """Logits of the stacked layers on ``a`` (T, rows, fan_in + 1), whose
    last column is 1: one matmul by each layer's block, weights and biases,
    with ReLU between. Each hidden layer's output goes into a buffer whose
    last column is 1, the next layer's input. When ``inputs`` is a list,
    each layer's input is appended to it; backprop reads each ReLU's mask
    off the next input."""
    for block in blocks[:-1]:
        if inputs is not None:
            inputs.append(a)
        hidden = np.empty((*a.shape[:2], block.shape[2] + 1))
        hidden[:, :, -1] = 1.0
        np.matmul(a, block, out=hidden[:, :, :-1])
        np.maximum(hidden, 0.0, out=hidden)  # max(1, 0) keeps the ones column
        a = hidden
    if inputs is not None:
        inputs.append(a)
    return np.matmul(a, blocks[-1])


class _Scorer:
    """``evaluate_auroc_stacked`` on one partition, for stacks of models of
    one shape: the checks and the labels' ranking (``metrics._Ranking``:
    class flags, counts and undefined-AUROC errors) are done once, when it
    is built, and each call scores a stack."""

    def __init__(self, model: MLPStack, features, labels):
        x, y = _check_stacked(model, features, labels, "evaluation")
        self.x = _with_ones(x)
        # Binary: class 1 ranked against class 0; else one-vs-rest.
        n_classes = model.n_classes
        self.ranking = _Ranking(y, [1] if n_classes == 2 else range(n_classes))

    def __call__(self, model: MLPStack, epoch: int | None = None):
        logits = _layers(model.blocks, self.x)
        errors = [_non_finite("evaluation logits", epoch) if bad else error
                  for bad, error in zip(_nonfinite_rows(logits), self.ranking.errors)]
        ok = np.array([error is None for error in errors])
        values = np.full(model.n_models, np.nan)
        if ok.any():
            keep = slice(None) if ok.all() else ok
            values[keep] = np.mean(self.ranking(_softmax_rows(logits[keep]), keep), axis=1)
        return values, tuple(errors)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_auroc_stacked(
    model: MLPStack, features, labels, epoch: int | None = None
) -> tuple[np.ndarray, tuple[Optional[RanklossError], ...]]:
    """Exact AUROC of model t's softmax scores on ``features[t]``, ``labels[t]``,
    for every t.

    Binary AUROC of the last class for 2-class models, macro one-vs-rest
    otherwise: bit for bit ``auroc_rank`` or ``auroc_multiclass_ovr`` of the
    model's scores. Also returns per model the error scoring it raises, or
    None: ``NonFiniteError`` for non-finite logits (``epoch`` only labels
    it), else the ``EmptyClassError`` of labels that leave the AUROC
    undefined. A failed model's AUROC is NaN. NumPy's overflow and
    invalid-value warnings are silenced: the ``NonFiniteError`` reports them.
    """
    return _Scorer(model, features, labels)(model, epoch)


@dataclass(frozen=True)
class _Batch:
    """One SGD step of a stack: ``x`` (T, P, n_features + 1) holds each
    trial's batch, with its ones column, padded to the stack's width P with
    copies of its first row,
    ``real`` (T, P) marks the batch's own rows, and ``targets`` is the
    loss's label data (``losses._targets``) of the batches' labels, padded
    with -1."""

    x: np.ndarray
    real: np.ndarray
    targets: _Targets


def _plan(index, sizes, train_x, train_y, kind: str, n_classes: int) -> list[_Batch]:
    """The steps, one per batch b, whose batches are the rows
    ``index[t, b, :sizes[t, b]]`` of ``train_x[t]`` and ``train_y[t]``,
    padded as ``_Batch`` holds them. The loss's label data is derived for
    every batch at once."""
    index = index.transpose(1, 0, 2)  # (n_batches, T, P)
    real = np.arange(index.shape[2]) < sizes.T[:, :, None]
    index = np.where(real, index, index[:, :, :1])
    trial = np.arange(index.shape[1])[:, None]
    labels = np.where(real, train_y[trial, index], -1)
    return [_Batch(x, rows, targets) for x, rows, targets
            in zip(train_x[trial, index], real, _targets(kind, labels, n_classes))]


def _value_needed(config: TrainConfig, rows: int) -> bool:
    """Whether a loss value on batches of ``rows`` padded rows can be
    non-finite where the logits are finite. An AUC term lies in [0, L], and
    a trial has at most rows**2 / 4 pairs per class, so its term sum cannot
    overflow while L * rows**2 stays within the float range. Cross entropy
    can overflow from finite logits."""
    return (config.loss_kind == "cross_entropy"
            or config.surrogate.L * rows**2 > np.finfo(float).max)


def _step(stack: MLPStack, grads: MLPStack, batch: _Batch, config: TrainConfig, pool=None
          ) -> list[tuple[str, np.ndarray]]:
    """One SGD step of every trial of ``stack`` on its batch in ``batch``,
    in place. ``grads``, a stack of the same shape, is scratch.

    Returns the step's failures: ("logits", flags) when some trial's real
    rows have non-finite logits, then ("loss", flags) when some trial's
    loss value is non-finite, each flagging those trials. Their updates are
    garbage, which no other trial's arithmetic reads. The loss value is
    computed only where ``_value_needed``; a trial with non-finite logits
    has failed on them already.
    """
    inputs = []
    logits = _layers(stack.blocks, batch.x, inputs)
    values, delta = _kernel(config.loss_kind, logits, batch.targets, config.surrogate, True,
                            want_value=_value_needed(config, batch.x.shape[1]), pool=pool)
    for layer in range(len(inputs) - 1, -1, -1):
        # The input's ones column makes the block's last row the bias gradient.
        np.matmul(inputs[layer].transpose(0, 2, 1), delta, out=grads.blocks[layer])
        if layer:
            delta = delta @ stack.weights[layer].transpose(0, 2, 1)
            delta *= inputs[layer][:, :, :-1] > 0.0
    grads.params *= config.learning_rate
    stack.params -= grads.params
    failures = []
    if not np.isfinite(logits).all():
        real = np.where(batch.real[:, :, None], logits, 0.0)
        failures.append(("logits", _nonfinite_rows(real)))
    if values is not None and not np.isfinite(values).all():
        failures.append(("loss", ~np.isfinite(values)))
    return failures


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
    """Train every model of the stack by SGD over stratified batches, model t
    on ``train_x[t]``, ``train_y[t]`` with ``configs[t]``, and return each
    model's best-validation checkpoint.

    Arrays carry the trial on their leading axis. The configs must agree in
    everything but the seed, which seeds the trial's batches. After each
    epoch model t is scored on ``val_x[t]``, ``val_y[t]`` as
    ``evaluate_auroc_stacked`` scores it, and its checkpoint is the weight
    snapshot with the highest validation AUROC (earliest epoch on ties).
    Each model trains bit for bit as it would alone.

    A trial fails on its first error, in the order it would meet them
    alone: non-finite initial logits; for an AUC loss, a class the loss
    ranks missing from the training labels (the per-batch loss's
    ``EmptyClassError``); a non-finite initial loss; the sampler's
    ``InfeasibleBatchError``; then per step non-finite logits or loss,
    naming the epoch and batch, and per epoch the validation scoring's
    error. A trial that fails before its first step joins no stack. A step
    that makes a weight non-finite is caught by the next forward pass,
    batch or validation, whose logits it poisons. The error
    is recorded, the other trials train on, and the failed trial stays in
    its stack, masked: no kernel reduces across trials, so its non-finite
    values reach no other trial's arithmetic. NumPy's overflow and
    invalid-value warnings are silenced, as that arithmetic is expected and
    the trial's error already reports it.

    ``pool`` is passed on to every loss call, whose pairwise kernel may run
    on its threads; the result does not depend on it.

    Before any work, the configs must fit the stack (``ValueError``): one
    per model, equal in everything but the seed, and an ``auc_binary``
    loss needs a 2-class model.
    """
    config = configs[0]
    if len(configs) != model.n_models or any(
        replace(c, seed=config.seed) != config for c in configs
    ):
        raise ValueError("need one TrainConfig per model, equal in everything but the seed")
    if config.loss_kind == "auc_binary" and model.n_classes != 2:
        raise ValueError(f"binary_auc_loss requires 2 classes, got {model.n_classes}")
    train_x, train_y = _check_stacked(model, train_x, train_y, "training")
    train_x = _with_ones(train_x)
    validate = _Scorer(model, val_x, val_y)

    every = range(model.n_models)
    errors: list[Optional[RanklossError]] = [None] * model.n_models
    failed = np.zeros(model.n_models, dtype=bool)

    def fail_each(trial_errors, trials=every) -> None:
        for t, error in zip(trials, trial_errors):
            if error is not None and not failed[t]:
                errors[t], failed[t] = error, True

    def fail(bad: np.ndarray, what: str, epoch=None, batch=None, trials=every) -> None:
        if bad.any():
            fail_each([_non_finite(what, epoch, batch) if b else None for b in bad], trials)

    work, best = model.copy(), model.copy()
    best_auroc = np.full(model.n_models, -np.inf)
    logits = _layers(work.blocks, train_x)
    fail(_nonfinite_rows(logits), "initial logits")
    fail_each([_missing_class(config.loss_kind, np.bincount(y, minlength=model.n_classes))
               for y in train_y])
    values, ok = np.zeros(model.n_models), ~failed
    if ok.any() and _value_needed(config, train_y.shape[1]):
        targets = _targets(config.loss_kind, train_y[ok][None], model.n_classes)[0]
        values[ok] = _kernel(config.loss_kind, logits[ok], targets, config.surrogate, False,
                             pool=pool)[0]
    fail(~np.isfinite(values), "initial loss")
    groups = [_LabelGroups(y, config.batch_size) for y in train_y]
    fail_each([trial.error for trial in groups])

    # The trials left step in stacks of equal class count, batch count and
    # width, each with its own scratch stack for the updates.
    keyed: dict[tuple[int, int, int], list[int]] = {}
    for t in np.flatnonzero(~failed).tolist():
        keyed.setdefault((groups[t].counts.size, groups[t].n_batches, groups[t].width),
                         []).append(t)
    stacks = [(trials, MLPStack(model.layer_dims, np.empty((len(trials), model.params.shape[1]))))
              for trials in keyed.values()]
    seeds = [c.seed for c in configs]
    for epoch in range(config.max_epochs):
        if failed.all():
            break
        for trials, grads in stacks:
            if failed[trials].all():
                continue
            pick = trials if len(trials) < model.n_models else slice(None)
            index, sizes = _batch_index([groups[t] for t in trials], [seeds[t] for t in trials],
                                        epoch)
            steps = _plan(index, sizes, train_x[pick], train_y[pick], config.loss_kind,
                          model.n_classes)
            part = MLPStack(model.layer_dims, work.params[pick])
            for batch, step in enumerate(steps):
                for what, bad in _step(part, grads, step, config, pool):
                    fail(bad, what, epoch, batch, trials)
            work.params[pick] = part.params
        aurocs, val_errors = validate(work, epoch)
        fail_each(val_errors)
        improved = ~failed & (aurocs > best_auroc)
        np.copyto(best.params, work.params, where=improved[:, None])
        best_auroc = np.where(improved, aurocs, best_auroc)

    best.params[failed] = model.params[failed]
    return StackedTraining(model=best, errors=tuple(errors))


def train(
    model: MLPModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
) -> tuple[MLPModel, None]:
    """``train_stacked`` of one model: its best-validation checkpoint, or the
    trial's error raised.

    Returns ``(checkpoint, None)``, the (model, history) pair of the former
    per-trial trainer without a history, for callers written against it:
    the benchmark's reference check (``perfbench/worker.py``) is one.
    """
    run = train_stacked(
        MLPStack.of([model]), np.asarray(train_x)[None], np.asarray(train_y)[None],
        np.asarray(val_x)[None], np.asarray(val_y)[None], [config],
    )
    if run.errors[0] is not None:
        raise run.errors[0]
    return run.model.model(0), None
