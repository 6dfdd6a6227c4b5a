"""Minimal feed-forward classifier, plain SGD, and a stratified batch sampler.

The model is a small MLP (ReLU hidden layers, linear output) producing raw
logits; the losses own the softmax. One type, ``MLPStack``, holds one net
or a stack of them in one flat ``params`` array. Training is deterministic:
the same data, config, and seeds yield bit-identical weights.

The sampler guarantees every emitted batch contains at least one sample of
every class present in the training labels, which the pairwise ranking
losses require. When nominal batch count floor(n / batch_size) exceeds the
smallest class count, the batch count is clamped down so the guarantee stays
satisfiable; emitted batches then run larger than requested.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from itertools import accumulate
from typing import Optional

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from . import losses
from .errors import (FieldError, InfeasibleBatchError, NonFiniteError, RanklossError,
                     _check_fields, _check_float64_size, _check_integers, _integer, _real)
from .losses import (
    DEFAULT_SURROGATE,
    LOSS_KINDS,
    SurrogateParams,
    _kernel,
    _missing_class,
    _run_targets,
    _softmax_rows,
    _targets,
    _Targets,
)
from .metrics import _class_labels, _Ranking

__all__ = [
    "MLPStack",
    "TrainConfig",
    "init_model",
    "forward",
    "stratified_batches",
    "train",
    "StackedTraining",
    "train_stacked",
    "evaluate_auroc_stacked",
]


@dataclass(frozen=True, eq=False, slots=True)
class MLPStack:
    """Feed-forward nets of one shape: one net, or T stacked for trial-batched training.

    ``params`` holds a net layer by layer, one (fan_in + 1, fan_out) block
    per layer, the layer's weights with its biases as the last row. It is
    (n_params,) for one net (``init_model``; ``MLPStack(layer_dims)`` is one
    net of zeros) and (T, n_params) for a stack, whose row t is net t
    (``of``). ``blocks[i]`` (..., fan_in + 1, fan_out), ``weights[i]``
    (..., fan_in, fan_out) and ``biases[i]`` (..., fan_out) are views of it
    with the same leading shape, built once here, so one batched matmul of
    inputs with a ones column runs layer i of every net, weights and
    biases, and one operation updates all the parameters. Write through
    them; the class is frozen, so rebinding a field, which would cut the
    views from ``params``, raises. ``layer_dims`` must be two or more
    positive integers (``ValueError``) and is stored as a tuple of ints;
    ``params`` must be a float64 ``np.ndarray``, or a view of one
    (``ValueError``). Zeros past the largest possible array raise
    ``MemoryError``, as an allocation failure does.
    """

    layer_dims: tuple[int, ...]
    params: Optional[np.ndarray] = None
    blocks: tuple[np.ndarray, ...] = field(init=False, repr=False)
    weights: tuple[np.ndarray, ...] = field(init=False, repr=False)
    biases: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        dims = tuple(self.layer_dims)
        if len(dims) < 2:
            raise ValueError(f"need at least input and output dims, got {dims}")
        if not all(_integer(d) and d >= 1 for d in dims):
            raise ValueError(f"layer dims must be positive integers, got {dims}")
        dims = tuple(map(int, dims))
        shapes = [(fan_in + 1, fan_out) for fan_in, fan_out in zip(dims[:-1], dims[1:])]
        ends = list(accumulate(rows * cols for rows, cols in shapes))
        params = self.params
        if params is None:
            _check_float64_size(ends[-1], f"a net of layer dims {dims}")
            params = np.zeros(ends[-1])
        if not isinstance(params, np.ndarray) or params.dtype != np.float64:
            got = f"{params.dtype} array" if isinstance(params, np.ndarray) else type(params).__name__
            raise ValueError(f"params must be a float64 array, got {got}")
        if params.ndim not in (1, 2) or params.shape[-1] != ends[-1]:
            raise ValueError(f"params must be ({ends[-1]},) or (T, {ends[-1]}), got {params.shape}")
        blocks = tuple(params[..., end - rows * cols:end].reshape(*params.shape[:-1], rows, cols)
                       for (rows, cols), end in zip(shapes, ends))
        for name, value in (("layer_dims", dims), ("params", params), ("blocks", blocks),
                            ("weights", tuple(block[..., :-1, :] for block in blocks)),
                            ("biases", tuple(block[..., -1, :] for block in blocks))):
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # Pickled or deep-copied apart, the views would no longer be of params.
        return MLPStack, (self.layer_dims, self.params)

    @classmethod
    def of(cls, models: Sequence["MLPStack"]) -> "MLPStack":
        """The stack whose row t is ``models[t]``, a copy of each net."""
        if not models:
            raise ValueError("MLPStack.of needs at least one net")
        for model in models:
            _check_kind(model, False, "MLPStack.of")
        if any(m.layer_dims != models[0].layer_dims for m in models):
            raise ValueError("stacked models must share their layer dims")
        return cls(models[0].layer_dims, np.stack([m.params for m in models]))

    @property
    def n_models(self) -> int:
        """A stack's net count T."""
        return self.params.shape[0]

    @property
    def n_classes(self) -> int:
        return self.layer_dims[-1]

    def model(self, t: int) -> "MLPStack":
        """A copy of a stack's net t."""
        return MLPStack(self.layer_dims, self.params[t].copy())

    def copy(self) -> "MLPStack":
        return MLPStack(self.layer_dims, self.params.copy())


def _check_kind(model, stacked: bool, entry: str) -> None:
    """``ValueError`` unless ``model`` is a stack (``stacked``) or one net."""
    if not isinstance(model, MLPStack) or model.params.ndim != 1 + stacked:
        got = f"{model.params.ndim}-D params" if isinstance(model, MLPStack) else type(model).__name__
        want = "a stack of nets (2-D params)" if stacked else "one net (1-D params)"
        raise ValueError(f"{entry} takes {want}, got {got}")


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


def init_model(layer_dims: Sequence[int], seed: int) -> MLPStack:
    """One net with uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights, zero biases."""
    model = MLPStack(layer_dims)
    _check_integers(0, seed=seed)
    rng = np.random.default_rng(seed)
    for w in model.weights:
        bound = 1.0 / np.sqrt(w.shape[0])
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return model


def _check_features(model: MLPStack, features: np.ndarray) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"features must be 2-D, got shape {x.shape}")
    if x.shape[1] != model.layer_dims[0]:
        raise ValueError(
            f"feature width {x.shape[1]} does not match model input dim {model.layer_dims[0]}"
        )
    return x


def forward(model: MLPStack, features: np.ndarray) -> np.ndarray:
    """Logits of one net for a feature matrix: affine layers with ReLU between, linear out."""
    _check_kind(model, False, "forward")
    x = _check_features(model, features)
    return _layers([block[None] for block in model.blocks], _with_ones(x[None]))[0]


def _label_classes(labels: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """``np.unique`` of 1-D ``labels``, and each class c's members
    ``np.flatnonzero(labels == c)``, from one stable sort. Like ``np.unique``,
    each class is given as its first label in index order, and the NaNs (or
    NaTs) are one class, which ``==`` finds no members of. (``np.unique``
    imports ``numpy.ma``, which nothing else here needs.)"""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    n = ranked.size  # NaN and NaT sort last
    if ranked.dtype.kind in "cfmM":
        n -= int(np.isnan(ranked).sum())
    firsts, members = [], []
    if n:
        cuts = (np.flatnonzero(ranked[1:n] != ranked[: n - 1]) + 1).tolist()
        firsts, members = order[[0, *cuts]].tolist(), np.split(order[:n], cuts)
    if n < ranked.size:
        firsts, members = [*firsts, order[n:].min()], [*members, order[:0]]
    return labels[firsts], members


class _LabelGroups:
    """Training labels, checked and grouped once for a run's epochs (a
    non-empty 1-D array with no NaN or NaT, else ``ValueError``): each
    observed class's count, ``order``, the members of each class in turn
    (classes in label order, members in index order), the batch count at
    ``batch_size``, the widest batch's row count ``width`` = sum_c ceil(m_c
    / n_batches), and the ``InfeasibleBatchError`` sampling them raises, or
    None (and then ``n_batches`` and ``width`` are 0)."""

    def __init__(self, labels, batch_size: int):
        y = np.asarray(labels)
        if y.ndim != 1 or y.size == 0:
            raise ValueError("labels must be a non-empty 1-D array")
        self.n = y.size
        members = _label_classes(y)[1]
        if not all(m.size for m in members):  # only NaN or NaT equals no label
            raise ValueError("labels must not contain NaN or NaT")
        counts = [m.size for m in members]
        self.counts = np.array(counts)
        self.order = np.concatenate(members)
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
    index, sizes, _, _ = _batch_index([groups], [seed], [epoch])
    return [row[:size] for row, size in zip(index[0], sizes[0].tolist())]


def _batch_index(groups: Sequence[_LabelGroups], seeds: Sequence[int], epochs: Sequence[int]
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """``stratified_batches`` of every row r, for ``groups[r]``, ``seeds[r]``
    and ``epochs[r]``: a row is one epoch of one trial, so one call samples
    a chunk of epochs of a stack of trials.

    Unchecked: the groups must be feasible and share their sample count,
    number of classes and batch count, and the seeds and epochs must be
    nonnegative; the per-class counts m_rc may differ. Returns ``index``
    (R, n_batches, P), whose row b of row r starts with that row's batch b
    and is zero-padded to P, the largest ``width`` of the groups, the batch
    sizes (R, n_batches), and the class runs (R, n_classes, n_batches):
    batch b of row r holds ``rows[r, c, b]`` rows of its c-th class from
    row ``starts[r, c, b]`` on.
    """
    counts = np.stack([trial.counts for trial in groups])
    n_classes = counts.shape[1]
    n_rows, n, n_batches = len(groups), groups[0].n, groups[0].n_batches

    # Each row's stream, ``default_rng([seed, epoch])``: per class a
    # permutation of its members and one of the batches.
    # ``Generator.permutation`` copies and shuffles the copy, so shuffling
    # the members and batch numbers in place, in the output, draws the same
    # stream. Nothing shuffles within a batch: its loss and gradient are
    # sums over its rows, so their order would change only rounding.
    shuffled = np.stack([trial.order for trial in groups])
    placement = np.empty((n_rows, n_classes, n_batches), dtype=np.intp)
    placement[...] = np.arange(n_batches)
    ends = np.cumsum(counts, axis=1).tolist()
    for rng, order, places, row_ends in zip(_row_generators(seeds, epochs), shuffled,
                                            placement, ends):
        shuffle = rng.shuffle
        for lo, hi, place in zip([0, *row_ends], row_ends, places):
            shuffle(order[lo:hi])
            shuffle(place)
    # Class c is cut into chunks as np.array_split cuts it (the first
    # m % n_batches one longer), and chunk j joins batch placement[r, c, j].
    # Each batch lists its classes in label order, each class's rows in the
    # order its permutation drew them, in its own row of width P.
    # The arrays are updated in place: a chunk of epochs makes them large.
    q, rem = np.divmod(counts, n_batches)
    chunk = (np.arange(n_batches) < rem[:, :, None]).astype(np.intp)
    chunk += q[:, :, None]
    width = max(trial.width for trial in groups)
    # placement[r, c, j], in place, as a flat position into a (R,
    # n_classes, n_batches) array.
    at = placement
    at += np.arange(0, placement.size, n_batches).reshape(n_rows, n_classes, 1)
    rows = np.empty_like(placement)  # rows[r, c, b]: how many rows class c gives batch b
    rows.put(at, chunk)
    sizes = rows.sum(axis=1)
    starts = np.cumsum(rows, axis=1)
    starts -= rows
    # Where chunk j of class c starts in the flat index: its batch's row,
    # then its class's slot, less the chunk's own start in ``shuffled``.
    dest = (np.arange(n_rows)[:, None] * n_batches + np.arange(n_batches)) * width
    dest = (dest[:, None, :] + starts).take(at).reshape(n_rows, -1)
    chunk = chunk.reshape(n_rows, -1)
    dest -= np.cumsum(chunk, axis=1)
    dest += chunk
    offset = np.repeat(dest.ravel(), chunk.ravel()).reshape(n_rows, n)
    offset += np.arange(n)
    index = np.zeros((n_rows, n_batches, width), dtype=np.intp)
    index.reshape(-1)[offset.ravel()] = shuffled.ravel()
    return index, sizes, rows, starts


# NumPy's ``SeedSequence`` (O'Neill's ``seed_seq`` design), which
# ``default_rng([seed, epoch])`` runs once per row, run for a chunk's rows at
# once: ``_row_generators`` follows NumPy's ``mix_entropy`` and
# ``generate_state(4, np.uint64)`` step for step, each step one uint32 array
# operation over all the rows. NumPy wraps array arithmetic silently but
# warns when a scalar multiply wraps, so every product here has an array
# operand.
_MASK32 = 0xFFFFFFFF
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


class _SeedState(ISeedSequence):
    """A seed sequence that hands out one precomputed ``generate_state(4,
    np.uint64)``, which is all ``np.random.PCG64`` asks of one."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def _uint32_words(n: int) -> list[int]:
    """A nonnegative integer's uint32 words, least significant first, as
    ``SeedSequence`` splits it: [0] for 0."""
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _row_generators(seeds: Sequence[int], epochs: Sequence[int]) -> list[np.random.Generator]:
    """``np.random.default_rng([seed, epoch])`` of each row, the same
    stream: the rows' seed states come from one pass of the hash."""
    entropy = [_uint32_words(int(seed)) + _uint32_words(int(epoch))
               for seed, epoch in zip(seeds, epochs)]
    lengths = np.array([len(row) for row in entropy])
    # words[i] holds word i of every row. The hash reads a row of fewer
    # than 4 words as if padded with zeros.
    words = np.zeros((max(4, int(lengths.max())), len(entropy)), dtype=np.uint32)
    for r, row in enumerate(entropy):
        words[:len(row), r] = row
    const, mult = 0x43B0D7E5, 0x931E8875

    def hashmix(value: np.ndarray) -> np.ndarray:
        # The constant is the same for every row, and advances at each call.
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value *= const
        value ^= value >> 16
        return value

    def mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        out = x * _MIX_L
        out -= y * _MIX_R
        out ^= out >> 16
        return out

    # mix_entropy: the first 4 words fill the pool, each pool word mixes a
    # hash of itself into the other three, and each later word mixes into
    # every pool word. A row without that word skips its steps, whose
    # constants still advance.
    pool = [hashmix(word) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if dst != src:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(4, len(words)):
        has = lengths > src
        for dst in range(4):
            pool[dst] = np.where(has, mix(pool[dst], hashmix(words[src])), pool[dst])
    # generate_state: 8 uint32 words, each a hash of the next pool word in
    # turn under constants of its own; words 2i and 2i + 1 are the low and
    # high halves of uint64 i.
    const, mult = 0x8B51F9DD, 0x58F38DED
    state = np.stack([hashmix(pool[i % 4]) for i in range(8)], axis=1)
    states = state.astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_SeedState(row))) for row in states]


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
# padded so, and the oracle pads the same way. ``train_stacked`` trains
# each group of trials of equal class count, batch count and P_t, or each
# part of one, as one stack (stratified splits make one group):
# per step one forward pass, one loss call and one backprop pass. A failed
# trial steps on, masked; a group of AUC trials missing a class, or of
# unbatchable ones, never steps. No kernel reduces across trials, so a
# trial's arithmetic does not depend on which other trials share its stack.
# Data is checked once per call, so the initial loss and the steps call the
# unchecked code behind ``stratified_batches`` and the per-batch losses:
# ``_batch_index`` and ``losses._kernel``. The sampler and the step plan
# cost the same few dozen NumPy calls however small the stack, so they run
# once per chunk of epochs: a chunk's batches are drawn by one
# ``_batch_index`` call, one row per (epoch, trial), and planned by one
# ``_plan`` call, with K = PLAN_ROWS // (T * n_batches * P) epochs per
# chunk (at least 1, at most ``max_epochs``). A plan holds each step's
# gather indices and label data; each step gathers its own padded rows,
# so no chunk's features are held at once. The epochs still run one at a
# time: a stack whose trials have all failed stops stepping at once, and
# the errors are met in the same order. A batch lists its classes in
# label order, so an AUC step's label data, which rows are each class's
# positives and negatives, is read off the sampler's class runs by
# ``losses._run_targets``. The initial loss, whose rows are in any order,
# and cross entropy derive theirs from the labels by ``losses._targets``.

PLAN_ROWS = 1 << 14
"""Padded batch rows, summed over a stack's trials and steps, that the
engine samples and plans at a time (``train_stacked``): a chunk of epochs,
rounded down to whole epochs and never less than one. The plan's index
arrays and label data grow with it, not with the run's length."""


@dataclass(frozen=True)
class StackedTraining:
    """Outcome of ``train_stacked``.

    ``model`` holds each trial's best-validation checkpoint; ``errors[t]``
    is the first error of trial t, or None. A failed trial's entry in
    ``model`` keeps its initial weights.
    """

    model: MLPStack
    errors: tuple[Optional[RanklossError], ...]


def _finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite. A finite sum has finite
    terms, so only a sum that is not finite is checked entry by entry."""
    return math.isfinite(np.add.reduce(a, None)) or bool(np.isfinite(a).all())


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


def _hidden_buffers(blocks, shape: tuple[int, int]) -> list[np.ndarray]:
    """One output buffer (T, rows, fan_out + 1) per hidden layer of
    ``blocks``, for inputs of ``shape`` (T, rows), its last column set to 1."""
    buffers = [np.empty((*shape, block.shape[2] + 1)) for block in blocks[:-1]]
    for hidden in buffers:
        hidden[:, :, -1] = 1.0
    return buffers


def _layers(blocks, a, inputs=None, buffers=None) -> np.ndarray:
    """Logits of the stacked layers on ``a`` (T, rows, fan_in + 1), whose
    last column is 1: one matmul by each layer's block, weights and biases,
    with ReLU between. Each hidden layer's output goes into its buffer in
    ``buffers`` (``_hidden_buffers`` of ``a``'s (T, rows); made here when
    None), the next layer's input. When ``inputs`` is a list, each layer's input
    is appended to it; backprop reads each ReLU's mask off the next input."""
    if buffers is None:
        buffers = _hidden_buffers(blocks, a.shape[:2])
    for block, hidden in zip(blocks[:-1], buffers):
        if inputs is not None:
            inputs.append(a)
        np.matmul(a, block, out=hidden[:, :, :-1])
        np.maximum(hidden, 0.0, out=hidden)  # max(1, 0) keeps the ones column
        a = hidden
    if inputs is not None:
        inputs.append(a)
    return np.matmul(a, blocks[-1])


class _Scorer:
    """``evaluate_auroc_stacked`` on ``_check_stacked``'s ``x`` and ``y``: its
    ones column and the labels' ranking (``metrics._Ranking``: class flags,
    counts and undefined-AUROC errors) are built once; each call scores a stack."""

    def __init__(self, model: MLPStack, x: np.ndarray, y: np.ndarray):
        self.x = _with_ones(x)
        # Binary: class 1 ranked against class 0; else one-vs-rest.
        n_classes = model.n_classes
        self.ranking = _Ranking(y, [1] if n_classes == 2 else range(n_classes))
        self.ok = np.array([error is None for error in self.ranking.errors])

    def __call__(self, model: MLPStack, epoch: int | None = None):
        logits = _layers(model.blocks, self.x)
        errors, ok = self.ranking.errors, self.ok
        if not _finite(logits):
            errors = [_non_finite("evaluation logits", epoch) if bad else error
                      for bad, error in zip(_nonfinite_rows(logits), errors)]
            ok = np.array([error is None for error in errors])
        values = np.full(model.n_models, np.nan)
        if ok.any():
            keep = slice(None) if ok.all() else ok
            values[keep] = np.mean(self.ranking(_softmax_rows(logits[keep]), keep), axis=1)
        return values, tuple(errors)


@np.errstate(over="ignore", invalid="ignore")
def evaluate_auroc_stacked(
    model: MLPStack, features, labels
) -> tuple[np.ndarray, tuple[Optional[RanklossError], ...]]:
    """Exact AUROC of model t's softmax scores on ``features[t]``, ``labels[t]``,
    for every t.

    Binary AUROC of the last class for 2-class models, macro one-vs-rest
    otherwise: bit for bit ``auroc_rank`` or ``auroc_multiclass_ovr`` of the
    model's scores. Also returns per model the error scoring it raises, or
    None: ``NonFiniteError`` for non-finite logits, else the
    ``EmptyClassError`` of labels that leave the AUROC undefined. A failed
    model's AUROC is NaN. NumPy's overflow and invalid-value warnings are
    silenced: the ``NonFiniteError`` reports them.
    """
    _check_kind(model, True, "evaluate_auroc_stacked")
    return _Scorer(model, *_check_stacked(model, features, labels, "evaluation"))(model)


@dataclass(slots=True)
class _Batch:
    """One SGD step of a stack of T trials: ``rows`` (T, P) indexes each
    trial's batch, padded to the stack's width P with copies of its first
    row, in ``source``, the stack's training rows with their ones column
    (T * n, n_features + 1), trial t's from row t * n on; ``real`` (T, P)
    marks the batch's own rows, and ``targets`` is the loss's label data of
    the batches' labels, padded with -1, as ``losses._targets`` derives it."""

    source: np.ndarray
    rows: np.ndarray
    real: np.ndarray
    targets: _Targets

    @property
    def x(self) -> np.ndarray:
        """The padded batches (T, P, n_features + 1), gathered on each read."""
        return self.source.take(self.rows, axis=0)


def _plan(batches, train_x, train_y, kind: str, n_classes: int) -> list[_Batch]:
    """The steps of ``_batch_index``'s ``batches`` of K epochs of a stack of
    T trials, whose rows run epoch by epoch, each epoch's trial by trial:
    step k * n_batches + b is batch b of epoch k, the rows
    ``index[k * T + t, b, :sizes[k * T + t, b]]`` of ``train_x[t]`` (T, n,
    n_features + 1) and ``train_y[t]``, padded as ``_Batch`` holds them. The
    gather indices and the loss's label data are derived for every step at
    once: an AUC kind's label data from the class runs, which give label
    k's rows, since an AUC stack's trials hold every class (a stack missing
    one never steps); cross entropy's from the labels, as a trial may miss
    a class."""
    index, sizes, rows, starts = batches
    n_trials, n = train_x.shape[:2]
    n_epochs, n_batches, width = index.shape[0] // n_trials, *index.shape[1:]
    n_steps = n_epochs * n_batches
    # From rows (epoch, trial) by batch to steps (epoch, batch) by trial.
    index = index.reshape(n_epochs, n_trials, n_batches, width).transpose(0, 2, 1, 3)
    index = index.reshape(n_steps, n_trials, width)
    sizes = sizes.reshape(n_epochs, n_trials, n_batches).transpose(0, 2, 1).reshape(n_steps, -1)
    real = np.arange(width) < sizes[:, :, None]  # (steps, T, P)
    flat = np.where(real, index, index[:, :, :1])
    flat += (np.arange(n_trials) * n)[:, None]
    if kind == "cross_entropy":
        labels = train_y.reshape(-1).take(flat)
        labels[~real] = -1
        targets = _targets(kind, labels, n_classes)
    else:
        runs = [a.reshape(n_epochs, n_trials, -1, n_batches).transpose(2, 0, 3, 1)
                .reshape(-1, n_steps, n_trials) for a in (rows, starts)]
        targets = _run_targets(kind, *runs, sizes, width)
    source = train_x.reshape(n_trials * n, -1)
    return [_Batch(source, *step) for step in zip(flat, real, targets)]


def _value_needed(config: TrainConfig, rows: int) -> bool:
    """Whether a loss value on batches of ``rows`` padded rows can be
    non-finite where the logits are finite. An AUC term lies in [0, L], and
    a trial has at most rows**2 / 4 pairs per class, so its term sum cannot
    overflow while L * rows**2 stays within the float range. Cross entropy
    can overflow from finite logits."""
    return (config.loss_kind == "cross_entropy"
            or config.surrogate.L * rows**2 > np.finfo(float).max)


def _step(stack: MLPStack, grads: MLPStack, batch: _Batch, config: TrainConfig,
          want_value: bool, buffers) -> list[tuple[str, np.ndarray]]:
    """One SGD step of every trial of ``stack`` on its batch in ``batch``,
    in place. ``grads``, a stack of the same shape, is scratch, and so are
    ``buffers``, the hidden layers' ``_hidden_buffers``.

    Returns the step's failures: ("logits", flags) when some trial's real
    rows have non-finite logits, then ("loss", flags) when some trial's
    loss value is non-finite, each flagging those trials. Their updates are
    garbage, which no other trial's arithmetic reads. The loss value is
    computed only where ``want_value``, the call's ``_value_needed``; a
    trial with non-finite logits has failed on them already. Each array is
    screened by ``_finite``.
    """
    inputs = []
    logits = _layers(stack.blocks, batch.x, inputs, buffers)
    values, delta = _kernel(config.loss_kind, logits, batch.targets, config.surrogate, True,
                            want_value=want_value)
    for layer in range(len(inputs) - 1, -1, -1):
        # The input's ones column makes the block's last row the bias gradient.
        np.matmul(inputs[layer].transpose(0, 2, 1), delta, out=grads.blocks[layer])
        if layer:
            delta = delta @ stack.weights[layer].transpose(0, 2, 1)
            delta *= inputs[layer][:, :, :-1] > 0.0
    np.multiply(grads.params, config.learning_rate, out=grads.params)
    np.subtract(stack.params, grads.params, out=stack.params)
    failures = []
    if not _finite(logits):
        real = np.where(batch.real[:, :, None], logits, 0.0)
        failures.append(("logits", _nonfinite_rows(real)))
    if values is not None and not _finite(values):
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
    threads: int = 1,
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
    error. A step that makes a weight non-finite is caught by the next
    forward pass, batch or validation, whose logits it poisons. The error
    is recorded, the other trials train on, and the failed trial stays in
    its stack, masked: no kernel reduces across trials, so its non-finite
    values reach no other trial's arithmetic. NumPy's overflow and
    invalid-value warnings are silenced, as that arithmetic is expected and
    the trial's error already reports it.

    The trials are first cut into parts, each trained as one stack and
    merged by trial index: a group per class count, batch count and
    batch width P (trials the sampler cannot batch form their own and never
    step), and a pairwise-loss group with P**2 / 4 >= ``losses.PAIR_BLOCK``
    cut into min(``threads``, trials) contiguous parts that run at once
    (``_run_parts``): the first on the calling thread, the others on Linux
    each in a child forked from it, which inherits the caller's NumPy error
    state and handler, and elsewhere one after another on the calling
    thread. No child outlives the call. A child that exits without sending
    its part back fails each of the part's trials with a ``RanklossError``
    naming its exit code. A trial trains bit for bit whichever trials share
    its stack, so the result does not depend on ``threads``.

    Before any work, ``model`` must be a stack, ``configs`` a sequence of
    ``TrainConfig`` ("configs[0] must be a TrainConfig, got None") that fits
    it, and ``threads`` an integer of at least 1 (all ``ValueError``): one
    config per model, equal in everything but the seed, and an
    ``auc_binary`` loss needs a 2-class model.
    """
    _check_kind(model, True, "train_stacked")
    if not isinstance(configs, Sequence):
        raise ValueError(f"configs must be a sequence of TrainConfig, got {configs!r}")
    for i, c in enumerate(configs):
        if not isinstance(c, TrainConfig):
            raise ValueError(f"configs[{i}] must be a TrainConfig, got {c!r}")
    if len(configs) != model.n_models or any(
        replace(c, seed=configs[0].seed) != configs[0] for c in configs
    ):
        raise ValueError("need one TrainConfig per model, equal in everything but the seed")
    _check_integers(1, threads=threads)
    config = configs[0]
    if config.loss_kind == "auc_binary" and model.n_classes != 2:
        raise ValueError(f"binary_auc_loss requires 2 classes, got {model.n_classes}")
    train_x, train_y = _check_stacked(model, train_x, train_y, "training")
    val_x, val_y = _check_stacked(model, val_x, val_y, "evaluation")
    groups = [_LabelGroups(y, config.batch_size) for y in train_y]

    keyed: dict[tuple[int, int, int], list[int]] = {}
    for t, trial in enumerate(groups):
        keyed.setdefault((trial.counts.size, trial.n_batches, trial.width), []).append(t)
    parts = []
    for (_, _, width), trials in keyed.items():
        split = config.loss_kind != "cross_entropy" and width * width >= 4 * losses.PAIR_BLOCK
        n_parts = min(threads, len(trials)) if split else 1
        cuts = [len(trials) * i // n_parts for i in range(n_parts + 1)]
        parts.append([trials[lo:hi] for lo, hi in zip(cuts, cuts[1:])])

    best, errors = np.empty_like(model.params), {}

    def train_part(trials):
        # Consecutive trials are passed as views.
        at = slice(trials[0], trials[-1] + 1) if trials[-1] - trials[0] < len(trials) else trials
        return _train_stack(MLPStack(model.layer_dims, model.params[at]), train_x[at],
                            train_y[at], val_x[at], val_y[at],
                            [configs[t] for t in trials], [groups[t] for t in trials])

    def lost(trials, exitcode):
        error = RanklossError(f"the process training this trial's part exited with code "
                              f"{exitcode} before sending its result")
        return model.params[trials], [error] * len(trials)

    context = None
    if max(map(len, parts)) > 1 and sys.platform == "linux":
        import multiprocessing  # imported only here: most runs split no stack

        context = multiprocessing.get_context("fork")
    for group in parts:
        for trials, (params, part_errors) in zip(group, _run_parts(train_part, group, lost,
                                                                   context)):
            best[trials] = params
            errors.update(zip(trials, part_errors))
    return StackedTraining(model=MLPStack(model.layer_dims, best),
                           errors=tuple(errors[t] for t in range(model.n_models)))


def _send_result(writer, run, part) -> None:
    """A child's side of ``_run_parts``: ``run(part)``, or the exception it
    raised, sent to the parent. Ended by SIGTERM, the child unwinds, so
    that the children its own part started end too."""
    import signal

    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        message = True, run(part)
    except Exception as exc:
        message = False, exc
    writer.send(message)


def _run_parts(run, parts: Sequence, lost, context) -> list:
    """``[run(part) for part in parts]``, the parts at once: the first on the
    calling thread and each other in a child process of the
    ``multiprocessing`` ``context``, started before the first and sent its
    result back through a pipe of its own. The results, or the exception a
    part raised, are taken in part order; a child that exits without sending
    its result gives ``lost(part, exitcode)``, whose value stands for it or
    whose exception is raised. No child outlives the call: once a part has
    raised, the children are terminated and joined, and so are theirs.
    With ``context`` None the parts run one after another on the calling
    thread; with a ``spawn`` or ``forkserver`` context, ``run`` and the
    parts must pickle."""
    if context is None or len(parts) == 1:
        return [run(part) for part in parts]
    children = []
    try:
        for part in parts[1:]:
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_send_result, args=(writer, run, part))
            try:
                child.start()
            finally:
                writer.close()  # so the reader meets EOF once the child exits
            children.append((child, reader))
        results = [run(parts[0])]
        for part, (child, reader) in zip(parts[1:], children):
            try:
                ok, result = reader.recv()
            except EOFError:
                child.join()
                ok, result = True, lost(part, child.exitcode)
            if not ok:
                raise result
            results.append(result)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, reader in children:
            reader.close()
            child.join()
    return results


def _train_stack(model: MLPStack, train_x, train_y, val_x, val_y, configs, groups
                 ) -> tuple[np.ndarray, list[Optional[RanklossError]]]:
    """``train_stacked``'s checkpoints and errors of one stack, its trials
    sharing class count, batch count and width, on its checked arrays and
    its trials' ``_LabelGroups``. Checks nothing."""
    config = configs[0]
    train_x = _with_ones(train_x)
    validate = _Scorer(model, val_x, val_y)
    errors: list[Optional[RanklossError]] = [None] * model.n_models
    failed = np.zeros(model.n_models, dtype=bool)

    def fail_each(trial_errors) -> None:
        for t, error in enumerate(trial_errors):
            if error is not None and not failed[t]:
                errors[t], failed[t] = error, True

    def fail(bad: np.ndarray, what: str, epoch=None, batch=None) -> None:
        if bad.any():
            fail_each([_non_finite(what, epoch, batch) if b else None for b in bad])

    work, best = model.copy(), model.copy()
    best_auroc = np.full(model.n_models, -np.inf)
    logits = _layers(work.blocks, train_x)
    fail(_nonfinite_rows(logits), "initial logits")
    fail_each([_missing_class(config.loss_kind, np.bincount(y, minlength=model.n_classes))
               for y in train_y])
    values, ok = np.zeros(model.n_models), ~failed
    if ok.any() and _value_needed(config, train_y.shape[1]):
        targets = _targets(config.loss_kind, train_y[ok][None], model.n_classes)[0]
        values[ok] = _kernel(config.loss_kind, logits[ok], targets, config.surrogate, False)[0]
    fail(~np.isfinite(values), "initial loss")
    fail_each([trial.error for trial in groups])

    grads = MLPStack(model.layer_dims, np.empty_like(model.params))
    seeds = [c.seed for c in configs]
    n_batches, width = groups[0].n_batches, groups[0].width
    want_value = _value_needed(config, width)
    buffers = _hidden_buffers(work.blocks, (model.n_models, width))
    epoch_rows = model.n_models * n_batches * width  # 0 for a stack that never steps
    chunk = min(config.max_epochs, max(1, PLAN_ROWS // max(1, epoch_rows)))
    planned: list[_Batch] = []
    for epoch in range(config.max_epochs):
        if failed.all():
            break
        if epoch % chunk == 0:
            planned.clear()  # the last chunk's plan is freed before the next is made
            epochs = range(epoch, min(epoch + chunk, config.max_epochs))
            planned = _plan(_batch_index(groups * len(epochs), seeds * len(epochs),
                                         [e for e in epochs for _ in seeds]),
                            train_x, train_y, config.loss_kind, model.n_classes)
        first = (epoch % chunk) * n_batches
        for batch in range(n_batches):
            for what, bad in _step(work, grads, planned[first + batch], config, want_value,
                                   buffers):
                fail(bad, what, epoch, batch)
        aurocs, val_errors = validate(work, epoch)
        fail_each(val_errors)
        improved = ~failed & (aurocs > best_auroc)
        np.copyto(best.params, work.params, where=improved[:, None])
        best_auroc = np.where(improved, aurocs, best_auroc)

    best.params[failed] = model.params[failed]
    return best.params, errors


def train(
    model: MLPStack,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
) -> tuple[MLPStack, None]:
    """``train_stacked`` of one net: its best-validation checkpoint, or the
    trial's error raised.

    Returns ``(checkpoint, None)``, the (model, history) pair of the former
    per-trial trainer without a history, for callers written against it:
    the benchmark's reference check (``perfbench/worker.py``) is one.
    """
    _check_kind(model, False, "train")
    run = train_stacked(
        MLPStack(model.layer_dims, model.params[None]), np.asarray(train_x)[None],
        np.asarray(train_y)[None], np.asarray(val_x)[None], np.asarray(val_y)[None], [config],
    )
    if run.errors[0] is not None:
        raise run.errors[0]
    return run.model.model(0), None
