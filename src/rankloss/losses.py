"""Differentiable AUROC surrogate losses and the cross-entropy baseline.

The exact AUROC is a mean of unit steps over score-difference pairs, which
has zero gradient almost everywhere. Replacing the step with a steep
logistic f(x) = L / (1 + exp(-k (x - x0))) gives a smooth stand-in whose
complement can be minimized directly:

* ``binary_auc_loss``: 1 minus the mean logistic of all pairwise positive
  minus negative softmax-probability differences, using the last softmax
  column as the positive score.
* ``multiclass_auc_loss``: one-vs-rest extension; the per-class pairwise
  logistic means are macro-averaged before taking the complement.

Softmax is folded into the losses (they consume raw logits), and gradients
are derived analytically via f'(x) = (k/L) f(x) (L - f(x)) chained through
softmax. ``finite_diff_check`` verifies any loss gradient against central
differences.

Each loss has one implementation, ``_kernel``, which computes it for a
stack of padded batches, one per trial, as the training engine needs.
The per-batch functions (``binary_auc_loss``, ``multiclass_auc_loss``,
``cross_entropy_loss`` and ``loss_function``'s callables) run it on a stack
of one. The pairwise kinds walk each pair grid in blocks of ``PAIR_BLOCK``
pairs, so their temporaries stay a few MB however large the batch.

All arithmetic is float64. With the default L = 1 the AUROC loss value lies
in (0, 1) for finite inputs, although extreme k times gap products can round
the value to exactly 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EmptyClassError, _POSITIVE, _check, _check_fields, _real
from .metrics import PredictionBatch

__all__ = [
    "SurrogateParams",
    "DEFAULT_SURROGATE",
    "LossOutput",
    "GradCheckReport",
    "LOSS_KINDS",
    "logistic",
    "softmax",
    "binary_auc_loss",
    "multiclass_auc_loss",
    "cross_entropy_loss",
    "loss_function",
    "finite_diff_check",
    "PAIR_BLOCK",
]

LOSS_KINDS = ("cross_entropy", "auc_binary", "auc_multiclass")


@dataclass(frozen=True)
class SurrogateParams:
    """Logistic surrogate parameters: growth rate k, supremum L, midpoint x0.

    Larger k tightens the approximation to the unit step. Defaults are
    k=20, L=1, x0=0.
    """

    k: float = 20.0
    L: float = 1.0
    x0: float = 0.0

    def __post_init__(self):
        _check_fields(self, _real, k=_POSITIVE, L=_POSITIVE, x0=None)


DEFAULT_SURROGATE = SurrogateParams()


def _check_params(params) -> None:
    """The public entries' check of their surrogate parameters' type, worded
    as ``TrainConfig.surrogate``'s."""
    if not isinstance(params, SurrogateParams):
        raise ValueError(f"params must be a SurrogateParams, got {params!r}")


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss value plus, when requested, d(value)/d(logit) per entry.

    Not validated: finite logits can still overflow to an infinite value
    (cross entropy of logits about 1e308 apart), and the training engine
    (``network.train_stacked``) checks every value it steps on.
    """

    value: float
    grad: Optional[np.ndarray] = None


def logistic(x, params: SurrogateParams = DEFAULT_SURROGATE):
    """Evaluate L / (1 + exp(-k (x - x0))) for a scalar or array ``x``.

    Evaluated in a branch-on-sign form so arguments with |k (x - x0)| in the
    hundreds neither overflow nor land on the wrong branch.
    """
    _check_params(params)
    scalar = np.ndim(x) == 0
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("logistic requires finite input")
    diff = np.array(arr, ndmin=1)  # a copy, which the kernel may overwrite
    out, _ = _block_logistic(diff, diff, diff, np.empty_like(diff), params, True, False)
    return float(out[0]) if scalar else out.reshape(np.shape(x))


def softmax(logits) -> np.ndarray:
    """Row-wise softmax of a vector or matrix of logits.

    Max-subtracted for stability; adding a constant to all entries of a row
    leaves the output unchanged.
    """
    arr = np.asarray(logits, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("softmax requires finite input")
    one_dim = arr.ndim == 1
    if one_dim:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValueError(f"softmax expects a vector or matrix, got shape {arr.shape}")
    probs = _softmax_rows(arr)
    return probs[0] if one_dim else probs


def _softmax_rows(arr: np.ndarray) -> np.ndarray:
    # Softmax along the last axis, unchecked; shared by the checked entry
    # point and the stacked kernels so both round the same way.
    e = np.exp(arr - _last_axis_max(arr))
    return e / _last_axis_sum(e)


def _last_axis_max(arr: np.ndarray) -> np.ndarray:
    # max(axis=-1, keepdims=True): a max reduction over a short last axis
    # runs one inner loop per row, a running np.maximum over the columns
    # runs one per column. The maximum is the same either way.
    out = arr[..., 0].copy() if arr.shape[-1] == 1 else np.maximum(arr[..., 0], arr[..., 1])
    for c in range(2, arr.shape[-1]):
        np.maximum(out, arr[..., c], out=out)
    return out[..., None]


def _last_axis_sum(arr: np.ndarray) -> np.ndarray:
    # sum(axis=-1, keepdims=True), bit for bit, by column adds as above.
    # NumPy sums a row shorter than 8 left to right from 0 (which turns a
    # -0.0 into 0.0), so running column adds from 0 round the same. From 8
    # columns on it sums pairwise, so those rows keep its sum.
    if arr.shape[-1] >= 8:
        return arr.sum(axis=-1, keepdims=True)
    out = arr[..., 0] + 0.0
    for c in range(1, arr.shape[-1]):
        out += arr[..., c]
    return out[..., None]


def _block_logistic(diff, u, d, terms, params: SurrogateParams, want_value, want_slope):
    """L f(x) and its derivative k L f'(x) over an array ``diff`` of score
    differences x, in the caller's buffers of its shape: L f(x) lands in
    ``terms`` when ``want_value``, k L f'(x) in ``u`` when ``want_slope``,
    and each is returned, or None when not asked for. ``d`` is scratch.
    ``u`` may be ``diff`` itself, and without the slope ``d`` may be ``u``;
    ``diff`` is overwritten when x0 != 0 or when it is shared.

    With t = k (x - x0), u = exp(-|t|) and d = 1 + u, f is 1/d for t >= 0
    and u/d below, so exp never sees a large positive argument and large
    |t| underflows to the correct side. The slope u / d**2 is symmetric in
    t and free of the cancellation that f (1 - f) suffers once f saturates.
    t itself is never formed: rounding is symmetric in sign, so exp(-|t|) is
    exp(|x - x0| * -k) bit for bit. The sign mask is read off x - x0: it
    differs from t >= 0 only where k (x - x0) underflows to -0, and there
    u = 1, the numerator either way.
    """
    if params.x0:
        diff -= params.x0
    if want_value:
        # The numerator is 1 where x >= x0 and u below; u <= 1, so a maximum
        # against the sign mask picks it without a masked (slow) ufunc loop.
        # The mask is taken before u may overwrite diff, and the numerator
        # before d may overwrite u.
        np.greater_equal(diff, 0.0, out=terms)
    np.abs(diff, out=u)
    u *= -params.k
    np.exp(u, out=u)
    if want_value:
        np.maximum(u, terms, out=terms)
    np.add(u, 1.0, out=d)
    if want_value:
        terms /= d
        if params.L != 1.0:
            terms *= params.L
    else:
        terms = None
    if not want_slope:
        return terms, None
    d *= d
    u /= d
    u *= params.k * params.L
    return terms, u


def _require_logits(batch: PredictionBatch, name: str) -> None:
    if batch.probabilities:
        raise ValueError(
            f"{name} applies softmax internally and expects raw logits, "
            "got a probability-flagged batch"
        )


def _missing_class(kind: str, counts) -> Optional[EmptyClassError]:
    """The ``EmptyClassError`` the ``kind`` loss raises on a batch with these
    per-class counts, or None. The AUC kinds rank classes against each
    other, so they need samples of both classes (binary) or of every class."""
    if kind == "auc_binary":
        if counts[1] == 0:
            return EmptyClassError("batch has no positive (label 1) samples", class_index=1)
        if counts[0] == 0:
            return EmptyClassError("batch has no negative (label 0) samples", class_index=0)
    elif kind == "auc_multiclass":
        missing = np.flatnonzero(counts == 0)
        if missing.size:
            c = int(missing[0])
            return EmptyClassError(f"batch has no samples of class {c}", class_index=c)
    return None


def binary_auc_loss(
    batch: PredictionBatch,
    params: SurrogateParams = DEFAULT_SURROGATE,
    want_grad: bool = False,
) -> LossOutput:
    """Complement of the logistic-surrogate AUROC for a two-class batch.

    The positive score of sample i is the last softmax column p_i; the loss
    is 1 - mean over all (positive, negative) pairs of f(p_pos - p_neg).
    Labels 1 are positives, labels 0 negatives. The gradient (if requested)
    is the exact derivative with respect to every input logit.
    """
    return _one_batch("auc_binary", "binary_auc_loss", batch, params, want_grad)


def multiclass_auc_loss(
    batch: PredictionBatch,
    params: SurrogateParams = DEFAULT_SURROGATE,
    want_grad: bool = False,
) -> LossOutput:
    """One-vs-rest extension of the surrogate AUROC loss.

    For each class c, the class-c softmax column of class-c samples is
    compared pairwise against the same column of all other samples; the loss
    is 1 minus the macro average of the per-class pairwise logistic means.
    Raises ``EmptyClassError`` naming the first class with no samples.
    """
    return _one_batch("auc_multiclass", "multiclass_auc_loss", batch, params, want_grad)


def cross_entropy_loss(batch: PredictionBatch, want_grad: bool = False) -> LossOutput:
    """Mean negative log softmax probability of the true class.

    Log-sum-exp stabilized; the gradient is (softmax - one_hot) / n.
    """
    return _one_batch("cross_entropy", "cross_entropy_loss", batch, DEFAULT_SURROGATE, want_grad)


def _one_batch(kind, name, batch: PredictionBatch, params, want_grad) -> LossOutput:
    """``_kernel`` of one batch, a stack of one trial, once the batch has
    passed the per-batch checks, which raise the per-batch messages."""
    _check_params(params)
    if kind == "auc_binary" and batch.n_classes != 2:
        raise ValueError(f"binary_auc_loss requires 2 classes, got {batch.n_classes}")
    _require_logits(batch, name)
    error = _missing_class(kind, batch.class_counts())
    if error is not None:
        raise error
    targets = _targets(kind, batch.labels[None, None], batch.n_classes)[0]
    value, grad = _kernel(kind, batch.scores[None], targets, params, want_grad)
    return LossOutput(value=float(value[0]), grad=None if grad is None else grad[0])


# ---------------------------------------------------------------- the kernels
#
# Each loss runs on T padded batches at once, as the trial-batched training
# engine needs them; the per-batch functions above are stacks of one.
# Logits are (T, P, n_classes) and labels (T, P), where label -1 marks a
# padding row. Row t depends on trial t's real rows alone, and padding rows
# get gradient 0. The gradient is bit for bit that of the textbook formula
# on those rows (a full pair grid, summed row by row and column by column).
# The value is the same mean summed in another order, so it can differ from
# the textbook one by float64 rounding. Training only checks that it is
# finite, so an SGD step can skip the AUC value where it is finite anyway,
# and the pairwise kernel then computes no surrogate terms at all.

PAIR_BLOCK = 1 << 16
"""Padded (positive, negative) pairs the pairwise kernel handles at a time.

Each class's pair grid is walked in blocks of whole trials, or of positive
rows of one trial, that hold at most this many pairs (or one row, if a row
is longer). Its workspace then stays cache-sized however large the batches
or the block of trials, and blocking changes no gradient bit. The training
engine splits a stack of trials across threads only if its steps can hold
this many pairs per trial and class (``network.train_stacked``)."""


def _kernel(kind, z, targets, params, want_grad, *, want_value=True):
    """Loss values (T,) and, when ``want_grad``, d(value)/d(logits) of T
    padded batches: float64 logits ``z`` (T, P, C) and their labels'
    ``_Targets``. Unchecked: callers check the labels and, for
    ``auc_binary``, that C is 2.

    ``want_value=False`` is for callers that need only the gradient: the AUC
    kinds then return None for the value and skip the surrogate terms, a
    third of the pairwise kernel's work. Cross entropy always computes it.

    Serial: it runs on the calling thread, and threads share the trials of
    a stack, not its pair grids (see ``network.train_stacked``).
    """
    if kind == "cross_entropy":
        return _stacked_cross_entropy(z, targets, want_grad)
    return _stacked_auc(kind, z, targets, params, want_grad, want_value)


@dataclass(slots=True)
class _ClassPairs:
    """Where class c's positives and negatives sit in each trial's padded
    row of scores: flat positions into (T, P + 2) rows whose slot P holds
    -inf and slot P + 1 +inf, which pad each trial's positives and
    negatives to the widest trial's. Also the counts. Not frozen, like the
    other per-step records: a frozen dataclass costs three times as much
    to build."""

    c: int
    pos_at: np.ndarray
    n_pos: np.ndarray
    neg_at: np.ndarray
    n_neg: np.ndarray


@dataclass(slots=True)
class _Targets:
    """What ``_kernel`` reads off the (T, P) labels of a stack of padded
    batches. Cross entropy: the one-hot labels ``hit`` (T, P, C), the real
    rows per trial ``n`` (T,), and ``div`` (T, P, 1), which holds its
    trial's ``n`` on a real row and +inf on a padding row. AUC kinds: one
    ``_ClassPairs`` per class ranked."""

    hit: Optional[np.ndarray] = None
    n: Optional[np.ndarray] = None
    div: Optional[np.ndarray] = None
    pairs: tuple = ()


def _targets(kind: str, labels: np.ndarray, n_classes: int) -> list[_Targets]:
    """The ``_Targets`` of ``labels[b]`` for each b of a (batches, T, P) label
    array, derived for all the batches at once. An AUC kind sorts each
    trial's rows once by (positive, negative, padding) per class ranked.
    Unchecked: for an AUC kind, every batch of every trial must hold a
    positive and a negative of each class ranked (``_missing_class``).
    """
    n_batches, n_trials, rows = labels.shape
    if kind == "cross_entropy":
        valid = labels >= 0
        n, hit = valid.sum(axis=2), labels[..., None] == np.arange(n_classes)
        div = np.where(valid, n[..., None], np.inf)[..., None]
        return [_Targets(hit[b], n[b], div[b]) for b in range(n_batches)]
    classes = [1] if kind == "auc_binary" else list(range(n_classes))
    key = (labels != np.array(classes)[:, None, None, None]).astype(np.int8)
    key += labels < 0
    order = np.argsort(key, axis=3, kind="stable")
    n_pos, n_neg = (key == 0).sum(axis=3), (key == 1).sum(axis=3)  # (classes, batches, T)
    # Positives lead each trial's order and negatives follow, both in batch
    # order; both are padded with their pad slot, and offset by trial.
    pos_slot, neg_slot = np.arange(n_pos.max()), np.arange(n_neg.max())
    pos_at = np.where(pos_slot < n_pos[..., None], order[..., : pos_slot.size], rows)
    starts = np.arange(0, order.size, rows).reshape(*order.shape[:3], 1)  # each row's flat start
    neg_at = order.take(starts + np.minimum(n_pos[..., None] + neg_slot, rows - 1))
    neg_at = np.where(neg_slot < n_neg[..., None], neg_at, rows + 1)
    offset = (np.arange(n_trials) * (rows + 2))[:, None]
    pos_at += offset
    neg_at += offset
    return _class_pairs(classes, pos_at, n_pos, neg_at, n_neg)


def _run_targets(kind: str, counts: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                 rows: int) -> list[_Targets]:
    """``_targets`` of an AUC kind, bit for bit, for batches whose labels run
    in class order, derived by arithmetic with no sort: batch b of trial t
    holds ``counts[c, b, t]`` rows of class c from row ``starts[c, b, t]``
    on, ``sizes[b, t]`` real rows in all, padded to ``rows``. Unchecked:
    every class must have rows in every batch.
    """
    classes = [1] if kind == "auc_binary" else list(range(counts.shape[0]))
    n_pos, starts = counts[classes], starts[classes][..., None]
    n_neg = sizes - n_pos
    offset = (np.arange(sizes.shape[1]) * (rows + 2))[:, None]
    # Class c's positives are its run; its negatives are the real rows
    # before the run and after it, in batch order.
    slot = np.arange(n_pos.max())
    pos_at = starts + slot
    np.copyto(pos_at, rows, where=slot >= n_pos[..., None])
    pos_at += offset
    slot = np.arange(n_neg.max())
    neg_at = n_pos[..., None] * (slot >= starts)
    neg_at += slot
    np.copyto(neg_at, rows + 1, where=slot >= n_neg[..., None])
    neg_at += offset
    return _class_pairs(classes, pos_at, n_pos, neg_at, n_neg)


def _class_pairs(classes, pos_at, n_pos, neg_at, n_neg) -> list[_Targets]:
    """The AUC ``_Targets`` of each batch b: per class ``classes[k]``, the
    flat positions ``pos_at[k, b]`` and ``neg_at[k, b]`` (T, width), cut to
    the widest trial's counts ``n_pos[k, b]`` and ``n_neg[k, b]`` (T,)."""
    w_pos, w_neg = n_pos.max(axis=2).tolist(), n_neg.max(axis=2).tolist()
    return [_Targets(pairs=tuple(
        _ClassPairs(c, pos_at[k, b, :, : w_pos[k][b]], n_pos[k, b],
                    neg_at[k, b, :, : w_neg[k][b]], n_neg[k, b])
        for k, c in enumerate(classes)))
        for b in range(n_pos.shape[1])]


def _stacked_cross_entropy(z, targets, want_grad):
    # A padding row's gradient, p - 0 with p in [0, 1] or NaN, is divided by
    # +inf, which gives (p / n) * 0 bit for bit, +0.0 or the same NaN. The
    # value keeps its negation apart: s / -n would flip the sign of a NaN.
    zmax = _last_axis_max(z)
    lse = zmax + np.log(_last_axis_sum(np.exp(z - zmax)))
    log_probs = z - lse
    value = -(np.add.reduce(np.where(targets.hit, log_probs, 0.0), (1, 2)) / targets.n)
    grad = None
    if want_grad:
        grad = np.exp(log_probs)
        grad -= targets.hit
        grad /= targets.div
    return value, grad


def _stacked_auc(kind, z, targets, params, want_grad, want_value):
    probs = _softmax_rows(z)
    # Each ranked class's scores, padded as ``_ClassPairs`` reads them, one
    # (T, P + 2) plane per class. The classes ranked, [1] or all of them,
    # run to the last.
    n_trials, rows, n_classes = z.shape
    first = targets.pairs[0].c
    padded = np.empty((n_classes - first, n_trials, rows + 2))
    padded[:, :, :rows] = probs.transpose(2, 0, 1)[first:]
    padded[:, :, rows:] = (-np.inf, np.inf)
    sums = (_pair_sums(plane, pairs, params, want_value, want_grad)
            for plane, pairs in zip(padded, targets.pairs))

    if kind == "auc_binary":
        mean, g_p, n_pairs = next(sums)
        value = 1.0 - mean if want_value else None
        if not want_grad:
            return value, None
        g_p /= n_pairs[:, None]
        jac = probs[:, :, 0] * probs[:, :, 1]
        return value, np.stack([-g_p * jac, g_p * jac], axis=2)

    term_sum = np.zeros(n_trials)
    g_s = np.zeros_like(probs) if want_grad else None
    for c, (mean, g, n_pairs) in enumerate(sums):
        if want_value:
            term_sum += mean
        if want_grad:
            g /= (n_pairs * n_classes)[:, None]
            g_s[:, :, c] = g
    value = 1.0 - term_sum / n_classes if want_value else None
    if not want_grad:
        return value, None
    inner = _last_axis_sum(g_s * probs)
    return value, probs * (g_s - inner)


def _pair_sums(padded, pairs: _ClassPairs, params, want_value, want_grad):
    """Class-c positives against every other real row, for each trial of
    ``padded`` (T, P + 2), the class's scores padded as ``_ClassPairs``
    reads them: the mean surrogate term over each trial's pairs (None
    without the value), the signed slope sums per row, (T, P) (minus the
    row sum for a positive, the column sum for a negative, 0 for padding;
    None without the gradient) and the pair counts.

    Positives and negatives are gathered, in batch order, into (T, w_pos)
    and (T, w_neg) blocks whose padding holds -inf and +inf: a padded pair
    then has difference -inf, whose term and slope are exactly 0. The
    trials are visited in order of negative count, by a stable argsort of
    it. The positions carry their trial's offset, so the slope sums go
    back to their own trials by position, and the means are put back in
    trial order. The (T, w_pos, w_neg) pair grid is walked in blocks of
    ``PAIR_BLOCK`` pairs, whole trials or rows of one, computed in place in
    a workspace of two buffers of a block's size, three for value and
    slope.

    Slope sums round as NumPy rounds them for one lone batch. NumPy sums a
    contiguous row pairwise, in an order set by its length, so each row is
    summed over exactly its trial's n_neg columns, per run of trials with
    equal n_neg (one run per distinct count, in this order), into its slice
    of the row sums. Columns add row by row, so a block's first row takes
    the running column sums before its rows are added, unless the block
    starts its trials' rows: the sums before it would be 0.0, and a slope,
    never -0.0, plus 0.0 is itself. But a one-column batch NumPy sums
    pairwise, so such a trial's column is summed at the end from its row
    sums, each of which is its one slope. A trial's term sum adds one row
    sum per block, and its blocks hold the same pairs whichever trials
    share them.
    """
    n_trials, rows = padded.shape[0], padded.shape[1] - 2
    order = pairs.n_neg.argsort(kind="stable")
    pos_at, neg_at = pairs.pos_at.take(order, axis=0), pairs.neg_at.take(order, axis=0)
    pos = padded.take(pos_at)[:, :, None]
    neg = padded.take(neg_at)[:, None, :]
    w_pos, w_neg = pos.shape[1], neg.shape[2]
    block_rows = min(w_pos, max(1, PAIR_BLOCK // w_neg))
    block_trials = min(n_trials, max(1, PAIR_BLOCK // (w_pos * w_neg)))
    work = np.empty((2 + (want_value and want_grad), block_trials * block_rows * w_neg))
    term_sums = np.zeros(n_trials)
    row_sums = np.empty((n_trials, w_pos))
    col_sums = np.empty((n_trials, w_neg))
    # Runs of trials with equal n_neg, in ascending n_neg: (lo, hi, n_neg) each.
    negs = pairs.n_neg[order].tolist()
    cuts = [t for t in range(1, n_trials) if negs[t] != negs[t - 1]]
    runs = [(lo, hi, negs[lo]) for lo, hi in zip([0, *cuts], [*cuts, n_trials])]
    for t0, r0 in itertools.product(range(0, n_trials, block_trials),
                                    range(0, w_pos, block_rows)):
        ts, rs = slice(t0, t0 + block_trials), slice(r0, r0 + block_rows)
        shape = (min(block_trials, n_trials - t0), min(block_rows, w_pos - r0), w_neg)
        buf = work[:, : shape[0] * shape[1] * w_neg].reshape(-1, *shape)
        # The slope overwrites the difference, and so does d when no slope
        # is asked for; the terms take the last buffer.
        diff = buf[0]
        np.copyto(diff, pos[ts, rs])
        diff -= neg[ts]
        terms, slope = _block_logistic(
            diff, diff, buf[1] if want_grad else diff, buf[-1], params, want_value, want_grad,
        )
        if want_value:
            term_sums[ts] += terms.reshape(shape[0], -1).sum(axis=1)
        if not want_grad:
            continue
        for lo, hi, width in runs:
            lo, hi = max(lo, t0), min(hi, t0 + shape[0])
            if lo < hi:
                np.add.reduce(slope[lo - t0:hi - t0, :, :width], axis=2,
                              out=row_sums[lo:hi, rs])
        if r0:
            slope[:, 0] += col_sums[ts]
        np.add.reduce(slope, axis=1, out=col_sums[ts])

    n_pairs = pairs.n_pos * pairs.n_neg
    mean = None
    if want_value:
        mean = np.empty(n_trials)
        mean[order] = term_sums
        mean /= n_pairs
    if not want_grad:
        return mean, None, n_pairs
    if negs[0] == 1:  # trials with one negative lead the order
        lone = pairs.n_pos[order[:negs.count(1)]].tolist()
        for r in set(lone):
            group = [t for t, p in enumerate(lone) if p == r]
            col_sums[group, 0] = row_sums[group, :r].sum(axis=1)
    g = np.zeros((n_trials, rows + 2))
    g.put(pos_at, -row_sums)
    g.put(neg_at, col_sums)
    return mean, g[:, :rows], n_pairs


LossFn = Callable[[PredictionBatch, bool], LossOutput]


def loss_function(kind: str, params: SurrogateParams = DEFAULT_SURROGATE) -> LossFn:
    """Bind a loss kind and surrogate parameters into a (batch, want_grad) callable."""
    _check_params(params)
    if kind == "cross_entropy":
        return lambda batch, want_grad=False: cross_entropy_loss(batch, want_grad)
    if kind == "auc_binary":
        return lambda batch, want_grad=False: binary_auc_loss(batch, params, want_grad)
    if kind == "auc_multiclass":
        return lambda batch, want_grad=False: multiclass_auc_loss(batch, params, want_grad)
    raise ValueError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")


@dataclass(frozen=True)
class GradCheckReport:
    """Result of comparing an analytic gradient against central differences."""

    max_rel_error: float
    worst_entry: tuple[int, int]
    h: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error <= self.tol


def finite_diff_check(
    loss_fn: LossFn,
    batch: PredictionBatch,
    h: float = 1e-5,
    tol: float = 1e-4,
) -> GradCheckReport:
    """Verify a loss gradient entry by entry against central differences.

    Each logit is perturbed by +-h and (f(x+h) - f(x-h)) / (2h) is compared
    with the analytic derivative; the relative error denominator is
    max(|analytic|, |numeric|, 1e-8).
    """
    _check(_real, None, "h", h)
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h}")
    _check(_real, 0, "tol", tol)
    analytic = loss_fn(batch, True).grad
    numeric = np.zeros_like(analytic)
    base = batch.scores
    for i in range(base.shape[0]):
        for j in range(base.shape[1]):
            plus = base.copy()
            plus[i, j] += h
            minus = base.copy()
            minus[i, j] -= h
            f_plus = loss_fn(PredictionBatch(plus, batch.labels), False).value
            f_minus = loss_fn(PredictionBatch(minus, batch.labels), False).value
            numeric[i, j] = (f_plus - f_minus) / (2.0 * h)
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-8)
    rel = np.abs(analytic - numeric) / denom
    worst_flat = int(np.argmax(rel))
    worst = np.unravel_index(worst_flat, rel.shape)
    return GradCheckReport(
        max_rel_error=float(rel[worst]),
        worst_entry=(int(worst[0]), int(worst[1])),
        h=h,
        tol=tol,
    )
