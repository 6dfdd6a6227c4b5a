"""Exact (non-differentiable) AUROC computation.

AUROC is computed here as a probability: the chance that a uniformly chosen
positive sample scores higher than a uniformly chosen negative one, with
tied scores counting one half. Two routes produce the same number:

* The definition, ``auroc_pairwise``, enumerates every (positive,
  negative) pair and applies the unit step to the score difference.
  O(n_pos * n_neg); this is the slow ground truth the rank route is held to.
* The rank route, the rank-sum identity with midranks for ties in
  O(n log n), is one kernel, ``_ranked_auroc``, over rows of independent
  splits. ``auroc_rank_scores`` runs it on one row; ``auroc_rank``,
  ``auroc_multiclass_ovr`` and the engine's scoring
  (``network.evaluate_auroc_stacked``) run it through ``_Ranking``, which
  also decides when the AUROC is undefined.

Both routes reduce to the same exact pair-win count (ties contribute 0.5,
and all intermediate sums are exact in float64 for any realistic n), so they
agree bit for bit, not just within tolerance.

Scores may be logits or probabilities; the metric depends only on their
ordering, so no normalization is applied or checked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import EmptyClassError, _bool, _check, _check_integers

__all__ = [
    "PredictionBatch",
    "AurocValue",
    "MacroAuroc",
    "auroc_pairwise",
    "auroc_rank_scores",
    "auroc_rank",
    "auroc_multiclass_ovr",
]


def _class_labels(labels, n_classes: int, shape: tuple, name: str = "labels") -> np.ndarray:
    """``labels`` as int64 class indices of the given ``shape``, each in
    [0, ``n_classes``): the one label rule of every public entry that takes
    class labels. Integer dtypes pass, and so do floats that hold whole
    numbers. Other floats, bool, str and object arrays, another shape and
    values out of range raise ``ValueError``."""
    y = np.asarray(labels)
    if y.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {y.shape}")
    kind = y.dtype.kind
    if kind not in "iuf" or kind == "f" and not np.array_equal(np.floor(y), y):
        got = "floats that are not whole numbers" if kind == "f" else f"dtype {y.dtype}"
        raise ValueError(f"{name} must be integer class indices, got {got}")
    if y.size and (y.min() < 0 or y.max() >= n_classes):
        raise ValueError(f"{name} must lie in [0, {n_classes}), got range "
                         f"[{y.min()}, {y.max()}]")
    return y.astype(np.int64, copy=False)


@dataclass(frozen=True)
class PredictionBatch:
    """Per-sample scores and true class labels, the unit metrics and losses consume.

    ``scores`` is an (n_samples, n_classes) float matrix with one column per
    class, holding raw logits unless ``probabilities`` is set. ``labels``
    holds class indices in [0, n_classes), checked by ``_class_labels``.
    Arrays are validated at construction and must not be mutated afterwards.
    """

    scores: np.ndarray
    labels: np.ndarray
    probabilities: bool = False

    def __post_init__(self):
        _check(_bool, None, "probabilities", self.probabilities)
        scores = np.asarray(self.scores, dtype=np.float64)
        if scores.ndim != 2:
            raise ValueError(f"scores must be 2-D (n_samples, n_classes), got shape {scores.shape}")
        if scores.shape[1] < 2:
            raise ValueError(f"need at least 2 score columns, got {scores.shape[1]}")
        if scores.shape[0] == 0:
            raise ValueError("batch must contain at least one sample")
        if not np.all(np.isfinite(scores)):
            raise ValueError("scores must be finite (no NaN/inf)")
        labels = _class_labels(self.labels, scores.shape[1], scores.shape[:1])
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.scores.shape[0]

    @property
    def n_classes(self) -> int:
        return self.scores.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class AurocValue:
    """An AUROC in [0, 1] plus the positive/negative counts that produced it."""

    value: float
    n_pos: int
    n_neg: int

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"AUROC must lie in [0, 1], got {self.value}")
        if self.n_pos < 1 or self.n_neg < 1:
            raise ValueError("AUROC requires at least one positive and one negative")


@dataclass(frozen=True)
class MacroAuroc:
    """Macro (unweighted) mean of per-class one-vs-rest AUROCs.

    ``per_class[c]`` is None when class c was skipped in lenient mode.
    """

    value: float
    per_class: tuple[Optional[AurocValue], ...]


def _as_score_vector(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=np.float64).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite (no NaN/inf)")
    return arr


def _auc_from_win_sum(win_sum: float, n_pos: int, n_neg: int) -> float:
    # Swapping the positive/negative roles swaps win_sum with loss_sum, and
    # the two AUROCs must be exact float complements. A plain win_sum /
    # n_pairs division cannot promise that (1 - fl(s/m) may differ from
    # fl((m-s)/m) by one ulp), so both sides are derived from one division:
    # big = 1 - q rounds once, and small = 1 - big is exact because big lies
    # in [0.5, 1], making the pair closed under 1 - x.
    # Scalars or equal-shape arrays, one AUROC per entry.
    n_pairs = np.multiply(n_pos, n_neg, dtype=np.float64)
    loss_sum = n_pairs - win_sum  # exact: both are half-integer-valued floats
    q = np.minimum(win_sum, loss_sum) / n_pairs
    big = 1.0 - q
    small = 1.0 - big
    return np.where(win_sum <= loss_sum, small, big)


def _no_pairs(n_pos: int, n_neg: int, positive_class: int = 1) -> Optional[EmptyClassError]:
    """The error an AUROC of ``n_pos`` positives against ``n_neg`` negatives
    raises, or None when both sides have samples. ``class_index`` names the
    empty class of a binary problem: ``positive_class`` or the other one."""
    if n_pos == 0:
        return EmptyClassError("no positive samples: AUROC is undefined", positive_class)
    if n_neg == 0:
        return EmptyClassError("no negative samples: AUROC is undefined", 1 - positive_class)
    return None


def _ovr_undefined(classes, n_pos, n_neg) -> Optional[EmptyClassError]:
    """The error strict ``auroc_multiclass_ovr`` raises on ranking
    ``classes`` with these positive and negative counts: for the first class
    with no samples or with all of them. None when every class has
    positives and negatives."""
    for c, p, q in zip(classes, n_pos, n_neg):
        if p == 0 or q == 0:
            which = f"class {c} has no samples" if p == 0 else f"every sample is of class {c}"
            return EmptyClassError(f"{which}: one-vs-rest AUROC is undefined", class_index=c)
    return None


def auroc_pairwise(pos_scores, neg_scores) -> AurocValue:
    """AUROC by full pair enumeration: the mean over all pairs of the unit step
    of pos - neg, which is 1/2 at a tie.

    The definitional route. Quadratic in the class sizes; kept as the oracle
    the rank-based route is verified against.
    """
    pos = _as_score_vector(pos_scores, "pos_scores")
    neg = _as_score_vector(neg_scores, "neg_scores")
    error = _no_pairs(pos.size, neg.size)
    if error is not None:
        raise error
    diffs = pos[:, None] - neg[None, :]
    win_sum = float(np.heaviside(diffs, 0.5).sum())
    value = float(_auc_from_win_sum(win_sum, pos.size, neg.size))
    return AurocValue(value=value, n_pos=pos.size, n_neg=neg.size)


def _sorted_midranks(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row of finite values ``x`` (along the last axis) in its stable
    sort order: the flat positions ``at`` of its entries in ``x``, and their
    1-based ranks, tied values sharing the mean of their ranks. Put back at
    ``at``, the ranks are scipy.stats.rankdata's "average" method, computed
    without importing scipy.stats, which takes over a second.

    A run of ties at sorted positions a..b gets (a + b) / 2 + 1, a
    half-integer, so sums of ranks are exact in any order. When no row has
    a tie, each rank is its position plus one.
    """
    n = x.shape[-1]
    at = np.argsort(x, axis=-1, kind="stable")
    at += np.arange(0, x.size, n).reshape(*x.shape[:-1], 1)  # each row's flat start
    ordered = x.take(at)
    position = np.arange(n)
    starts = np.ones(x.shape, dtype=bool)
    np.not_equal(ordered[..., 1:], ordered[..., :-1], out=starts[..., 1:])
    if starts.all():
        return at, np.broadcast_to(position + 1.0, x.shape)
    ends = np.ones(x.shape, dtype=bool)
    ends[..., :-1] = starts[..., 1:]
    first = np.maximum.accumulate(np.where(starts, position, 0), axis=-1)
    last = np.minimum.accumulate(np.where(ends, position, position[-1])[..., ::-1], axis=-1)
    return at, (first + last[..., ::-1]) / 2.0 + 1.0


def auroc_rank_scores(pos_scores, neg_scores) -> AurocValue:
    """AUROC via the rank-sum identity with midranks for ties.

    Equivalent to ``auroc_pairwise`` on the same inputs (midranks make tied
    pairs count 0.5), at O(n log n) cost.
    """
    pos = _as_score_vector(pos_scores, "pos_scores")
    neg = _as_score_vector(neg_scores, "neg_scores")
    error = _no_pairs(pos.size, neg.size)
    if error is not None:
        raise error
    x = np.concatenate([pos, neg])[None]
    flags = np.arange(x.shape[1])[None] < pos.size
    value = float(_ranked_auroc(x, flags, pos.size, neg.size)[0])
    return AurocValue(value=value, n_pos=pos.size, n_neg=neg.size)


def _ranked_auroc(x, pos, n_pos, n_neg) -> np.ndarray:
    """The AUROC of each row of finite scores ``x``, ranking its entries
    flagged in ``pos`` against the rest, unchecked: row r needs ``n_pos[r]``
    >= 1 positives and ``n_neg[r]`` >= 1 negatives. Midranks are
    half-integers whose sums are exact in any order, so each row's value is
    the one-row route's bit for bit. They are summed in sorted order."""
    at, ranks = _sorted_midranks(x)
    win_sum = np.where(pos.take(at), ranks, 0.0).sum(axis=1) - n_pos * (n_pos + 1) / 2.0
    return _auc_from_win_sum(win_sum, n_pos, n_neg)


class _Ranking:
    """Labels (T, n) and the classes to rank, read once: positive flags,
    counts, and ``errors[t]``, the ``EmptyClassError`` trial t raises or
    None. With one class ranked that is the binary AUROC's (``_no_pairs``),
    else strict ``auroc_multiclass_ovr``'s. Called on (T, n, C) scores, it
    gives (T, K) AUROCs: (t, k) ranks trial t's samples of ``classes[k]``
    against its others by that class's column.
    """

    def __init__(self, labels: np.ndarray, classes: Sequence[int]):
        k = [int(c) for c in classes]
        # Consecutive classes are a slice, so scoring them takes a view of
        # the score columns, not a copy.
        self.columns = slice(k[0], k[-1] + 1) if k == list(range(k[0], k[-1] + 1)) else k
        self.positives = labels[:, None, :] == np.array(k)[:, None]
        self.n_pos = self.positives.sum(axis=2)
        self.n_neg = labels.shape[1] - self.n_pos
        undefined = ((self.n_pos == 0) | (self.n_neg == 0)).any(axis=1)
        self.errors = [
            (_no_pairs(p[0], q[0], k[0]) if len(k) == 1 else _ovr_undefined(k, p, q))
            if bad else None
            for bad, p, q in zip(undefined, self.n_pos.tolist(), self.n_neg.tolist())
        ]

    def __call__(self, scores: np.ndarray, keep=slice(None)) -> np.ndarray:
        """The (T', K) AUROCs of ``scores``, the (T', n, C) scores of the
        trials ``keep`` selects (a slice or a boolean mask). A kept trial
        must have finite scores and no error."""
        x = np.swapaxes(scores[:, :, self.columns], 1, 2)
        positives = self.positives[keep]
        n = x.shape[2]
        values = _ranked_auroc(x.reshape(-1, n), positives.reshape(-1, n),
                               self.n_pos[keep].ravel(), self.n_neg[keep].ravel())
        return values.reshape(positives.shape[:2])


def _rank_batch(batch: PredictionBatch, classes: Sequence[int]) -> list[AurocValue]:
    """The AUROC of each of ``classes`` against the rest of ``batch``, from
    a ``_Ranking`` of a stack of one; raises its error if one is undefined."""
    ranking = _Ranking(batch.labels[None], classes)
    if ranking.errors[0] is not None:
        raise ranking.errors[0]
    values = ranking(batch.scores[None])[0]
    return [AurocValue(value=float(v), n_pos=p, n_neg=q)
            for v, p, q in zip(values, ranking.n_pos[0].tolist(), ranking.n_neg[0].tolist())]


def auroc_rank(batch: PredictionBatch, positive_class: int) -> AurocValue:
    """Binary AUROC of a two-class batch, scoring by the positive class column."""
    if batch.n_classes != 2:
        raise ValueError(f"auroc_rank requires a binary batch, got {batch.n_classes} classes")
    _check_integers(positive_class=positive_class)
    if positive_class not in (0, 1):
        raise ValueError(f"positive_class must be 0 or 1, got {positive_class!r}")
    return _rank_batch(batch, [positive_class])[0]


def auroc_multiclass_ovr(batch: PredictionBatch, lenient: bool = False) -> MacroAuroc:
    """One-vs-rest AUROC per class, macro-averaged.

    For each class c the class-c score column ranks class-c samples
    (positives) against everything else (negatives). The macro value is the
    unweighted mean over classes.

    In strict mode (default) a class with no samples, or with every sample,
    raises ``EmptyClassError``. In lenient mode such classes are skipped: their
    ``per_class`` entry is None and the mean is renormalized over the
    classes that remain.
    """
    _check(_bool, None, "lenient", lenient)
    classes = range(batch.n_classes)
    if lenient:
        counts = batch.class_counts()
        classes = [c for c in classes if 0 < counts[c] < batch.n_samples]
        if not classes:
            raise EmptyClassError("no class has both positives and negatives", class_index=None)
    per_class: list[Optional[AurocValue]] = [None] * batch.n_classes
    results = _rank_batch(batch, classes)
    for c, result in zip(classes, results):
        per_class[c] = result
    macro = float(np.mean([r.value for r in results]))
    return MacroAuroc(value=macro, per_class=tuple(per_class))
