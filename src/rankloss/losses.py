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

All arithmetic is float64. With the default L = 1 the AUROC loss value lies
in (0, 1) for finite inputs, although extreme k times gap products can round
the value to exactly 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import EmptyClassError, FieldError
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
        for name in ("k", "L", "x0"):
            v = getattr(self, name)
            if not np.isfinite(v):
                raise FieldError(name, f"{name} must be finite, got {v}")
        if self.k <= 0:
            raise FieldError("k", f"growth rate k must be positive, got {self.k}")
        if self.L <= 0:
            raise FieldError("L", f"supremum L must be positive, got {self.L}")


DEFAULT_SURROGATE = SurrogateParams()


@dataclass(frozen=True)
class LossOutput:
    """Scalar loss value plus, when requested, d(value)/d(logit) per entry.

    Not validated: finite logits can still overflow to an infinite value
    (cross entropy of logits about 1e308 apart), and ``train`` checks every
    value it steps on.
    """

    value: float
    grad: Optional[np.ndarray] = None


def _stable_sigmoid(t: np.ndarray) -> np.ndarray:
    # Branch on sign so exp never sees a large positive argument; large
    # negative arguments underflow to 0 on the correct side.
    out = np.empty_like(t)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _sigmoid_slope(t: np.ndarray) -> np.ndarray:
    # d/dt sigmoid(t) = u / (1 + u)^2 with u = exp(-|t|); symmetric in t and
    # free of the cancellation that f (L - f) suffers once f saturates.
    u = np.exp(-np.abs(t))
    return u / (1.0 + u) ** 2


def logistic(x, params: SurrogateParams = DEFAULT_SURROGATE):
    """Evaluate L / (1 + exp(-k (x - x0))) for a scalar or array ``x``.

    Evaluated in a branch-on-sign form so arguments with |k (x - x0)| in the
    hundreds neither overflow nor land on the wrong branch.
    """
    scalar = np.ndim(x) == 0
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise ValueError("logistic requires finite input")
    t = params.k * (arr - params.x0)
    out = params.L * _stable_sigmoid(np.atleast_1d(t))
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
    shifted = arr - arr.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    probs = e / e.sum(axis=1, keepdims=True)
    return probs[0] if one_dim else probs


def _require_logits(batch: PredictionBatch, name: str) -> None:
    if batch.probabilities:
        raise ValueError(
            f"{name} applies softmax internally and expects raw logits, "
            "got a probability-flagged batch"
        )


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
    if batch.n_classes != 2:
        raise ValueError(f"binary_auc_loss requires 2 classes, got {batch.n_classes}")
    _require_logits(batch, "binary_auc_loss")
    pos_mask = batch.labels == 1
    n_pos = int(pos_mask.sum())
    n_neg = batch.n_samples - n_pos
    if n_pos == 0:
        raise EmptyClassError("batch has no positive (label 1) samples", class_index=1)
    if n_neg == 0:
        raise EmptyClassError("batch has no negative (label 0) samples", class_index=0)

    probs = softmax(batch.scores)
    p = probs[:, -1]
    diffs = p[pos_mask][:, None] - p[~pos_mask][None, :]
    t = params.k * (diffs - params.x0)
    value = 1.0 - float((params.L * _stable_sigmoid(t)).mean())

    grad = None
    if want_grad:
        slope = params.k * params.L * _sigmoid_slope(t)
        n_pairs = n_pos * n_neg
        # d(value)/d(p_i): positives collect -slope over their pairs,
        # negatives +slope.
        g_p = np.empty(batch.n_samples)
        g_p[pos_mask] = -slope.sum(axis=1) / n_pairs
        g_p[~pos_mask] = slope.sum(axis=0) / n_pairs
        # p = softmax(z)[:, 1], so dp/dz1 = p0 p1 and dp/dz0 = -p0 p1.
        jac = probs[:, 0] * probs[:, 1]
        grad = np.column_stack([-g_p * jac, g_p * jac])
    return LossOutput(value=value, grad=grad)


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
    _require_logits(batch, "multiclass_auc_loss")
    missing = np.flatnonzero(batch.class_counts() == 0)
    if missing.size:
        c = int(missing[0])
        raise EmptyClassError(f"batch has no samples of class {c}", class_index=c)

    probs = softmax(batch.scores)
    n_terms = batch.n_classes
    term_sum = 0.0
    g_s = np.zeros_like(probs) if want_grad else None
    for c in range(n_terms):
        col = probs[:, c]
        pos_mask = batch.labels == c
        diffs = col[pos_mask][:, None] - col[~pos_mask][None, :]
        t = params.k * (diffs - params.x0)
        term_sum += float((params.L * _stable_sigmoid(t)).mean())
        if want_grad:
            slope = params.k * params.L * _sigmoid_slope(t)
            denom = diffs.size * n_terms
            g_s[pos_mask, c] += -slope.sum(axis=1) / denom
            g_s[~pos_mask, c] += slope.sum(axis=0) / denom
    value = 1.0 - term_sum / n_terms

    grad = None
    if want_grad:
        # Chain through the row-wise softmax Jacobian:
        # dz_ij = s_ij (g_ij - sum_c g_ic s_ic).
        inner = (g_s * probs).sum(axis=1, keepdims=True)
        grad = probs * (g_s - inner)
    return LossOutput(value=value, grad=grad)


def cross_entropy_loss(batch: PredictionBatch, want_grad: bool = False) -> LossOutput:
    """Mean negative log softmax probability of the true class.

    Log-sum-exp stabilized; the gradient is (softmax - one_hot) / n.
    """
    _require_logits(batch, "cross_entropy_loss")
    z = batch.scores
    n = batch.n_samples
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    log_probs = z - lse
    value = -float(log_probs[np.arange(n), batch.labels].mean())

    grad = None
    if want_grad:
        grad = np.exp(log_probs)
        grad[np.arange(n), batch.labels] -= 1.0
        grad /= n
    return LossOutput(value=value, grad=grad)


LossFn = Callable[[PredictionBatch, bool], LossOutput]


def loss_function(kind: str, params: SurrogateParams = DEFAULT_SURROGATE) -> LossFn:
    """Bind a loss kind and surrogate parameters into a (batch, want_grad) callable."""
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
    if not 1e-7 <= h <= 1e-3:
        raise ValueError(f"step h must lie in [1e-7, 1e-3], got {h}")
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
