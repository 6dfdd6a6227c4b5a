"""The per-batch losses, per-trial trainer and trial runner, kept as the
tests' reference.

``binary_auc_loss``, ``multiclass_auc_loss`` and ``cross_entropy_loss``
are the textbook formulas: a full pair grid per class, summed row by row and
column by column. ``train`` trains one model with them, one batch at a time,
and ``run_trial`` runs one Monte Carlo trial arm by arm through it. Like the
engine, ``train`` runs its layers on every batch padded to the widest
batch's row count, as BLAS rounding can depend on it; ``padded=False``
gives the plain textbook run.
``evaluate_auroc`` scores a model by the pairwise AUROC definition
(``auroc_pairwise``), not by the package's rank-sum kernel. The
package computes every loss with its blocked kernel
(``rankloss.losses._kernel``) and trains every trial in its
trial-batched engine (``rankloss.network.train_stacked``); the tests hold
both to these functions bit for bit, error for error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rankloss import (
    DEFAULT_SURROGATE,
    LOSS_KINDS,
    Dataset,
    EmptyClassError,
    ExperimentConfig,
    LossOutput,
    MLPModel,
    PredictionBatch,
    RanklossError,
    SurrogateParams,
    TrainConfig,
    auroc_pairwise,
    forward,
    init_model,
    monte_carlo_split,
    softmax,
    stratified_batches,
    trial_seeds,
)
from rankloss.harness import _trial_error
from rankloss.losses import LossFn, _missing_class, _require_logits
from rankloss.network import _check_features, _non_finite


def _sigmoid(t: np.ndarray, want_slope: bool = False):
    """The logistic sigmoid of ``t`` and, when asked, its slope.

    With u = exp(-|t|) and d = 1 + u, the sigmoid is 1/d for t >= 0 and u/d
    below, so exp never sees a large positive argument and large |t|
    underflows to the correct side. The slope u / d**2 is symmetric in t and
    free of the cancellation that f (1 - f) suffers once f saturates. Works
    in place: three temporaries of t's shape, and ``t`` is left intact.
    """
    u = np.abs(t)
    np.negative(u, out=u)
    np.exp(u, out=u)
    d = u + 1.0
    # The numerator is 1 where t >= 0 and u below; u <= 1, so a maximum
    # against the sign mask picks it without a masked (slow) ufunc loop.
    sig = np.maximum(u, t >= 0)
    sig /= d
    if not want_slope:
        return sig, None
    np.multiply(d, d, out=d)
    return sig, np.divide(u, d, out=u)


def _pair_logistic(diffs: np.ndarray, params: SurrogateParams, want_slope: bool):
    """L f(x) over an array of pair score differences x and, when asked, its
    derivative k L f'(x). Overwrites ``diffs``."""
    t = diffs
    if params.x0:  # x - 0.0 is x bit for bit, so the default skips a pass
        t -= params.x0
    t *= params.k
    terms, slope = _sigmoid(t, want_slope)
    if params.L != 1.0:  # x * 1.0 is x bit for bit too
        terms *= params.L
    if want_slope:
        slope *= params.k * params.L
    return terms, slope


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
    error = _missing_class("auc_binary", batch.class_counts())
    if error is not None:
        raise error
    pos_mask = batch.labels == 1
    n_pos = int(pos_mask.sum())
    n_neg = batch.n_samples - n_pos

    probs = softmax(batch.scores)
    p = probs[:, -1]
    diffs = p[pos_mask][:, None] - p[~pos_mask][None, :]
    terms, slope = _pair_logistic(diffs, params, want_grad)
    value = 1.0 - float(terms.mean())

    grad = None
    if want_grad:
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
    error = _missing_class("auc_multiclass", batch.class_counts())
    if error is not None:
        raise error

    probs = softmax(batch.scores)
    n_terms = batch.n_classes
    term_sum = 0.0
    g_s = np.zeros_like(probs) if want_grad else None
    for c in range(n_terms):
        col = probs[:, c]
        pos_mask = batch.labels == c
        diffs = col[pos_mask][:, None] - col[~pos_mask][None, :]
        terms, slope = _pair_logistic(diffs, params, want_grad)
        term_sum += float(terms.mean())
        if want_grad:
            denom = terms.size * n_terms
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
class TrainHistory:
    """Per-epoch record of a training run."""

    train_loss: tuple[float, ...]
    val_auroc: tuple[float, ...]
    best_epoch: int
    initial_loss: float

    @property
    def best_val_auroc(self) -> float:
        return self.val_auroc[self.best_epoch]


def _forward_cached(model: MLPModel, x: np.ndarray):
    # Returns logits plus per-layer inputs and pre-activations for backprop.
    # Each layer is [a, 1] @ [W; b], the products the engine computes.
    inputs = []
    pre_acts = []
    a = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        a = np.column_stack([a, np.ones(len(a))])
        inputs.append(a)
        z = a @ np.vstack([w, b])
        pre_acts.append(z)
        a = np.maximum(z, 0.0) if i < last else z
    return a, inputs, pre_acts


def _backprop(model: MLPModel, inputs, pre_acts, grad_logits):
    grads_w = [None] * len(model.weights)
    grads_b = [None] * len(model.biases)
    delta = grad_logits
    for layer in range(len(model.weights) - 1, -1, -1):
        # The ones column makes the product's last row the bias gradient.
        grads = inputs[layer].T @ delta
        grads_w[layer], grads_b[layer] = grads[:-1], grads[-1]
        if layer > 0:
            delta = (delta @ model.weights[layer].T) * (pre_acts[layer - 1] > 0.0)
    return grads_w, grads_b


def _require_finite(values, what: str, epoch: int | None = None, batch: int | None = None):
    if not np.isfinite(values).all():
        raise _non_finite(what, epoch, batch)


def evaluate_auroc(
    model: MLPModel, features: np.ndarray, labels: np.ndarray, epoch: int | None = None
) -> float:
    """Exact AUROC of the model's softmax scores on one partition, by the
    pairwise definition.

    Binary AUROC of the last class for 2-class models, macro one-vs-rest
    otherwise. Non-finite logits raise ``NonFiniteError``; ``epoch`` only
    labels that error. Labels that leave the AUROC undefined raise the
    ``EmptyClassError`` that ``auroc_rank`` of class 1 or strict
    ``auroc_multiclass_ovr`` raises. The values come from ``auroc_pairwise``,
    which counts pair wins by enumeration, not by the engine's midranks.
    """
    logits = forward(model, features)
    _require_finite(logits, "evaluation logits", epoch)
    probs = softmax(logits)
    if model.n_classes == 2:
        return auroc_pairwise(probs[labels == 1, 1], probs[labels == 0, 1]).value
    for c, m in enumerate(np.bincount(labels, minlength=model.n_classes)):
        if m == 0 or m == labels.size:
            which = f"class {c} has no samples" if m == 0 else f"every sample is of class {c}"
            raise EmptyClassError(f"{which}: one-vs-rest AUROC is undefined", class_index=c)
    values = [auroc_pairwise(probs[labels == c, c], probs[labels != c, c]).value
              for c in range(model.n_classes)]
    return float(np.mean(values))


@np.errstate(over="ignore", invalid="ignore")
def train(
    model: MLPModel,
    train_x: np.ndarray,
    train_y: np.ndarray,
    val_x: np.ndarray,
    val_y: np.ndarray,
    config: TrainConfig,
    *,
    padded: bool = True,
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

    With ``padded`` each batch runs the layers on sum_c ceil(m_c / n_batches)
    rows, for the training set's class counts m_c: its own rows, then copies
    of its first row. The loss sees the real rows, and the padding rows get
    a gradient of 0.
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

    counts = np.unique(train_y, return_counts=True)[1]
    for epoch in range(config.max_epochs):
        batches = stratified_batches(train_y, config.batch_size, config.seed, epoch)
        width = int(np.sum(-(-counts // len(batches))))
        epoch_losses = []
        for batch_no, batch_idx in enumerate(batches):
            size = batch_idx.size
            rows = np.concatenate([batch_idx, np.full(width - size if padded else 0, batch_idx[0])])
            logits, inputs, pre_acts = _forward_cached(work, train_x[rows])
            _require_finite(logits[:size], "logits", epoch, batch_no)
            out = loss_fn(PredictionBatch(logits[:size], train_y[batch_idx]), True)
            _require_finite(out.value, "loss", epoch, batch_no)
            grad = np.zeros_like(logits)
            grad[:size] = out.grad
            grads_w, grads_b = _backprop(work, inputs, pre_acts, grad)
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


def run_trial(dataset: Dataset, config: ExperimentConfig, trial: int) -> list[float]:
    """Run one trial: split once, train every arm on it, return test AUROCs.

    All arms share the split and the model initialization seed, so arm
    differences are down to the training configuration alone. Errors are
    re-raised as ``TrialError`` carrying the trial index, and naming the arm
    when one was training or being evaluated.
    """
    arm_name = None
    try:
        train_idx, val_idx, test_idx = monte_carlo_split(
            dataset.n_samples, dataset.labels, config.split, trial
        )
        seeds = trial_seeds(config.split.base_seed, trial)
        dims = (dataset.n_features, *config.hidden_dims, dataset.n_classes)
        model0 = init_model(dims, seeds.init)
        results = []
        for arm in config.arms:
            arm_name = arm.name
            trained, _ = train(
                model0,
                dataset.features[train_idx],
                dataset.labels[train_idx],
                dataset.features[val_idx],
                dataset.labels[val_idx],
                arm.train_config(seeds.shuffle),
            )
            results.append(
                evaluate_auroc(trained, dataset.features[test_idx], dataset.labels[test_idx])
            )
        return results
    except RanklossError as exc:
        raise _trial_error(trial, exc, arm_name) from exc
