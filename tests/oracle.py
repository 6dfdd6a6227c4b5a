"""The per-trial trainer and trial runner, kept as the tests' reference.

``train`` trains one model with plain per-batch loss calls, and
``run_trial`` runs one Monte Carlo trial arm by arm through it. The
package trains every trial in its trial-batched engine
(``rankloss.network.train_stacked``); the tests hold the engine to these
functions bit for bit, error for error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rankloss import (
    Dataset,
    ExperimentConfig,
    MLPModel,
    PredictionBatch,
    RanklossError,
    TrainConfig,
    auroc_multiclass_ovr,
    auroc_rank,
    forward,
    init_model,
    loss_function,
    monte_carlo_split,
    softmax,
    stratified_batches,
    trial_seeds,
)
from rankloss.harness import _trial_error
from rankloss.network import _check_features, _LabelGroups, _non_finite


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


def _backprop(model: MLPModel, inputs, pre_acts, grad_logits):
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
