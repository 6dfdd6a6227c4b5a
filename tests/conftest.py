import numpy as np
import pytest

from rankloss import (DEFAULT_SURROGATE, MLPStack, PredictionBatch, TrainConfig, init_model,
                      train_stacked)
from rankloss.losses import _kernel, _targets


def pairwise_oracle(pos, neg):
    """Pure-Python enumeration of the AUROC probability definition."""
    total = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                total += 1.0
            elif p == q:
                total += 0.5
    return total / (len(pos) * len(neg))


def random_pos_neg(seed, max_n=300, ties=False):
    """A random positive/negative score split; ties=True quantizes heavily."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, max_n + 1))
    n_pos = int(rng.integers(1, n))
    scores = rng.normal(size=n)
    if ties:
        scores = np.round(scores, 1)
    return scores[:n_pos], scores[n_pos:]


def random_batch(seed, n, n_classes, scale=1.0):
    """Random logits batch guaranteed to contain every class."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n)
    while len(np.unique(labels)) < n_classes:
        labels = rng.integers(0, n_classes, size=n)
    return PredictionBatch(scale * rng.normal(size=(n, n_classes)), labels)


def kernel_loss(kind, logits, labels, params=DEFAULT_SURROGATE, want_grad=False, *,
                want_value=True):
    """The loss kernel on a stack of padded batches, as the training engine
    calls it: logits (T, P, C) and labels (T, P), -1 marking padding."""
    targets = _targets(kind, np.asarray(labels)[None], logits.shape[2])[0]
    return _kernel(kind, logits, targets, params, want_grad, want_value=want_value)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def step_threads(monkeypatch):
    """The ident of the thread that ran each ``network._step`` call, in
    call order; ``len(set(...))`` counts the threads a run stepped on."""
    import threading

    import rankloss.network

    idents = []
    original = rankloss.network._step

    def spy(*args, **kwargs):
        idents.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(rankloss.network, "_step", spy)
    return idents


def train_on_threads(kind, labels, features, threads, *, epochs=2, batch_size=None,
                     params=DEFAULT_SURROGATE, model=None):
    """``train_stacked`` of one (dim, 4, classes) net per trial on
    ``features`` (T, n, dim) and ``labels`` (T, n), scored on the same
    rows, at ``threads``: the checkpoints' bytes and each trial's error as
    text."""
    n_trials, n, dim = features.shape
    if model is None:
        n_classes = 2 if kind == "auc_binary" else int(labels.max()) + 1
        model = MLPStack.of([init_model((dim, 4, n_classes), t) for t in range(n_trials)])
    configs = [TrainConfig(batch_size=batch_size or n, loss_kind=kind, max_epochs=epochs,
                           surrogate=params, seed=t) for t in range(n_trials)]
    run = train_stacked(model, features, labels, features, labels, configs, threads=threads)
    return run.model.params.tobytes(), [None if e is None else f"{type(e).__name__}: {e}"
                                        for e in run.errors]


def blobs(rng, labels, dim=3):
    """Features (T, n, dim) around each row's label."""
    return labels[..., None] + rng.normal(size=(*labels.shape, dim))
