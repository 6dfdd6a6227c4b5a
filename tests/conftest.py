import numpy as np
import pytest

from rankloss import DEFAULT_SURROGATE, PredictionBatch
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
