"""In-memory spans around calls into rankloss's modules.

The program is not instrumented. Instead, while a traced call runs, the
benchmark swaps each imported name for a wrapper in the namespace where its
caller looks it up (modules bind imported names at import), and restores the
originals afterwards. A span records name, start, end, parent and the index
of the traced call it belongs to.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    call: int = 0
    tag: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    call: int = -1
    _stack: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str, tag=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, time.perf_counter(), parent=parent, call=self.call, tag=tag)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = time.perf_counter()

    def wrap(self, name: str, fn, tag=None):
        def traced(*args, **kwargs):
            with self.span(name, tag(args, kwargs) if tag else None):
                return fn(*args, **kwargs)
        return traced

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent >= 0:
                own[s.parent] -= s.duration
        return own


@contextmanager
def patched(patches):
    """Apply ``(module, name, wrapper_factory)`` patches, skipping absent names."""
    saved = []
    try:
        for module, name, make in patches:
            if hasattr(module, name):
                original = getattr(module, name)
                saved.append((module, name, original))
                setattr(module, name, make(original))
        yield
    finally:
        for module, name, original in reversed(saved):
            setattr(module, name, original)


def loss_pairs(batch, kind: str) -> int:
    """Positive-negative pairs one pairwise-loss call scores (0 for cross entropy)."""
    labels = batch.labels
    n = labels.size
    if kind == "auc_binary":
        n_pos = int((labels == 1).sum())
        return n_pos * (n - n_pos)
    if kind == "auc_multiclass":
        total = 0
        for c in range(batch.n_classes):
            k = int((labels == c).sum())
            if 0 < k < n:
                total += k * (n - k)
        return total
    return 0


def program_patches(tracer: Tracer, modules, captured: dict):
    """The patch list for one traced call.

    ``modules`` maps the short module names to the imported rankloss
    modules. ``captured`` keeps the largest batch each loss kind saw, so its
    peak memory can be measured after the run.
    """
    cli, harness, network = modules["cli"], modules["harness"], modules["network"]
    span = tracer.wrap

    def named(name, tag=None):
        return lambda fn: span(name, fn, tag)

    def traced_loss_function(original):
        def loss_function(kind, *args, **kwargs):
            fn = original(kind, *args, **kwargs)

            def loss(batch, want_grad=False):
                phase = "grad" if want_grad else "value"
                pairs = loss_pairs(batch, kind) if want_grad else 0
                with tracer.span(f"losses.{kind}.{phase}", pairs):
                    out = fn(batch, want_grad)
                if want_grad:
                    best = captured.get(kind)
                    if best is None or batch.n_samples > best.n_samples:
                        captured[kind] = batch
                return out
            return loss
        return loss_function

    def train_tag(args, kwargs):
        config = args[5] if len(args) > 5 else kwargs["config"]
        return (config.loss_kind, config.batch_size)

    return [
        (cli, "generate_synthetic", named("data.generate_synthetic")),
        (cli, "load_csv", named("data.load_csv")),
        (cli, "run_experiment", named("harness.run_experiment")),
        (cli, "PredictionBatch", named("metrics.PredictionBatch")),
        (cli, "auroc_multiclass_ovr", named("metrics.auroc")),
        (cli, "auroc_rank_scores", named("metrics.auroc")),
        (harness, "run_trial", named("harness.run_trial")),
        (harness, "monte_carlo_split", named("harness.monte_carlo_split")),
        (harness, "train", named("network.train", train_tag)),
        (harness, "PredictionBatch", named("metrics.PredictionBatch")),
        (harness, "auroc_rank", named("metrics.auroc")),
        (harness, "auroc_multiclass_ovr", named("metrics.auroc")),
        (network, "loss_function", traced_loss_function),
        (network, "stratified_batches", named("network.stratified_batches")),
        (network, "PredictionBatch", named("metrics.PredictionBatch")),
        (network, "auroc_rank", named("metrics.auroc")),
        (network, "auroc_multiclass_ovr", named("metrics.auroc")),
    ]
