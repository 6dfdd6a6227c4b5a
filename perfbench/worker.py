"""Runs one workload in a fresh process and writes what it measured as JSON.

run.py starts this file with BLAS threads pinned and reads its output file;
it is not meant to be run by hand. The worker calls ``rankloss.cli.main``
in process, one ``compare`` call at a time, until the time budget is spent
(a closed loop with one caller). With ``--trace 1`` it alternates untraced
and traced calls, so the tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

from tracer import Tracer, patched, program_patches
from workloads import program_config

# Rankloss is imported in main(), once the source directory is known.
rl = None

REFERENCE_TOLERANCE = 1e-12
CALIBRATION_LOOP = 100_000
CALIBRATION_REPEATS = 40
SWEEP_BATCHES = (8, 64, 512, 2048)
SWEEP_CLASS_COUNTS = (143, 71, 125)
SWEEP_METRICS = [f"losses.auc_multiclass.grad_us.b{size}" for size in SWEEP_BATCHES] + [
    f"losses.auc_multiclass.peak_temp_mb.b{SWEEP_BATCHES[-1]}"]


def measured_call(spec: dict, walls: list, outputs: list, errors: list, tracer=None) -> None:
    """One ``compare`` call. Its wall time and per-arm trial AUROCs are appended
    on success; a non-zero exit or an exception is appended to ``errors``."""
    root = tracer.span("cli.main") if tracer else contextlib.nullcontext()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            with root:
                code = rl.cli.main(spec["argv"])
            wall = time.perf_counter() - start
        if code != 0:
            errors.append(f"exit code {code}")
            return
        manifest = json.loads(Path(spec["manifest"]).read_text(encoding="utf-8"))
    except Exception as exc:  # a traceback is a failed call, not a crashed benchmark
        errors.append(f"{type(exc).__name__}: {exc}")
        return
    walls.append(wall)
    outputs.append([arm["aurocs"] for arm in manifest["arms"]])


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        vendor = "unknown"
    import scipy
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": vendor,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "blas_threads_pinned_by": "OPENBLAS_NUM_THREADS, OMP_NUM_THREADS, MKL_NUM_THREADS",
        "jobs": 1,
    }


def _ovr_pairwise(probs: np.ndarray, labels: np.ndarray) -> float:
    if probs.shape[1] == 2:
        return rl.auroc_pairwise(probs[labels == 1, 1], probs[labels == 0, 1]).value
    values = [rl.auroc_pairwise(probs[labels == c, c], probs[labels != c, c]).value
              for c in range(probs.shape[1])]
    return float(np.mean(values))


def reference_trial(config: dict, trial: int) -> list[float]:
    """Per-arm test AUROCs of one trial, rebuilt from the per-trial ``train``
    path and scored by the pairwise oracle."""
    synthetic, experiment = program_config(rl, config)
    data = rl.generate_synthetic(synthetic)
    split = experiment.split
    tr, va, te = rl.monte_carlo_split(data.n_samples, data.labels, split, trial)
    seeds = rl.trial_seeds(split.base_seed, trial)
    dims = (data.n_features, *experiment.hidden_dims, data.n_classes)
    x, y = data.features, data.labels
    result = []
    for arm in experiment.arms:
        train_config = rl.TrainConfig(
            batch_size=arm.batch_size, loss_kind=arm.loss_kind, max_epochs=arm.max_epochs,
            learning_rate=arm.learning_rate, surrogate=arm.surrogate, seed=seeds.shuffle)
        model, _ = rl.train(rl.init_model(dims, seeds.init), x[tr], y[tr], x[va], y[va],
                            train_config)
        result.append(_ovr_pairwise(rl.softmax(rl.forward(model, x[te])), y[te]))
    return result


def check_reference(spec: dict, outputs: list) -> list[str]:
    if not outputs:
        return ["no call completed"]
    expected = reference_trial(spec["config"], 0)
    got = [arm[0] for arm in outputs[0]]
    if any(abs(a - b) > REFERENCE_TOLERANCE for a, b in zip(got, expected)):
        return [f"trial 0 AUROCs {got} != reference train path {expected}"]
    return []


# ---------------------------------------------------------------- per-layer metrics

def _per_call(spans, name_test, n_calls):
    """Spans per traced call; an int when every call made the same number."""
    counts = [0] * n_calls
    for s in spans:
        if name_test(s.name):
            counts[s.call] += 1
    return counts[0] if len(set(counts)) == 1 else sum(counts) / n_calls


def _temp_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def kernel_sweep(seed: int) -> dict:
    """Pairwise loss+grad on fixed seeded 3-class logits at growing batch sizes."""
    rng = np.random.default_rng([seed, 8])
    loss = rl.loss_function("auc_multiclass")
    shares = np.asarray(SWEEP_CLASS_COUNTS) / sum(SWEEP_CLASS_COUNTS)
    metrics = {}
    for size in SWEEP_BATCHES:
        labels = rng.choice(len(shares), size=size, p=shares)
        labels[: len(shares)] = np.arange(len(shares))
        batch = rl.PredictionBatch(rng.normal(size=(size, len(shares))), labels)
        times = []
        stop = time.perf_counter() + 0.25
        while len(times) < 3 or time.perf_counter() < stop:
            start = time.perf_counter()
            loss(batch, True)
            times.append(time.perf_counter() - start)
        metrics[f"losses.auc_multiclass.grad_us.b{size}"] = statistics.median(times) * 1e6
    metrics[SWEEP_METRICS[-1]] = _temp_peak_mb(lambda: loss(batch, True))
    return metrics


def layer_metrics(spec, tracer: Tracer, traced: list, untraced: list, captured: dict) -> dict:
    spans = tracer.spans
    own = tracer.self_times()
    n = len(traced)
    m = {}

    def of(name):
        return [s for s in spans if s.name == name]

    def mean(items, scale):
        return sum(s.duration for s in items) / len(items) * scale if items else 0.0

    roots = of("cli.main")
    m["cli.compare_self_ms"] = sum(own[i] for i, s in enumerate(spans) if s.parent < 0) / n * 1e3
    m["data.generate_ms"] = mean(of("data.generate_synthetic"), 1e3)

    trial_ms = [s.duration * 1e3 for s in of("harness.run_trial")]
    m["harness.trials"] = _per_call(spans, "harness.run_trial".__eq__, n)
    m["harness.trial_ms.p50"], m["harness.trial_ms.p90"] = (
        np.percentile(trial_ms, [50, 90]).tolist() if trial_ms else (0.0, 0.0))
    m["harness.split_us"] = mean(of("harness.monte_carlo_split"), 1e6)

    def is_grad(name):
        return name.startswith("losses.") and name.endswith(".grad")

    grads = [s for s in spans if is_grad(s.name)]
    trains = [i for i, s in enumerate(spans) if s.name == "network.train"]
    m["network.steps"] = _per_call(spans, is_grad, n)
    m["network.epochs"] = _per_call(spans, "network.stratified_batches".__eq__, n)
    for j, arm in enumerate(spec["config"]["arms"]):
        key = (arm["loss_kind"], arm["batch_size"])
        m[f"network.train_ms.arm{j}"] = mean([spans[i] for i in trains if spans[i].tag == key], 1e3)
    m["network.step_self_us"] = sum(own[i] for i in trains) / len(grads) * 1e6 if grads else 0.0
    m["network.sampler_us"] = mean(of("network.stratified_batches"), 1e6)

    for kind in ("cross_entropy", "auc_multiclass", "auc_binary"):
        m[f"losses.{kind}.grad_us"] = mean(of(f"losses.{kind}.grad"), 1e6)
    pair_spans = [s for s in grads if s.tag]
    pairs = sum(s.tag for s in pair_spans)
    m["losses.pairs"] = pairs // n if pairs % n == 0 else pairs / n
    m["losses.ns_per_pair"] = sum(s.duration for s in pair_spans) / pairs * 1e9 if pairs else 0.0
    loss_fns = {kind: rl.loss_function(kind) for kind in captured}
    m["losses.peak_temp_mb"] = max(
        (_temp_peak_mb(lambda: loss_fns[k](b, True)) for k, b in captured.items()), default=0.0)

    m["metrics.batches"] = _per_call(spans, "metrics.PredictionBatch".__eq__, n)
    m["metrics.batch_us"] = mean(of("metrics.PredictionBatch"), 1e6)
    m["metrics.auroc_calls"] = _per_call(spans, "metrics.auroc".__eq__, n)
    m["metrics.auroc_us"] = mean(of("metrics.auroc"), 1e6)

    m["trace.overhead_s"] = statistics.median(traced) - statistics.median(untraced)
    m["trace.unattributed_share"] = 1.0 - sum(s.duration for s in roots) / sum(traced)
    return m


# ---------------------------------------------------------------- runs

def calibration_s(array: np.ndarray) -> float:
    """Wall time of a fixed computation that runs no rankloss code: a Python
    loop and a few numpy passes, like the two halves of a training step."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOP):
        total += i * i
    for _ in range(CALIBRATION_REPEATS):
        np.exp(array).sum()
    return time.perf_counter() - start


def run_untraced(spec: dict, seconds: float) -> dict:
    """Timed calls, each with the calibration time measured around it: the
    mean of the calibration runs just before and just after the call."""
    array = np.linspace(-1.0, 1.0, 100_000)
    walls, calibration, outputs, errors = [], [], [], []
    before = calibration_s(array)
    deadline = time.perf_counter() + seconds
    while True:
        done = len(walls)
        measured_call(spec, walls, outputs, errors)
        after = calibration_s(array)
        if len(walls) > done:
            calibration.append((before + after) / 2)
        before = after
        if time.perf_counter() >= deadline:
            break
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux
    return {"walls": walls, "calibration": calibration, "outputs": outputs, "errors": errors,
            "peak_rss_mb": rss, "problems": check_reference(spec, outputs)}


def run_traced(spec: dict, seconds: float, seed: int) -> dict:
    modules = {"cli": rl.cli, "harness": rl.harness, "network": rl.network}
    tracer = Tracer()
    captured = {}
    untraced, traced, outputs, errors = [], [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        measured_call(spec, untraced, outputs, errors)
        tracer.call += 1
        with patched(program_patches(tracer, modules, captured)):
            measured_call(spec, traced, outputs, errors, tracer)
        if errors or time.perf_counter() >= deadline:
            break
    result = {"walls": untraced, "outputs": outputs, "errors": errors,
              "problems": check_reference(spec, outputs)}
    if not errors:
        layers = layer_metrics(spec, tracer, traced, untraced, captured)
        sweep = spec["workload"] == "large_batch_auc"
        layers.update(kernel_sweep(seed) if sweep else dict.fromkeys(SWEEP_METRICS, 0.0))
        result["layers"] = layers
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    global rl
    sys.path.insert(0, spec["src"])
    import rankloss
    import rankloss.cli
    rl = rankloss

    if args.trace:
        result = run_traced(spec, args.seconds, args.seed)
    else:
        result = run_untraced(spec, args.seconds)
    result["env"] = environment()
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
