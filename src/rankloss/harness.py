"""Monte Carlo evaluation: repeated random splits, paired arm training,
confidence intervals, and a two-sample t-test.

Each trial draws one 60/20/20 (by default) train/validation/test split,
trains every arm on that split from a shared model initialization, and
records each arm's test AUROC. All randomness derives from (base_seed,
trial), so the aggregate report is byte-identical regardless of worker
count.

An arm's trials train together in the trial-batched engine
(``train_stacked``), each bit for bit as it would alone, and the report is
what running the trials one by one would give, errors included. Workers
take contiguous blocks of trials, and each block's engine calls may split
an arm's trials across the CPUs the workers leave free.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass
from functools import lru_cache, partial
from typing import Optional

import numpy as np

from .data import Dataset
from .errors import (DegenerateVarianceError, FieldError, RanklossError, TooSmallError, TrialError,
                     _POSITIVE, _bool, _check, _check_fields, _check_integers, _integer, _real,
                     _sequence_field)
from .losses import SurrogateParams
from .network import (MLPStack, TrainConfig, _label_classes, _run_parts, evaluate_auroc_stacked,
                      init_model, train_stacked)

__all__ = [
    "SplitSpec",
    "ArmConfig",
    "ExperimentConfig",
    "TrialSeeds",
    "ArmResult",
    "Comparison",
    "AggregateReport",
    "trial_seeds",
    "monte_carlo_split",
    "trial_blocks",
    "run_experiment",
    "mean_ci",
    "t_test",
]

Z_95 = 1.96

STACKED_VALUES = 1 << 22
"""Most values (samples x widest layer, per trial) one engine call stacks;
more trials run in further calls, so memory stays bounded on large data."""


@dataclass(frozen=True)
class SplitSpec:
    """Monte Carlo splitting parameters: ratios, stratification, repeat count, seed."""

    ratios: tuple[float, float, float] = (0.6, 0.2, 0.2)
    stratified: bool = True
    n_repeats: int = 100
    base_seed: int = 0

    def __post_init__(self):
        ratios = _sequence_field(self, "ratios")
        if len(ratios) != 3:
            raise FieldError("ratios", f"ratios must be (train, val, test), got {ratios}")
        _check(_real, _POSITIVE, "ratios", *ratios, field="ratios")
        ratios = tuple(map(float, ratios))
        if abs(sum(ratios) - 1.0) > 1e-9:
            raise FieldError("ratios", f"ratios must sum to 1, got {sum(ratios)}")
        _check_fields(self, _bool, stratified=None)
        _check_fields(self, _integer, n_repeats=1, base_seed=0)
        object.__setattr__(self, "ratios", ratios)
        object.__setattr__(self, "stratified", bool(self.stratified))


@dataclass(frozen=True)
class ArmConfig:
    """One experiment arm: a named loss/batch-size/optimizer setting.

    Defaults and value rules are ``TrainConfig``'s: the arm is checked by
    building the training config it stands for.
    """

    name: str
    loss_kind: str
    batch_size: int
    learning_rate: float = TrainConfig.learning_rate
    max_epochs: int = TrainConfig.max_epochs
    surrogate: SurrogateParams = TrainConfig.surrogate

    def __post_init__(self):
        if not isinstance(self.name, str):
            raise FieldError("name", f"name must be a str, got {self.name!r}")
        if not self.name:
            raise FieldError("name", "arm name must be non-empty")
        self.train_config(seed=0)

    def train_config(self, seed: int) -> TrainConfig:
        """The arm's training hyperparameters with batch shuffling seeded by ``seed``."""
        return TrainConfig(
            batch_size=self.batch_size,
            loss_kind=self.loss_kind,
            max_epochs=self.max_epochs,
            learning_rate=self.learning_rate,
            surrogate=self.surrogate,
            seed=seed,
        )


@dataclass(frozen=True)
class ExperimentConfig:
    """Arms, split protocol, and the shared model shape for one experiment."""

    arms: tuple[ArmConfig, ...]
    split: SplitSpec
    hidden_dims: tuple[int, ...] = (16,)

    def __post_init__(self):
        arms = _sequence_field(self, "arms")
        if not arms:
            raise FieldError("arms", "at least one arm is required")
        for i, arm in enumerate(arms):
            if not isinstance(arm, ArmConfig):
                raise FieldError(f"arms/{i}", f"arms/{i} must be an ArmConfig, got {arm!r}")
        names = [a.name for a in arms]
        if len(set(names)) != len(names):
            raise FieldError("arms", f"arm names must be unique, got {names}")
        if not isinstance(self.split, SplitSpec):
            raise FieldError("split", f"split must be a SplitSpec, got {self.split!r}")
        hidden = _sequence_field(self, "hidden_dims")
        if len(hidden) > 2:
            raise FieldError("hidden_dims", f"at most 2 hidden layers are supported, got {hidden}")
        if not all(_integer(d) and d >= 1 for d in hidden):
            raise FieldError("hidden_dims", f"hidden dims must be positive integers, got {hidden}")
        object.__setattr__(self, "arms", arms)
        object.__setattr__(self, "hidden_dims", tuple(map(int, hidden)))

    def check_classes(self, n_classes: int) -> None:
        """Reject arms that cannot train on a dataset with ``n_classes`` classes.

        Raises ``FieldError`` whose field is ``arms/<index>/<field>``.
        """
        for i, arm in enumerate(self.arms):
            if arm.loss_kind == "auc_binary" and n_classes != 2:
                raise FieldError(
                    f"arms/{i}/loss_kind",
                    f"arm {arm.name!r} uses the binary ranking loss but the dataset "
                    f"has {n_classes} classes",
                )
            if arm.batch_size < n_classes:
                raise FieldError(
                    f"arms/{i}/batch_size",
                    f"arm {arm.name!r}: batch_size {arm.batch_size} cannot hold one "
                    f"sample of each of {n_classes} classes",
                )


@dataclass(frozen=True)
class TrialSeeds:
    """The three per-trial random streams, derived from (base_seed, trial)."""

    split: int
    init: int
    shuffle: int


def trial_seeds(base_seed: int, trial: int) -> TrialSeeds:
    """Trial ``trial``'s seeds; both arguments must be nonnegative integers
    (``ValueError``)."""
    _check_integers(0, base_seed=base_seed, trial=trial)
    state = np.random.SeedSequence([int(base_seed), int(trial)]).generate_state(3)
    return TrialSeeds(split=int(state[0]), init=int(state[1]), shuffle=int(state[2]))


def monte_carlo_split(
    n: int,
    labels,
    spec: SplitSpec,
    trial: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One random (train, val, test) partition of range(n), seeded by (base_seed, trial).

    Sizes follow floor(ratio * n) for train and validation with the
    remainder as test; stratified mode applies that rule inside each class
    and merges. ``n`` must be an integer (``ValueError``). ``TooSmallError``
    is raised if any partition would receive no samples (of some class, when
    stratified), or for fewer than 5 samples.
    """
    _check_integers(n=n)
    if n < 5:
        raise TooSmallError(f"need at least 5 samples to split, got {n}")
    rng = np.random.default_rng(trial_seeds(spec.base_seed, trial).split)
    r_train, r_val, _ = spec.ratios

    def cut(indices: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        m = indices.size
        n_train = int(math.floor(r_train * m))
        n_val = int(math.floor(r_val * m))
        chunks = indices[:n_train], indices[n_train : n_train + n_val], indices[n_train + n_val :]
        for name, chunk in zip(("train", "validation", "test"), chunks):
            if chunk.size == 0:
                raise TooSmallError(
                    f"{what}the {name} partition would receive no samples ({m} to split)"
                )
        return chunks

    if not spec.stratified:
        train_idx, val_idx, test_idx = cut(rng.permutation(n), "")
    else:
        y = np.asarray(labels)
        if y.shape != (n,):
            raise ValueError(f"labels must have shape ({n},), got {y.shape}")
        parts: list[list[np.ndarray]] = [[], [], []]
        for c, members in zip(*_label_classes(y)):
            chunks = cut(rng.permutation(members), f"class {c}: ")
            for part, chunk in zip(parts, chunks):
                part.append(chunk)
        train_idx = np.concatenate(parts[0])
        val_idx = np.concatenate(parts[1])
        test_idx = np.concatenate(parts[2])
    return np.sort(train_idx), np.sort(val_idx), np.sort(test_idx)


def _trial_error(trial: int, exc: RanklossError, arm_name: str | None = None) -> TrialError:
    where = f"trial {trial}" if arm_name is None else f"trial {trial}, arm {arm_name}"
    return TrialError(f"{where}: {type(exc).__name__}: {exc}", trial=trial)


def _run_block(
    dataset: Dataset, config: ExperimentConfig, trials: range, threads: int = 1
) -> np.ndarray:
    """Test AUROCs (len(trials), n_arms) of a block of trials, each arm's
    trials trained together by the engine.

    A trial splits once, and every arm trains on that split from the
    trial's shared initialization, so arm differences are down to the
    training configuration alone. Raises, as a ``TrialError`` naming the
    trial and the arm, the error that running the trials one by one in
    order would raise first: the smallest failing trial, and within it the
    split or else the first failing arm in config order, its training
    before its test scoring.

    Each engine call gets ``threads``, so a large-batch pairwise-loss arm
    trains its trials in up to that many parts at once, each a stack of its
    own, all but the first in child processes; no child outlives the call,
    so none outlives the block.
    """
    splits, split_error = [], None
    for trial in trials:
        try:
            splits.append(monte_carlo_split(dataset.n_samples, dataset.labels, config.split, trial))
        except RanklossError as exc:
            split_error = (trial, exc)
            break
    x, y = dataset.features, dataset.labels
    dims = (dataset.n_features, *config.hidden_dims, dataset.n_classes)
    per_call = max(1, STACKED_VALUES // (dataset.n_samples * max(dims)))
    results = np.empty((len(splits), len(config.arms)))
    for lo in range(0, len(splits), per_call):
        block = trials[lo : lo + per_call]
        train_idx, val_idx, test_idx = (np.stack(p) for p in zip(*splits[lo : lo + per_call]))
        seeds = [trial_seeds(config.split.base_seed, t) for t in block]
        start = MLPStack.of([init_model(dims, s.init) for s in seeds])
        first_error = [None] * len(block)  # per trial: (arm name, error), in arm order
        for j, arm in enumerate(config.arms):
            run = train_stacked(start, x[train_idx], y[train_idx], x[val_idx], y[val_idx],
                                [arm.train_config(s.shuffle) for s in seeds], threads=threads)
            aurocs, test_errors = evaluate_auroc_stacked(run.model, x[test_idx], y[test_idx])
            results[lo : lo + len(block), j] = aurocs
            for i, error in enumerate(run.errors):
                error = error if error is not None else test_errors[i]
                if first_error[i] is None and error is not None:
                    first_error[i] = (arm.name, error)
        for trial, failed in zip(block, first_error):
            if failed is not None:
                arm_name, error = failed
                raise _trial_error(trial, error, arm_name) from error
    if split_error is not None:
        raise _trial_error(*split_error) from split_error[1]
    return results


def _lost_block(trials: range, exitcode: int):
    error = RanklossError(f"the worker process of trials {trials[0]} to {trials[-1]} exited "
                          f"with code {exitcode} before sending its results")
    raise _trial_error(trials[0], error) from None


def trial_blocks(n_repeats: int, jobs: int, n_cpus: int) -> list[range]:
    """Contiguous blocks of trial indices, one per worker.

    There are min(jobs, n_repeats, n_cpus) workers, at least one; block
    sizes differ by at most one. ``n_repeats`` and ``jobs`` must be
    integers of at least 1 and ``n_cpus`` a nonnegative one (``ValueError``).
    """
    _check_integers(1, n_repeats=n_repeats, jobs=jobs)
    _check_integers(0, n_cpus=n_cpus)
    workers = max(1, min(jobs, n_repeats, n_cpus))
    bounds = [n_repeats * i // workers for i in range(workers + 1)]
    return [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def mean_ci(values) -> tuple[float, float, float]:
    """Mean and normal-approximation 95% CI: mean +- 1.96 * std(ddof=1) / sqrt(n)."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1 or arr.size < 2:
        raise ValueError(f"need at least 2 values for a CI, got {arr.size}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("values must be finite")
    mean = float(arr.mean())
    half = Z_95 * float(arr.std(ddof=1)) / math.sqrt(arr.size)
    return mean, mean - half, mean + half


def t_test(a, b) -> tuple[float, float]:
    """Two-sample, two-sided, equal-variance Student's t-test.

    Returns (t, p) with p from the t CDF at n_a + n_b - 2 degrees of
    freedom. If the pooled variance is zero: equal means raise
    ``DegenerateVarianceError`` (the statistic is 0/0); unequal means return
    (+-inf, 0.0), the limit of a vanishing-variance difference.
    """
    xa = np.asarray(a, dtype=np.float64)
    xb = np.asarray(b, dtype=np.float64)
    if xa.size < 2 or xb.size < 2:
        raise ValueError("each sample needs at least 2 values")
    if not (np.all(np.isfinite(xa)) and np.all(np.isfinite(xb))):
        raise ValueError("samples must be finite")
    n_a, n_b = xa.size, xb.size
    df = n_a + n_b - 2
    pooled = ((n_a - 1) * xa.var(ddof=1) + (n_b - 1) * xb.var(ddof=1)) / df
    diff = float(xa.mean() - xb.mean())
    if pooled == 0.0:
        if diff == 0.0:
            raise DegenerateVarianceError(
                "both samples are constant and equal; t is undefined"
            )
        return (math.inf if diff > 0 else -math.inf), 0.0
    t = diff / math.sqrt(pooled * (1.0 / n_a + 1.0 / n_b))
    return t, _t_two_sided_p(df, t)


def _t_two_sided_p(df: int, t: float) -> float:
    """P(|T| >= |t|) for Student's T with integer ``df`` >= 1 degrees of freedom.

    That is the regularized incomplete beta I_x(df/2, 1/2) at
    x = df / (df + t^2), summed by its continued fraction (Numerical
    Recipes, section 6.4) on the side of the branch point where it converges
    fast. Relative error is ~1e-13 where p > 1e-300. ``t`` = 0 gives 1.0, and
    infinite ``t``, or one whose square overflows, gives 0.0.
    """
    t2 = t * t
    if t2 == 0.0:
        return 1.0
    if math.isinf(t2):
        return 0.0
    a, b = df / 2.0, 0.5
    # y is computed, not taken as 1 - x, which keeps few of its digits as x nears 1.
    x, y = df / (df + t2), t2 / (df + t2)
    # x^a y^b / B(a, b). 1 / B(a, 1/2) comes from C(2n, n) / 4^n, not from
    # lgamma differences, which lose digits in proportion to df.
    n = df // 2
    inv_beta = n * _central_binomial(n) if df % 2 == 0 else 1.0 / (math.pi * _central_binomial(n))
    front = math.exp(-a * math.log1p(t2 / df)) * math.sqrt(y) * inv_beta
    terms = 100 + math.isqrt(df)  # at least twice the ~55 steps seen up to df = 2e6
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x, y, terms) / a
    return 1.0 - front * _beta_cf(b, a, y, x, terms) / b


@lru_cache(maxsize=8)
def _central_binomial(n: int) -> float:
    """C(2n, n) / 4^n, which is Gamma(n + 1/2) / (sqrt(pi) Gamma(n + 1)).

    Integer division rounds correctly.
    """
    return math.comb(2 * n, n) / 4**n


def _beta_cf(a: float, b: float, x: float, y: float, terms: int) -> float:
    """The continued fraction of I_x(a, b), that is 1 / (1 + d1 / (1 + d2 / ...))
    with Numerical Recipes' d_j, where y = 1 - x. Its even part is summed
    by the modified Lentz method for at most ``terms`` steps.

    The even part adds each odd step d_{2m+1}, near -1 when x is near 1 and a
    is large, to 1. For b <= 1 that sum is taken in a form whose terms are
    all nonnegative, so it cancels nothing; a large df needs this.
    """
    tiny = 1e-300
    odd = -(a + b) * x / (a + 1.0)
    f = (1.0 - b + (a + b) * y) / (a + 1.0) if b <= 1.0 else 1.0 + odd
    c, d = f, 0.0
    for m in range(1, terms):
        even = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        alpha = -odd * even
        s = (a + 2 * m) * (a + 2 * m + 1)
        odd = -(a + m) * (a + b + m) * x / s
        if b <= 1.0:
            one_plus_odd = (a * (2 * m + 1 - b) + m * (3 * m + 2 - b)
                            + (a + m) * (a + b + m) * y) / s
        else:
            one_plus_odd = 1.0 + odd
        beta = one_plus_odd + even
        d = beta + alpha * d
        d = 1.0 / (d if abs(d) >= tiny else tiny)
        c = beta + alpha / c
        c = c if abs(c) >= tiny else tiny
        delta = c * d
        f *= delta
        if abs(delta - 1.0) <= 1e-15:
            break
    return 1.0 / f


@dataclass(frozen=True)
class ArmResult:
    """Per-arm trial outcomes and their summary statistics."""

    name: str
    aurocs: tuple[float, ...]
    mean: float
    std: Optional[float]
    ci: Optional[tuple[float, float]]


@dataclass(frozen=True)
class Comparison:
    """t-test of one arm against the reference arm; None fields when undefined."""

    arm_a: str
    arm_b: str
    t: Optional[float]
    p: Optional[float]


@dataclass(frozen=True)
class AggregateReport:
    """Everything the experiment produced, ordered by trial index."""

    arms: tuple[ArmResult, ...]
    comparisons: tuple[Comparison, ...]
    n_repeats: int
    trial_seeds: tuple[TrialSeeds, ...]

    def to_dict(self) -> dict:
        """The report as the manifest's keys: tuples stay tuples, which JSON
        writes as lists, and each seed entry leads with its trial index.
        JSON has no infinity, so the t of constant, unequal arms is None."""
        report = asdict(self)
        report["trial_seeds"] = [{"trial": i, **s} for i, s in enumerate(report["trial_seeds"])]
        for comparison in report["comparisons"]:
            if comparison["t"] is not None and not math.isfinite(comparison["t"]):
                comparison["t"] = None
        return report


def run_experiment(
    dataset: Dataset,
    config: ExperimentConfig,
    jobs: int = 1,
) -> AggregateReport:
    """Run all trials, then aggregate per-arm statistics and arm comparisons.

    Trials run in ``trial_blocks(n_repeats, jobs, <usable CPUs>)``: the
    first block in the calling process and each other in a worker process
    of its own (forked on Linux, else by the platform's default start
    method), none of which outlives the call. Each block has usable CPUs //
    blocks ``threads`` for its engine calls, so blocks times parts stays
    within the CPUs. Results are collected in trial order and are the same
    bit for bit at any part count, so the report does not depend on the
    worker count. A worker that exits without sending its results raises a
    ``TrialError`` naming the block's first trial and the worker's exit
    code. Arms that cannot train on
    the dataset's classes raise ``FieldError`` (a ``ValueError``), and
    ``jobs`` that is not an integer of at least 1 raises ``ValueError``,
    before any trial runs.
    """
    _check_integers(1, jobs=jobs)
    config.check_classes(dataset.n_classes)
    n_repeats = config.split.n_repeats
    n_cpus = _cpu_count()
    blocks = trial_blocks(n_repeats, jobs, n_cpus)
    threads = max(1, n_cpus // len(blocks))
    context = None
    if len(blocks) > 1:
        # Imported here, so that a one-block run never loads multiprocessing
        # (about 1 MB of peak RSS).
        import multiprocessing

        context = multiprocessing.get_context("fork" if sys.platform == "linux" else None)
    parts = _run_parts(partial(_run_block, dataset, config, threads=threads), blocks,
                       _lost_block, context)

    matrix = np.concatenate(parts)  # (n_repeats, n_arms)
    arm_results = []
    for j, arm in enumerate(config.arms):
        aurocs = tuple(float(v) for v in matrix[:, j])
        if n_repeats >= 2:
            mean, lo, hi = mean_ci(aurocs)
            std = float(np.std(aurocs, ddof=1))
            arm_results.append(ArmResult(arm.name, aurocs, mean, std, (lo, hi)))
        else:
            arm_results.append(ArmResult(arm.name, aurocs, float(aurocs[0]), None, None))

    comparisons = []
    reference = arm_results[0]
    for other in arm_results[1:]:
        if n_repeats >= 2:
            try:
                t, p = t_test(reference.aurocs, other.aurocs)
            except DegenerateVarianceError:
                t, p = None, None
        else:
            t, p = None, None
        comparisons.append(Comparison(reference.name, other.name, t, p))

    seeds = tuple(trial_seeds(config.split.base_seed, t) for t in range(n_repeats))
    return AggregateReport(
        arms=tuple(arm_results),
        comparisons=tuple(comparisons),
        n_repeats=n_repeats,
        trial_seeds=seeds,
    )
