import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest
from scipy.special import stdtr

from rankloss import (
    ArmConfig,
    DegenerateVarianceError,
    ExperimentConfig,
    FieldError,
    SplitSpec,
    SyntheticSpec,
    TooSmallError,
    TrialError,
    generate_synthetic,
    mean_ci,
    monte_carlo_split,
    run_experiment,
    stratified_batches,
    t_test,
    trial_blocks,
    trial_seeds,
)
from rankloss.harness import _run_block, _t_two_sided_p

from conftest import ProcessLog, assert_exited
from oracle import run_trial


# ---------------------------------------------------------------------------
# Independent textbook oracle for the t-test: pooled-variance statistic plus
# the regularized incomplete beta via the Numerical Recipes continued
# fraction. Deliberately shares nothing with the implementation.


def _betacf(a, b, x):
    FPMIN = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < FPMIN:
        d = FPMIN
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        if abs(d) < FPMIN:
            d = FPMIN
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        c = 1.0 + aa / c
        if abs(d) < FPMIN:
            d = FPMIN
        if abs(c) < FPMIN:
            c = FPMIN
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 3e-14:
            break
    return h


def _betainc(a, b, x):
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    ln_bt = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log(1.0 - x)
    )
    bt = math.exp(ln_bt)
    if x < (a + 1.0) / (a + b + 2.0):
        return bt * _betacf(a, b, x) / a
    return 1.0 - bt * _betacf(b, a, 1.0 - x) / b


def t_test_oracle(a, b):
    a = list(map(float, a))
    b = list(map(float, b))
    na, nb = len(a), len(b)
    mean_a, mean_b = sum(a) / na, sum(b) / nb
    var_a = sum((x - mean_a) ** 2 for x in a) / (na - 1)
    var_b = sum((x - mean_b) ** 2 for x in b) / (nb - 1)
    df = na + nb - 2
    pooled = ((na - 1) * var_a + (nb - 1) * var_b) / df
    t = (mean_a - mean_b) / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = _betainc(df / 2.0, 0.5, df / (df + t * t))
    return t, p


# ---------------------------------------------------------------------------


def tiny_dataset(seed=1, counts=(30, 30), sep=3.0, dim=3, flip=0.0):
    return generate_synthetic(
        SyntheticSpec(class_counts=counts, dim=dim, class_mean_separation=sep,
                      noise_std=1.0, label_flip_prob=flip, seed=seed)
    )


def tiny_experiment(arms, n_repeats=6, base_seed=7, hidden=(4,), stratified=True):
    split = SplitSpec(stratified=stratified, n_repeats=n_repeats, base_seed=base_seed)
    return ExperimentConfig(arms=arms, split=split, hidden_dims=hidden)


def run_one(dataset, config, trial):
    """One trial's test AUROCs, per arm, from the harness's block runner."""
    return _run_block(dataset, config, range(trial, trial + 1))[0].tolist()


class TestMonteCarloSplit:
    def test_cohort_sizes_unstratified(self):
        labels = np.zeros(339, dtype=int)
        labels[143:214] = 1
        labels[214:] = 2
        spec = SplitSpec(stratified=False, base_seed=0)
        tr, va, te = monte_carlo_split(339, labels, spec, trial=0)
        assert (tr.size, va.size, te.size) == (203, 67, 69)

    def test_exact_division(self):
        spec = SplitSpec(stratified=False, base_seed=1)
        tr, va, te = monte_carlo_split(10, np.zeros(10, dtype=int), spec, trial=0)
        assert (tr.size, va.size, te.size) == (6, 2, 2)

    def test_deterministic(self):
        labels = np.array([0, 1] * 20)
        spec = SplitSpec(base_seed=4)
        a = monte_carlo_split(40, labels, spec, trial=9)
        b = monte_carlo_split(40, labels, spec, trial=9)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = monte_carlo_split(40, labels, spec, trial=10)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_partition_laws(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            n = int(rng.integers(30, 200))
            labels = rng.integers(0, 3, size=n)
            while np.bincount(labels, minlength=3).min() < 6:
                labels = rng.integers(0, 3, size=n)
            tr, va, te = monte_carlo_split(n, labels, SplitSpec(base_seed=2), trial)
            merged = np.sort(np.concatenate([tr, va, te]))
            assert np.array_equal(merged, np.arange(n))

    def test_stratified_proportions_within_one_sample(self):
        labels = np.repeat([0, 1, 2], [143, 71, 125])
        n = labels.size
        global_prop = np.bincount(labels) / n
        for trial in range(20):
            parts = monte_carlo_split(n, labels, SplitSpec(base_seed=3), trial)
            for part in parts:
                counts = np.bincount(labels[part], minlength=3)
                assert np.all(np.abs(counts - part.size * global_prop) <= 1.0 + 1e-9)

    def test_too_small_class(self):
        labels = np.array([0] * 20 + [1] * 2)
        with pytest.raises(TooSmallError):
            monte_carlo_split(22, labels, SplitSpec(base_seed=0), trial=0)

    @pytest.mark.parametrize("trial", [1.5, 1.0, np.float64(1.0)])
    def test_float_trial(self, trial):
        labels = np.array([0, 1] * 10)
        with pytest.raises(ValueError, match="^base_seed and trial must be integers, got "):
            monte_carlo_split(20, labels, SplitSpec(), trial)

    def test_ratio_validation(self):
        with pytest.raises(ValueError):
            SplitSpec(ratios=(0.5, 0.2, 0.2))
        with pytest.raises(ValueError):
            SplitSpec(ratios=(0.6, -0.2, 0.6))


def test_config_integer_fields():
    # A float count or width is rejected naming its field, not truncated,
    # and does not reach run_experiment's range().
    for field, value in (("n_repeats", 2.5), ("n_repeats", 3.0), ("base_seed", 1.5)):
        with pytest.raises(FieldError) as exc:
            SplitSpec(**{field: value})
        assert exc.value.field == field
    arms = (ArmConfig("a", "cross_entropy", 8),)
    for hidden in ((4.9,), (4, 3.0), ("4",)):
        with pytest.raises(FieldError, match="^hidden dims must be positive integers") as exc:
            ExperimentConfig(arms, SplitSpec(), hidden)
        assert exc.value.field == "hidden_dims"
    config = ExperimentConfig(arms, SplitSpec(n_repeats=np.int64(3)), [np.int32(4)])
    assert config.hidden_dims == (4,) and type(config.hidden_dims[0]) is int


class TestMeanCi:
    def test_zero_variance(self):
        # Constant input: the interval collapses onto the mean up to the
        # float wobble of mean/std themselves (the stored mean sits 1 ulp
        # from 0.8, so the deviations are ~2e-16 rather than exactly 0).
        mean, lo, hi = mean_ci([0.8, 0.8, 0.8])
        assert mean == pytest.approx(0.8, abs=1e-15)
        assert lo == pytest.approx(0.8, abs=1e-15)
        assert hi == pytest.approx(0.8, abs=1e-15)
        assert lo <= mean <= hi

    def test_two_point(self):
        # std(ddof=1) of [0, 1] is sqrt(1/2); half-width 1.96 * sqrt(1/2) / sqrt(2) = 0.98.
        mean, lo, hi = mean_ci([0.0, 1.0])
        assert mean == 0.5
        assert hi - mean == pytest.approx(0.98, abs=1e-12)
        assert mean - lo == pytest.approx(0.98, abs=1e-12)

    def test_hundred_values_half_width(self, rng):
        values = rng.normal(0.8, 0.05, size=100)
        mean, lo, hi = mean_ci(values)
        expected_half = 1.96 * values.std(ddof=1) / 10.0
        assert hi - mean == pytest.approx(expected_half, abs=1e-12)
        assert lo <= mean <= hi

    def test_needs_two(self):
        with pytest.raises(ValueError):
            mean_ci([0.5])


class TestTTest:
    def test_identical_vectors(self):
        t, p = t_test([0.1, 0.2, 0.3], [0.1, 0.2, 0.3])
        assert t == 0.0 and p == 1.0

    def test_symmetry(self, rng):
        a = rng.normal(size=12)
        b = rng.normal(size=15)
        t_ab, p_ab = t_test(a, b)
        t_ba, p_ba = t_test(b, a)
        assert t_ab == -t_ba and p_ab == p_ba

    def test_matches_textbook_oracle(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            a = rng.normal(0.86, 0.05, size=100)
            b = rng.normal(0.88, 0.05, size=100)
            t, p = t_test(a, b)
            t_ref, p_ref = t_test_oracle(a, b)
            assert abs(t - t_ref) <= 1e-8
            assert abs(p - p_ref) <= 1e-8

    def test_huge_finite_t_returns(self):
        # t^2 overflows: the p-value underflows to 0, as scipy's stdtr gives.
        t, p = t_test([0.0, 1e-160], [1.0, 1.0])
        assert math.isfinite(t) and t < -1e160 and p == 0.0

    def test_degenerate_equal_constants(self):
        with pytest.raises(DegenerateVarianceError):
            t_test([0.5, 0.5], [0.5, 0.5])

    def test_constant_but_different(self):
        t, p = t_test([0.6, 0.6], [0.5, 0.5])
        assert t == math.inf and p == 0.0


class TestTwoSidedP:
    """The in-house Student-t p-value against scipy's ``stdtr``."""

    T_GRID = [0.0, *np.logspace(-16, math.log10(40.0), 200).tolist(), 1e200, math.inf]

    @pytest.mark.parametrize("df", [2, 3, 4, 7, 18, 58, 198, 998, 19998])
    def test_matches_stdtr(self, df):
        for t in self.T_GRID:
            p = _t_two_sided_p(df, t)
            want = 2.0 * float(stdtr(df, -t))
            assert 0.0 <= p <= 1.0
            assert _t_two_sided_p(df, -t) == p
            if want > 1e-300:
                assert abs(p - want) <= 1e-12 * want, (df, t, p, want)
            else:
                assert p <= 1e-300, (df, t, p, want)

    @pytest.mark.parametrize("df", [19998, 20000])
    def test_large_df_past_branch_point(self, df):
        # Here the fraction's odd steps come near -1; added to 1 as they
        # stand, they leave errors of ~6e-13 on this range.
        for t in np.linspace(1.0, 6.0, 101):
            want = 2.0 * float(stdtr(df, -t))
            assert abs(_t_two_sided_p(df, t) - want) <= 1e-13 * want, (df, t)

    def test_limits(self):
        for df in (2, 19998):
            assert _t_two_sided_p(df, 0.0) == 1.0
            assert _t_two_sided_p(df, 1e200) == _t_two_sided_p(df, -math.inf) == 0.0


class TestTrialSeeds:
    def test_deterministic_and_distinct(self):
        a = trial_seeds(3, 0)
        assert a == trial_seeds(3, 0)
        assert a != trial_seeds(3, 1)
        assert a != trial_seeds(4, 0)
        assert len({a.split, a.init, a.shuffle}) == 3
        assert trial_seeds(np.int64(3), np.uint8(1)) == trial_seeds(3, 1)

    @pytest.mark.parametrize("base_seed, trial, message", [
        (0, 1.5, "base_seed and trial must be integers, got 0 and 1.5"),
        (2.0, 1, "base_seed and trial must be integers, got 2.0 and 1"),
        (0, -1, "base_seed and trial must be nonnegative, got 0 and -1"),
    ])
    def test_rejects_non_integers_and_negatives(self, base_seed, trial, message):
        with pytest.raises(ValueError) as exc:
            trial_seeds(base_seed, trial)
        assert str(exc.value) == message


class TestRunTrial:
    def test_identical_arms_identical_results(self):
        ds = tiny_dataset()
        arms = (
            ArmConfig("a", "cross_entropy", 8, max_epochs=3),
            ArmConfig("b", "cross_entropy", 8, max_epochs=3),
        )
        out = run_one(ds, tiny_experiment(arms), trial=0)
        assert out[0] == out[1]

    def test_separable_both_arms_high(self):
        ds = tiny_dataset(sep=6.0)
        arms = (
            ArmConfig("ce", "cross_entropy", 8, max_epochs=10),
            ArmConfig("auc", "auc_binary", 16, max_epochs=10),
        )
        out = run_one(ds, tiny_experiment(arms), trial=1)
        assert all(v >= 0.99 for v in out)

    def test_trained_beats_untrained_mostly(self):
        ds = tiny_dataset(sep=3.0)
        arms = (
            ArmConfig("frozen", "cross_entropy", 8, max_epochs=5, learning_rate=0.0),
            ArmConfig("trained", "cross_entropy", 8, max_epochs=5),
        )
        config = tiny_experiment(arms, n_repeats=100)
        report = run_experiment(ds, config, jobs=4)
        frozen, trained = report.arms
        wins = sum(t >= f for f, t in zip(frozen.aurocs, trained.aurocs))
        assert wins >= 90

    def test_error_carries_trial_index(self):
        ds = tiny_dataset(counts=(30, 30))
        # Force a failure: binary loss on a 3-class dataset is caught before
        # trials, so instead make the split infeasible via a tiny class.
        small = generate_synthetic(
            SyntheticSpec(class_counts=(30, 2), dim=3, class_mean_separation=3.0,
                          noise_std=1.0, seed=0)
        )
        arms = (ArmConfig("a", "cross_entropy", 8, max_epochs=1),
                ArmConfig("b", "cross_entropy", 8, max_epochs=1))
        with pytest.raises(TrialError) as err:
            run_one(small, tiny_experiment(arms), trial=5)
        assert err.value.trial == 5
        assert "trial 5" in str(err.value)


class TestRunExperiment:
    def test_report_shape_and_reproducibility(self):
        ds = tiny_dataset()
        arms = (
            ArmConfig("ce", "cross_entropy", 8, max_epochs=2),
            ArmConfig("auc", "auc_binary", 8, max_epochs=2),
        )
        config = tiny_experiment(arms, n_repeats=5)
        r1 = run_experiment(ds, config)
        r2 = run_experiment(ds, config)
        assert json.dumps(r1.to_dict()) == json.dumps(r2.to_dict())
        assert all(len(arm.aurocs) == 5 for arm in r1.arms)
        for arm in r1.arms:
            lo, hi = arm.ci
            assert lo <= arm.mean <= hi
        assert r1.comparisons[0].arm_a == "ce" and r1.comparisons[0].arm_b == "auc"

    def test_jobs_do_not_change_bytes(self):
        ds = tiny_dataset(sep=2.0)
        arms = (
            ArmConfig("ce", "cross_entropy", 8, max_epochs=2),
            ArmConfig("auc", "auc_binary", 8, max_epochs=2),
        )
        config = tiny_experiment(arms, n_repeats=6)
        serial = run_experiment(ds, config, jobs=1)
        parallel = run_experiment(ds, config, jobs=3)
        assert json.dumps(serial.to_dict()) == json.dumps(parallel.to_dict())

    def test_binary_loss_rejected_on_multiclass_data(self):
        ds = tiny_dataset(counts=(20, 20, 20), dim=4)
        arms = (ArmConfig("bad", "auc_binary", 8, max_epochs=1),
                ArmConfig("ok", "cross_entropy", 8, max_epochs=1))
        with pytest.raises(ValueError):
            run_experiment(ds, tiny_experiment(arms))

    def test_null_comparison_p_values(self):
        # Identical configs share split and init seeds, so per-trial results
        # coincide and the t statistic is exactly zero.
        significant = 0
        total = 0
        for macro_seed in range(5):
            ds = tiny_dataset(seed=macro_seed, sep=1.5, flip=0.1)
            arms = (
                ArmConfig("first", "cross_entropy", 8, max_epochs=2),
                ArmConfig("second", "cross_entropy", 8, max_epochs=2),
            )
            config = tiny_experiment(arms, n_repeats=6, base_seed=macro_seed)
            report = run_experiment(ds, config)
            p = report.comparisons[0].p
            if p is not None:
                total += 1
                assert p == 1.0
                if p <= 0.05:
                    significant += 1
        assert total > 0 and significant / total <= 0.2

    def test_ci_width_shrinks_with_more_repeats(self):
        # Mean CI width over 5 macro seeds must shrink going from 25 to 100
        # trials on a fixed task.
        widths = {25: [], 100: []}
        ds = tiny_dataset(seed=2, sep=1.5, flip=0.1)
        arm = ArmConfig("ce", "cross_entropy", 8, max_epochs=1)
        for macro_seed in range(5):
            for repeats in (25, 100):
                config = ExperimentConfig(
                    arms=(arm,),
                    split=SplitSpec(n_repeats=repeats, base_seed=macro_seed),
                    hidden_dims=(4,),
                )
                report = run_experiment(ds, config, jobs=4)
                lo, hi = report.arms[0].ci
                widths[repeats].append(hi - lo)
        assert np.mean(widths[100]) < np.mean(widths[25])


class TestTrialBlocks:
    def test_one_block_at_one_job(self):
        assert trial_blocks(10, jobs=1, n_cpus=8) == [range(0, 10)]

    def test_clamped_to_cpus_and_repeats(self):
        assert trial_blocks(10, jobs=4, n_cpus=2) == [range(0, 5), range(5, 10)]
        assert trial_blocks(3, jobs=8, n_cpus=16) == [range(0, 1), range(1, 2), range(2, 3)]
        assert trial_blocks(5, jobs=3, n_cpus=0) == [range(0, 5)]

    def test_contiguous_balanced_cover(self):
        for n_repeats in (1, 7, 100):
            for jobs in (1, 2, 3, 7, 200):
                blocks = trial_blocks(n_repeats, jobs, n_cpus=64)
                assert len(blocks) == min(jobs, n_repeats, 64)
                assert [t for b in blocks for t in b] == list(range(n_repeats))
                sizes = [len(b) for b in blocks]
                assert max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("n_cpus, message", [
        (-1, "n_cpus must be nonnegative, got -1"), (2.0, "n_cpus must be an integer, got 2.0"),
        ("2", "n_cpus must be an integer, got '2'")])
    def test_n_cpus_is_a_nonnegative_integer(self, n_cpus, message):
        # INTEGER_ENTRIES in test_errors.py checks n_repeats and jobs; 0 CPUs
        # (an unknown count) still gives one block.
        with pytest.raises(ValueError) as exc:
            trial_blocks(10, 2, n_cpus)
        assert str(exc.value) == message


class TestTrialBatching:
    @pytest.mark.blas
    def test_block_invariance(self):
        # A trial's result does not depend on which trials share its block.
        ds = tiny_dataset(counts=(30, 20, 25), sep=1.5, flip=0.1)
        arms = (ArmConfig("ce", "cross_entropy", 8, max_epochs=3),
                ArmConfig("auc", "auc_multiclass", 16, max_epochs=3))
        short = run_experiment(ds, tiny_experiment(arms, n_repeats=3))
        long = run_experiment(ds, tiny_experiment(arms, n_repeats=7))
        for a, b in zip(short.arms, long.arms):
            assert a.aurocs == b.aurocs[:3]

    @pytest.mark.blas
    def test_block_invariance_unstratified(self):
        # The ce arm's batch count is 5 in trials 0, 4, 5 and 6 but 4 in
        # trials 1-3: the engine steps each batch count as its own stack,
        # and the longer block adds trials to both.
        ds = tiny_dataset(seed=4, counts=(40, 25, 10), sep=1.5, flip=0.1)
        arms = (ArmConfig("ce", "cross_entropy", 8, max_epochs=3),
                ArmConfig("auc", "auc_multiclass", 16, max_epochs=3))
        config = tiny_experiment(arms, 7, base_seed=2, stratified=False)
        short = run_experiment(ds, tiny_experiment(arms, 3, base_seed=2, stratified=False))
        long = run_experiment(ds, config)
        for a, b in zip(short.arms, long.arms):
            assert a.aurocs == b.aurocs[:3]
        for t in range(7):
            assert run_trial(ds, config, t) == [arm.aurocs[t] for arm in long.arms]

    def test_matches_run_trial(self):
        ds = tiny_dataset(counts=(30, 20, 25), sep=1.5, flip=0.1)
        arms = (ArmConfig("ce", "cross_entropy", 8, max_epochs=3),
                ArmConfig("auc", "auc_multiclass", 16, max_epochs=3))
        config = tiny_experiment(arms, n_repeats=4)
        report = run_experiment(ds, config)
        for t in range(4):
            assert run_trial(ds, config, t) == [arm.aurocs[t] for arm in report.arms]

    def test_protocol_shape_matches_run_trial(self):
        # The reference protocol's data, model and arms, cut to 3 trials of
        # 3 epochs: ce_b8's steps mix batches of 7, 8 and 9 rows, auc_b64's
        # of 66 to 68.
        ds = generate_synthetic(SyntheticSpec(
            class_counts=(143, 71, 125), dim=8, class_mean_separation=2.0, noise_std=1.0,
            label_flip_prob=0.05, seed=42))
        arms = (ArmConfig("ce_b8", "cross_entropy", 8, max_epochs=3),
                ArmConfig("auc_b64", "auc_multiclass", 64, max_epochs=3))
        config = ExperimentConfig(arms=arms, split=SplitSpec(n_repeats=3), hidden_dims=(16,))
        sizes = set()
        for t in range(3):
            train_idx = monte_carlo_split(ds.n_samples, ds.labels, config.split, t)[0]
            for arm in arms:
                batches = stratified_batches(ds.labels[train_idx], arm.batch_size,
                                             trial_seeds(0, t).shuffle, 0)
                sizes |= {batch.size for batch in batches}
        assert sizes == {7, 8, 9, 66, 67, 68}
        report = run_experiment(ds, config)
        for t in range(3):
            assert run_trial(ds, config, t) == [arm.aurocs[t] for arm in report.arms]

    def test_memory_bound_splits_engine_calls(self, monkeypatch):
        import rankloss.harness

        ds = tiny_dataset(counts=(30, 20))
        arms = (ArmConfig("ce", "cross_entropy", 8, max_epochs=2),
                ArmConfig("auc", "auc_binary", 8, max_epochs=2))
        for stratified in (True, False):
            config = tiny_experiment(arms, n_repeats=5, stratified=stratified)
            whole = run_experiment(ds, config)
            with monkeypatch.context() as patch:
                patch.setattr(rankloss.harness, "STACKED_VALUES", 1)  # one trial per call
                assert run_experiment(ds, config).to_dict() == whole.to_dict()

    def test_unstratified_matches_run_trial(self):
        ds = tiny_dataset(counts=(30, 20))
        arms = (ArmConfig("ce", "cross_entropy", 8, max_epochs=2),
                ArmConfig("auc", "auc_binary", 8, max_epochs=2))
        config = ExperimentConfig(arms=arms, split=SplitSpec(stratified=False, n_repeats=3),
                                  hidden_dims=(4,))
        report = run_experiment(ds, config)
        for t in range(3):
            assert run_trial(ds, config, t) == [arm.aurocs[t] for arm in report.arms]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("jobs", [1, 2])
    def test_error_names_first_trial_and_arm(self, jobs):
        # Arm 1 diverges in every trial, so the serial path's first error is
        # trial 0's arm 1; the batched engine reports that same error.
        ds = tiny_dataset(counts=(30, 20))
        arms = (ArmConfig("ok", "cross_entropy", 8, max_epochs=2),
                ArmConfig("diverges", "cross_entropy", 8, max_epochs=2, learning_rate=1e200))
        config = tiny_experiment(arms, n_repeats=4)
        with pytest.raises(TrialError) as serial:
            run_trial(ds, config, 0)
        with pytest.raises(TrialError) as batched:
            run_experiment(ds, config, jobs=jobs)
        assert batched.value.trial == 0
        assert str(batched.value) == str(serial.value)
        assert "NonFiniteError" in str(batched.value)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("stratified", [True, False])
    def test_error_names_the_arm(self, stratified):
        # Stratified and unstratified trials alike name the failing arm
        # after the trial.
        ds = tiny_dataset(counts=(30, 20))
        arms = (ArmConfig("ok", "cross_entropy", 8, max_epochs=2),
                ArmConfig("diverges", "cross_entropy", 8, max_epochs=2, learning_rate=1e200))
        config = ExperimentConfig(arms=arms, split=SplitSpec(stratified=stratified, n_repeats=3),
                                  hidden_dims=(4,))
        with pytest.raises(TrialError, match=r"^trial 0, arm diverges: NonFiniteError: "):
            run_experiment(ds, config)

    @pytest.mark.blas
    def test_thread_pool_ends_with_the_block(self, monkeypatch, step_places):
        # With a CPU left over at --jobs 1 the block's engine calls get 2
        # threads, so the arm's 3 trials train in 2 parts, the second in a
        # child process, which is gone once run_experiment returns; the
        # report is the one-thread report.
        import rankloss.harness
        import rankloss.losses

        ds = tiny_dataset(counts=(30, 20, 25), sep=1.5, flip=0.1)
        arms = (ArmConfig("auc", "auc_multiclass", 16, max_epochs=2),)
        config = tiny_experiment(arms, n_repeats=3)
        monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", 7)
        monkeypatch.setattr(rankloss.harness, "_cpu_count", lambda: 1)
        serial = run_experiment(ds, config)
        monkeypatch.setattr(rankloss.harness, "_cpu_count", lambda: 2)
        step_places.clear()
        threaded = run_experiment(ds, config)
        pids = {pid for pid, _ in step_places}
        assert len(pids) == 2 and multiprocessing.active_children() == []
        assert_exited(pids - {os.getpid()})
        assert threaded.to_dict() == serial.to_dict()

    def test_no_process_outlives_a_failing_block(self, monkeypatch, tmp_path):
        # At --jobs 2 on 4 CPUs both blocks split their engine call into two
        # parts, so four processes train: this one, its part's child, the
        # second block's worker and that worker's part's child. Once all
        # four have started, this process's part raises; the others wait
        # until ended. Each is ended, its own children first, before the
        # error leaves run_experiment.
        import rankloss.harness
        import rankloss.losses
        import rankloss.network

        started = ProcessLog(tmp_path / "started.log")
        parent = os.getpid()

        def part(*args):
            started.record()
            if os.getpid() != parent:
                time.sleep(60)
            deadline = time.monotonic() + 20
            while len(started) < 4 and time.monotonic() < deadline:
                time.sleep(0.01)
            raise RuntimeError("the calling process's part failed")

        monkeypatch.setattr(rankloss.network, "_train_stack", part)
        monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", 7)
        monkeypatch.setattr(rankloss.harness, "_cpu_count", lambda: 4)
        config = tiny_experiment((ArmConfig("auc", "auc_binary", 16, max_epochs=2),), n_repeats=4)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^the calling process's part failed$"):
            run_experiment(tiny_dataset(), config, jobs=2)
        assert time.monotonic() - start < 30  # no sleeping child was waited for
        assert multiprocessing.active_children() == []
        pids = {pid for pid, _ in started} - {parent}
        assert len(pids) == 3  # every part had started
        assert_exited(pids)
