import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

from rankloss import (
    LOSS_KINDS,
    EmptyClassError,
    PredictionBatch,
    SurrogateParams,
    auroc_pairwise,
    binary_auc_loss,
    cross_entropy_loss,
    finite_diff_check,
    logistic,
    loss_function,
    multiclass_auc_loss,
    softmax,
)
import rankloss.losses
from rankloss.losses import PAIR_BLOCK, _block_logistic, _last_axis_sum

import oracle
from conftest import kernel_loss, random_batch


class TestLogistic:
    def test_midpoint_default(self):
        assert logistic(0.0) == 0.5

    def test_midpoint_any_params(self):
        for k, L, x0 in ((3.0, 2.0, -1.5), (100.0, 0.25, 4.0)):
            assert logistic(x0, SurrogateParams(k=k, L=L, x0=x0)) == pytest.approx(L / 2)

    def test_direct_evaluation(self):
        # 1 / (1 + e^-10) at x = 0.5, k = 20.
        assert logistic(0.5) == pytest.approx(1.0 / (1.0 + math.exp(-10.0)), abs=1e-15)

    def test_extreme_arguments_stay_on_branch(self):
        # |k x| = 700: the positive side saturates to 1, the negative side
        # underflows toward 0 without overflowing.
        assert logistic(35.0) == 1.0
        tiny = logistic(-35.0)
        assert 0.0 < tiny < 1e-300

    def test_array_input(self):
        out = logistic(np.array([[-0.1, 0.0], [0.1, 0.5]]))
        assert out.shape == (2, 2)
        assert out[0, 1] == 0.5

    def test_param_validation(self):
        with pytest.raises(ValueError):
            SurrogateParams(k=0.0)
        with pytest.raises(ValueError):
            SurrogateParams(L=-1.0)


class TestSoftmax:
    def test_two_way_symmetry(self):
        assert softmax([0.0, 0.0]).tolist() == [0.5, 0.5]

    def test_constant_rows(self):
        out = softmax([7.0, 7.0, 7.0])
        assert out == pytest.approx([1 / 3, 1 / 3, 1 / 3], abs=1e-15)

    def test_shift_invariance_exact_binary(self):
        # 1000 and 0.5 are exactly representable, so the shifted row reduces
        # to the same subtraction.
        assert np.array_equal(softmax([1000.0, 1000.5]), softmax([0.0, 0.5]))

    def test_rows_sum_to_one(self, rng):
        probs = softmax(rng.normal(size=(50, 4)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-12
        assert (probs > 0).all()


@pytest.mark.parametrize("shape", [(10, 69, 3), (2, 2400, 2), (50, 4)]
                         + [(7, 30, c) for c in range(2, 10)])
def test_last_axis_sum_is_numpy_sum_bit_for_bit(shape):
    # Column adds below 8 columns, NumPy's sum from 8 on (the shapes cover
    # both sides): the same bits as sum(axis=-1, keepdims=True), signed
    # zeros included, on values of either sign spread over 60 binades.
    rng = np.random.default_rng(shape[-1])
    for _ in range(20):
        x = rng.normal(size=shape) * np.exp2(rng.integers(-30, 30, size=shape))
        x[rng.random(size=shape) < 0.1] = rng.choice([0.0, -0.0])
        x[0] = -0.0
        got, want = _last_axis_sum(x), x.sum(axis=-1, keepdims=True)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBinaryAucLoss:
    def test_identical_probabilities(self):
        # Every pairwise difference is 0 and logistic(0) = 1/2.
        batch = PredictionBatch(np.zeros((6, 2)), [0, 1, 0, 1, 0, 1])
        assert binary_auc_loss(batch).value == 0.5

    def test_midpoint_gradient(self):
        # One positive, one negative, equal probabilities: d(loss)/d(diff) is
        # -k/4 = -5, and the softmax chain contributes p(1-p) = 1/4 per
        # logit, so every entry is +-1.25.
        batch = PredictionBatch(np.zeros((2, 2)), [0, 1])
        out = binary_auc_loss(batch, want_grad=True)
        expected = np.array([[-1.25, 1.25], [1.25, -1.25]])
        assert np.allclose(out.grad, expected, atol=1e-12)

    def test_tail_bound(self):
        # p_pos - p_neg = 2 sigmoid(3) - 1 ~ 0.905 >= 0.9, so the loss is
        # below exp(-k * 0.9) = exp(-18).
        batch = PredictionBatch(np.array([[3.0, 0.0], [0.0, 3.0]]), [0, 1])
        assert binary_auc_loss(batch).value <= math.exp(-18.0)

    def test_requires_both_classes(self):
        # The per-batch messages, not the stacked kernel's "trial 0: ..." ones.
        for labels, message, missing in (
            ([1, 1, 1], "batch has no negative (label 0) samples", 0),
            ([0, 0, 0], "batch has no positive (label 1) samples", 1),
        ):
            with pytest.raises(EmptyClassError) as err:
                binary_auc_loss(PredictionBatch(np.zeros((3, 2)), labels))
            assert str(err.value) == message and err.value.class_index == missing

    def test_requires_two_classes(self):
        with pytest.raises(ValueError) as err:
            binary_auc_loss(random_batch(0, 12, 3))
        assert str(err.value) == "binary_auc_loss requires 2 classes, got 3"

    def test_rejects_probability_batches(self):
        batch = PredictionBatch(np.full((2, 2), 0.5), [0, 1], probabilities=True)
        for fn in (binary_auc_loss, multiclass_auc_loss, cross_entropy_loss):
            with pytest.raises(ValueError) as err:
                fn(batch)
            assert str(err.value) == (
                f"{fn.__name__} applies softmax internally and expects raw logits, "
                "got a probability-flagged batch"
            )

    def test_antisymmetry(self):
        # Relabeling 0<->1 with scores untouched negates every pairwise
        # difference, and with x0 = 0, L = 1 the logistic satisfies
        # f(-d) = 1 - f(d), so the loss maps to its complement.
        for seed in range(20):
            batch = random_batch(seed, 16, 2)
            relabeled = PredictionBatch(batch.scores, 1 - batch.labels)
            v = binary_auc_loss(batch).value
            w = binary_auc_loss(relabeled).value
            assert abs(w - (1.0 - v)) <= 1e-12

    def test_column_swap_with_relabel_is_identity(self):
        # Swapping both the labels and the score columns is a pure renaming
        # of the classes; the loss must not move at all.
        for seed in range(10):
            batch = random_batch(seed, 16, 2)
            renamed = PredictionBatch(batch.scores[:, ::-1], 1 - batch.labels)
            v = binary_auc_loss(batch).value
            w = binary_auc_loss(renamed).value
            assert abs(w - v) <= 1e-12

    def test_value_strictly_inside_unit_interval(self):
        for seed in range(50):
            v = binary_auc_loss(random_batch(seed, 16, 2)).value
            assert 0.0 < v < 1.0


class TestMulticlassAucLoss:
    def test_matches_binary_on_two_classes(self):
        for seed in range(50):
            batch = random_batch(seed, 16, 2)
            b = binary_auc_loss(batch, want_grad=True)
            m = multiclass_auc_loss(batch, want_grad=True)
            assert abs(b.value - m.value) <= 1e-12
            assert np.abs(b.grad - m.grad).max() <= 1e-10

    def test_all_equal_logits(self):
        batch = PredictionBatch(np.ones((6, 3)), [0, 1, 2, 0, 1, 2])
        assert multiclass_auc_loss(batch).value == 0.5

    def test_scaled_one_hot(self):
        # Saturated correct logits: every pairwise gap is ~1, so each pair
        # contributes at most ~exp(-k) to the loss.
        scores = 50.0 * np.eye(3)[[0, 1, 2, 0, 1, 2]]
        assert multiclass_auc_loss(PredictionBatch(scores, [0, 1, 2, 0, 1, 2])).value < 1e-6

    def test_strict_names_missing_class(self):
        batch_scores = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(EmptyClassError) as err:
            multiclass_auc_loss(PredictionBatch(batch_scores, [0, 0, 1, 1]))
        assert err.value.class_index == 2
        assert str(err.value) == "batch has no samples of class 2"


class TestCrossEntropy:
    def test_uniform_two_class(self):
        batch = PredictionBatch(np.zeros((4, 2)), [0, 1, 1, 0])
        assert cross_entropy_loss(batch).value == pytest.approx(math.log(2), abs=1e-12)

    def test_uniform_three_class(self):
        batch = PredictionBatch(np.zeros((6, 3)), [0, 1, 2, 0, 1, 2])
        assert cross_entropy_loss(batch).value == pytest.approx(math.log(3), abs=1e-12)

    def test_confident_correct_limit(self):
        scores = 60.0 * np.eye(2)[[0, 1, 0, 1]]
        assert cross_entropy_loss(PredictionBatch(scores, [0, 1, 0, 1])).value < 1e-20

    def test_gradient_formula(self, rng):
        scores = rng.normal(size=(10, 3))
        labels = rng.integers(0, 3, size=10)
        out = cross_entropy_loss(PredictionBatch(scores, labels), want_grad=True)
        one_hot = np.eye(3)[labels]
        assert np.allclose(out.grad, (softmax(scores) - one_hot) / 10, atol=1e-14)


class TestShiftInvariance:
    def test_per_sample_shift_changes_nothing(self):
        kinds = ("cross_entropy", "auc_binary", "auc_multiclass")
        for seed, kind in enumerate(kinds):
            n_classes = 2 if kind == "auc_binary" else 3
            batch = random_batch(seed, 12, n_classes)
            fn = loss_function(kind)
            rng = np.random.default_rng(seed + 100)
            shifted = batch.scores + rng.normal(scale=5.0, size=(12, 1))
            before = fn(batch, False).value
            after = fn(PredictionBatch(shifted, batch.labels), False).value
            assert abs(before - after) <= 1e-12


class TestSurrogateConvergence:
    def test_bound_over_k_sweep(self):
        # |(1 - loss) - exact AUROC| <= exp(-k * delta), delta the smallest
        # pairwise probability gap of a tie-free batch.
        for seed in range(20):
            batch = random_batch(seed, 16, 2)
            p = softmax(batch.scores)[:, 1]
            pos, neg = p[batch.labels == 1], p[batch.labels == 0]
            gaps = np.abs(pos[:, None] - neg[None, :])
            delta = gaps.min()
            assert delta > 0.0
            exact = auroc_pairwise(pos, neg).value
            for k in (20.0, 50.0, 200.0):
                loss = binary_auc_loss(batch, SurrogateParams(k=k)).value
                assert abs((1.0 - loss) - exact) <= math.exp(-k * delta)


class TestFiniteDiffCheck:
    def test_binary(self):
        worst = 0.0
        for seed in range(20):
            report = finite_diff_check(
                loss_function("auc_binary"), random_batch(seed, 16, 2), h=1e-5
            )
            worst = max(worst, report.max_rel_error)
        assert worst <= 1e-5

    def test_cross_entropy(self):
        worst = 0.0
        for seed in range(20):
            report = finite_diff_check(
                loss_function("cross_entropy"), random_batch(seed, 16, 3), h=1e-5
            )
            worst = max(worst, report.max_rel_error)
        assert worst <= 1e-6

    def test_multiclass(self):
        worst = 0.0
        for seed in range(20):
            report = finite_diff_check(
                loss_function("auc_multiclass"), random_batch(seed, 32, 3), h=1e-5
            )
            worst = max(worst, report.max_rel_error)
        assert worst <= 1e-5

    def test_step_validated(self):
        with pytest.raises(ValueError):
            finite_diff_check(loss_function("cross_entropy"), random_batch(0, 8, 2), h=1.0)

    def test_report_fields(self):
        report = finite_diff_check(loss_function("cross_entropy"), random_batch(0, 8, 2))
        assert report.passed
        assert 0 <= report.worst_entry[0] < 8 and 0 <= report.worst_entry[1] < 2


def test_loss_function_rejects_unknown_kind():
    with pytest.raises(ValueError):
        loss_function("hinge")


def _unit_logistic(t, want_slope=False):
    # The logistic kernel at k = 1 (L = 1, x0 = 0) is the sigmoid. In
    # buffers of its own it leaves t intact.
    u, d, terms = np.empty((3,) + t.shape)
    return _block_logistic(t, u, d, terms, SurrogateParams(k=1.0), True, want_slope)


class TestSigmoid:
    # Where exp is exact (exp(0) = 1, exp(-800) underflows to 0) the in-place
    # form must equal the textbook 1 / (1 + exp(-t)) (scipy's expit) exactly,
    # with slope sigma(t) sigma(-t); elsewhere to a few ulps.
    EXTREMES = [0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300]

    def test_extremes_exact(self):
        t = np.array(self.EXTREMES)
        sig, slope = _unit_logistic(t, want_slope=True)
        assert sig.tolist() == expit(t).tolist() == [0.5, 0.5, 1.0, 0.0, 0.5, 0.5]
        assert slope.tolist() == (expit(t) * expit(-t)).tolist() == [0.25, 0.25, 0.0, 0.0, 0.25, 0.25]

    def test_matches_expit(self):
        t = np.random.default_rng(0).normal(scale=30.0, size=2000)
        sig, slope = _unit_logistic(t, want_slope=True)
        assert np.allclose(sig, expit(t), rtol=1e-14, atol=0.0)
        assert np.allclose(slope, expit(t) * expit(-t), rtol=1e-14, atol=0.0)

    def test_input_untouched_and_value_only(self):
        t = np.array([-3.0, 0.0, 2.5])
        before = t.copy()
        sig, slope = _unit_logistic(t)
        assert slope is None and np.array_equal(t, before)
        assert np.array_equal(sig, _unit_logistic(t, want_slope=True)[0])


def _pair_logistic_reference(diffs, params):
    # _pair_logistic over _sigmoid as they stood before the stacked kernel's
    # block arithmetic was rewritten in place, frozen as the reference.
    t = diffs.copy()
    if params.x0:
        t -= params.x0
    t *= params.k
    u = np.abs(t)
    np.negative(u, out=u)
    np.exp(u, out=u)
    d = u + 1.0
    sig = np.maximum(u, t >= 0)
    sig /= d
    np.multiply(d, d, out=d)
    slope = np.divide(u, d, out=u)
    if params.L != 1.0:
        sig *= params.L
    slope *= params.k * params.L
    return sig, slope


_BLOCK_DIFFS = [
    0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308, -2.2250738585072014e-308,
    1e-17, -1e-17, 0.3, -0.3, 0.5, -0.5, 1.0, -1.0, 40.0, -40.0, np.inf, -np.inf, np.nan,
]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("params", [
    SurrogateParams(),
    SurrogateParams(k=1e-3),  # k * diff underflows to +-0 for subnormal diffs
    SurrogateParams(k=500.0, L=2.5, x0=0.3),
    SurrogateParams(k=1e-3, L=1e305, x0=-1e-310),
    SurrogateParams(k=20.0, L=1e308, x0=0.5),
])
def test_block_logistic_matches_reference_bits(params):
    # Terms and slopes equal the reference bit for bit, signs of zero
    # included, for every choice of outputs asked for. A NaN stays a NaN in
    # the same place, but its sign bit, which carries no value, may differ:
    # the reference negates |NaN|, the rewrite multiplies it by -k.
    rng = np.random.default_rng(5)
    diffs = np.concatenate([_BLOCK_DIFFS, rng.normal(scale=0.4, size=210)]).reshape(1, 11, 21)
    terms_ref, slope_ref = _pair_logistic_reference(diffs, params)
    bits = lambda a: np.where(np.isnan(a), np.nan, a).view(np.int64)
    for want_value, want_slope in [(True, True), (True, False), (False, True)]:
        u, d, buf = np.empty((3,) + diffs.shape)
        terms, slope = _block_logistic(diffs.copy(), u, d, buf, params, want_value, want_slope)
        if want_value:
            assert terms is buf and np.array_equal(bits(terms), bits(terms_ref))
        else:
            assert terms is None
        if want_slope:
            assert slope is u and np.array_equal(bits(slope), bits(slope_ref))
        else:
            assert slope is None


@pytest.mark.filterwarnings("ignore:invalid value encountered")
@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("params", [
    SurrogateParams(),
    SurrogateParams(k=1e-3),
    SurrogateParams(k=500.0, L=2.5, x0=0.3),
    SurrogateParams(k=20.0, L=1e308, x0=0.5),
])
def test_block_logistic_shared_buffers_match_reference_bits(params):
    # The kernel's workspace shares buffers: u overwrites diff, and without
    # the slope d overwrites u as well. The bits are the reference's.
    rng = np.random.default_rng(6)
    diffs = np.concatenate([_BLOCK_DIFFS, rng.normal(scale=0.4, size=210)]).reshape(1, 11, 21)
    terms_ref, slope_ref = _pair_logistic_reference(diffs, params)
    bits = lambda a: np.where(np.isnan(a), np.nan, a).view(np.int64)
    for want_value, want_slope in [(True, True), (True, False), (False, True)]:
        diff, d, buf = diffs.copy(), np.empty_like(diffs), np.empty_like(diffs)
        terms, slope = _block_logistic(
            diff, diff, d if want_slope else diff, buf, params, want_value, want_slope)
        if want_value:
            assert terms is buf and np.array_equal(bits(terms), bits(terms_ref))
        if want_slope:
            assert slope is diff and np.array_equal(bits(slope), bits(slope_ref))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_stacked_loss_matches_per_batch(data):
    # Random labels, batch sizes, padding rows anywhere in the block and
    # pair block sizes: each trial's real rows, taken in order, are one call
    # of the textbook per-batch formula. The gradient is bit-identical; the
    # value is the same mean summed in another order.
    n_classes = data.draw(st.integers(2, 4))
    kind = data.draw(st.sampled_from([k for k in LOSS_KINDS if k != "auc_binary" or n_classes == 2]))
    n_trials = data.draw(st.integers(1, 4))
    rows = data.draw(st.integers(n_classes, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    logits = data.draw(st.sampled_from([0.1, 1.0, 30.0])) * rng.normal(size=(n_trials, rows, n_classes))
    # With two classes, optionally one lone sample of a class: a one-column
    # pair grid, whose column NumPy sums pairwise.
    lone = data.draw(st.sampled_from([None, 0, 1])) if n_classes == 2 else None
    labels = np.full((n_trials, rows), -1)
    for t in range(n_trials):
        size = int(rng.integers(n_classes, rows + 1))
        y = rng.integers(0, n_classes, size=size)
        if lone is not None:
            y[:] = 1 - lone
        y[:n_classes] = np.arange(n_classes)
        rng.shuffle(y)
        labels[t, np.sort(rng.choice(rows, size=size, replace=False))] = y
    params = SurrogateParams(k=data.draw(st.sampled_from([1.0, 20.0, 500.0])),
                             L=data.draw(st.sampled_from([1.0, 2.5])),
                             x0=data.draw(st.sampled_from([0.0, 0.1])))
    block = data.draw(st.sampled_from([1, 7, 40, PAIR_BLOCK]))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rankloss.losses, "PAIR_BLOCK", block)
        values, grad = kernel_loss(kind, logits, labels, params, want_grad=True)
        value_only, no_grad = kernel_loss(kind, logits, labels, params)
    assert no_grad is None and np.array_equal(values, value_only)
    # The public per-batch loss is the kernel on a stack of one.
    public, reference = loss_function(kind, params), oracle.loss_function(kind, params)
    for t in range(n_trials):
        real = labels[t] >= 0
        batch = PredictionBatch(logits[t, real], labels[t, real])
        out, one = reference(batch, True), public(batch, True)
        assert abs(values[t] - out.value) <= 1e-12
        assert np.array_equal(grad[t, real], out.grad)
        assert np.all(grad[t, ~real] == 0.0)
        assert type(one.value) is float and abs(one.value - out.value) <= 1e-12
        assert np.array_equal(one.grad, out.grad)


@pytest.mark.parametrize("block", [1, 7, PAIR_BLOCK])
@pytest.mark.parametrize("kind", LOSS_KINDS)
def test_stacked_loss_gradient_without_value(kind, block, monkeypatch):
    # Skipping the value leaves the gradient's bits alone; the AUC kinds
    # then return no value, cross entropy its usual one.
    rng = np.random.default_rng(11)
    logits = rng.normal(size=(3, 14, 2))
    labels = np.tile(np.arange(14) % 2, (3, 1))
    labels[1, 9:] = -1
    monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", block)
    values, grad = kernel_loss(kind, logits, labels, want_grad=True)
    no_value, same_grad = kernel_loss(kind, logits, labels, want_grad=True, want_value=False)
    assert np.array_equal(grad, same_grad)
    if kind == "cross_entropy":
        assert np.array_equal(values, no_value)
    else:
        assert no_value is None


def test_stacked_loss_pair_limit_only_chunks(monkeypatch):
    # Blocks of one positive row each, of one trial, give the same bits as
    # one block holding every trial.
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(5, 12, 3))
    labels = np.tile(np.arange(12) % 3, (5, 1))
    labels[2, 10:] = -1
    whole = kernel_loss("auc_multiclass", logits, labels, want_grad=True)
    monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", 1)
    chunked = kernel_loss("auc_multiclass", logits, labels, want_grad=True)
    assert all(np.array_equal(a, b) for a, b in zip(whole, chunked))


_PER_BATCH = {"binary_auc_loss": binary_auc_loss, "multiclass_auc_loss": multiclass_auc_loss}


@pytest.mark.parametrize("kind", ["auc_binary", "auc_multiclass", *_PER_BATCH])
def test_stacked_loss_temporaries_bounded(kind):
    # A full batch of 2400 rows has 600 x 1800 pairs per class (8.6 MB of
    # float64 each); the blocked kernel never holds more than a few blocks,
    # called on a stack or through a per-batch loss.
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(1, 2400, 2))
    labels = (np.arange(2400) % 4 == 0).astype(np.int64)[None, :]
    if kind in _PER_BATCH:
        batch = PredictionBatch(logits[0], labels[0])
        call = lambda: _PER_BATCH[kind](batch, want_grad=True)
    else:
        call = lambda: kernel_loss(kind, logits, labels, want_grad=True)
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6

