import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankloss import (
    Dataset,
    EmptyClassError,
    MLPStack,
    PredictionBatch,
    TrainConfig,
    auroc_multiclass_ovr,
    auroc_pairwise,
    auroc_rank,
    auroc_rank_scores,
    evaluate_auroc_stacked,
    init_model,
    stacked_loss,
    stratified_batches,
    train_stacked,
)
from rankloss.metrics import _ranked_auroc, _Ranking

from conftest import pairwise_oracle, random_batch, random_pos_neg


class TestPairwise:
    def test_perfect_separation(self):
        assert auroc_pairwise([0.9, 0.8], [0.1, 0.2]).value == 1.0

    def test_single_tied_pair(self):
        assert auroc_pairwise([0.5], [0.5]).value == 0.5

    def test_mixed_pair(self):
        # Enumeration: (0.4, 0.6) -> 0, (0.8, 0.6) -> 1, mean 0.5.
        out = auroc_pairwise([0.4, 0.8], [0.6])
        assert out.value == 0.5
        assert (out.n_pos, out.n_neg) == (2, 1)

    def test_matches_enumeration_oracle(self):
        for seed in range(30):
            pos, neg = random_pos_neg(seed, max_n=40, ties=seed % 2 == 0)
            assert auroc_pairwise(pos, neg).value == pytest.approx(
                pairwise_oracle(pos, neg), abs=1e-15
            )

    def test_empty_side_rejected(self):
        with pytest.raises(EmptyClassError):
            auroc_pairwise([], [0.1])
        with pytest.raises(EmptyClassError):
            auroc_pairwise([0.1], [])

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            auroc_pairwise([np.nan], [0.0])


class TestRankEquivalence:
    def test_perfect_and_tied(self):
        assert auroc_rank_scores([3.0, 4.0], [1.0, 2.0]).value == 1.0
        assert auroc_rank_scores([1.0, 1.0], [1.0, 1.0, 1.0]).value == 0.5

    def test_matches_pairwise_with_ties(self):
        # 200 random splits, half with heavy ties; the two routes share the
        # exact pair-win count so they must agree bitwise.
        for seed in range(200):
            pos, neg = random_pos_neg(seed, max_n=200, ties=seed % 2 == 0)
            assert auroc_rank_scores(pos, neg).value == auroc_pairwise(pos, neg).value

    def test_batch_wrapper(self):
        batch = random_batch(7, 50, 2)
        col = batch.scores[:, 1]
        expected = auroc_pairwise(col[batch.labels == 1], col[batch.labels == 0]).value
        assert auroc_rank(batch, positive_class=1).value == expected

    @pytest.mark.parametrize("positive_class", [0, 1])
    @pytest.mark.parametrize("empty_side", ["positive", "negative"])
    def test_batch_wrapper_names_the_empty_class(self, positive_class, empty_side):
        # Every sample is of one class; the error names the other, empty one.
        present = 1 - positive_class if empty_side == "positive" else positive_class
        batch = PredictionBatch(np.zeros((4, 2)), [present] * 4)
        with pytest.raises(EmptyClassError) as err:
            auroc_rank(batch, positive_class=positive_class)
        assert err.value.class_index == 1 - present
        assert str(err.value) == f"no {empty_side} samples: AUROC is undefined"

    @pytest.mark.parametrize("positive_class", [1.0, np.float64(0.0), "1", None])
    def test_batch_wrapper_takes_an_integer_class(self, positive_class):
        # A float or str class is rejected, not scored as the class it looks like.
        with pytest.raises(ValueError) as err:
            auroc_rank(random_batch(7, 50, 2), positive_class=positive_class)
        assert str(err.value) == f"positive_class must be an integer, got {positive_class!r}"
        with pytest.raises(ValueError, match="^positive_class must be 0 or 1, got 2$"):
            auroc_rank(random_batch(7, 50, 2), positive_class=2)

    def test_batch_wrapper_requires_binary(self):
        with pytest.raises(ValueError):
            auroc_rank(random_batch(0, 30, 3), positive_class=0)


class TestCrossLibrary:
    def test_midranks_match_scipy_rankdata(self):
        from scipy.stats import rankdata

        from rankloss.metrics import _sorted_midranks

        rng = np.random.default_rng(5)
        for seed in range(300):
            n = int(rng.integers(1, 60))
            shape = (n,) if seed % 2 else (int(rng.integers(1, 5)), n)
            x = np.round(rng.normal(size=shape), seed % 3)  # heavy ties
            x[x == 0] = rng.choice([0.0, -0.0], size=int((x == 0).sum()))
            at, sorted_ranks = _sorted_midranks(x)
            ranks = np.empty(x.shape)
            ranks.put(at, sorted_ranks)
            assert np.array_equal(ranks, rankdata(x, method="average", axis=-1))

    def test_rank_rows_match_rank_scores(self):
        # The rows kernel on a stack of splits equals the one-row route and
        # the pairwise definition on each row's split.
        rng = np.random.default_rng(6)
        scores = np.round(rng.normal(size=(20, 40)), 1)
        positives = rng.random(size=(20, 40)) < 0.4
        positives[:, :2] = [True, False]
        n_pos = positives.sum(axis=1)
        got = _ranked_auroc(scores, positives, n_pos, 40 - n_pos)
        for row, flags, value in zip(scores, positives, got):
            assert value == auroc_rank_scores(row[flags], row[~flags]).value
            assert value == auroc_pairwise(row[flags], row[~flags]).value

    @pytest.mark.parametrize("ties", [False, True])
    def test_ranked_rows_match_pairwise_with_and_without_ties(self, ties):
        # Rows without a tie take the ranks as positions plus one; rows of
        # scores rounded to one digit are full of ties and take midranks.
        from rankloss.metrics import _sorted_midranks

        rng = np.random.default_rng(9)
        scores = rng.normal(size=(30, 50))
        if ties:
            scores = np.round(scores, 0)
        ordered = np.sort(scores, axis=1)
        has_tie = (ordered[:, 1:] == ordered[:, :-1]).any(axis=1)
        assert has_tie.all() if ties else not has_tie.any()
        at, ranks = _sorted_midranks(scores)
        assert np.array_equal(ranks[0], np.arange(1.0, 51.0)) != ties
        positives = rng.random(size=(30, 50)) < 0.3
        positives[:, :2] = [True, False]
        n_pos = positives.sum(axis=1)
        got = _ranked_auroc(scores, positives, n_pos, 50 - n_pos)
        for row, flags, value in zip(scores, positives, got):
            assert value == auroc_pairwise(row[flags], row[~flags]).value

    def test_matches_sklearn_binary(self):
        sk = pytest.importorskip("sklearn.metrics")
        for seed in range(20):
            pos, neg = random_pos_neg(seed, max_n=80, ties=seed % 2 == 0)
            y = np.concatenate([np.ones(len(pos), dtype=int), np.zeros(len(neg), dtype=int)])
            s = np.concatenate([pos, neg])
            expected = sk.roc_auc_score(y, s)
            assert auroc_rank_scores(pos, neg).value == pytest.approx(expected, abs=1e-12)

    def test_matches_sklearn_macro_ovr(self):
        sk = pytest.importorskip("sklearn.metrics")
        rng = np.random.default_rng(8)
        for seed in range(10):
            batch = random_batch(seed, 60, 3)
            raw = np.exp(batch.scores)
            probs = raw / raw.sum(axis=1, keepdims=True)
            expected = sk.roc_auc_score(batch.labels, probs, multi_class="ovr", average="macro")
            got = auroc_multiclass_ovr(
                PredictionBatch(probs, batch.labels, probabilities=True)
            ).value
            assert got == pytest.approx(expected, abs=1e-12)


class TestComplementSymmetry:
    def test_exact_complement(self):
        for seed in range(200):
            pos, neg = random_pos_neg(seed, max_n=60, ties=seed % 2 == 0)
            v = auroc_pairwise(pos, neg).value
            w = auroc_pairwise(neg, pos).value
            assert w == 1.0 - v
            assert v == 1.0 - w


class TestProperties:
    scores = st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40)
    # A handful of levels, so most pairs tie.
    quantized = st.lists(st.integers(-3, 3).map(lambda q: q / 4), min_size=1, max_size=40)

    @settings(deadline=None)
    @given(scores, scores)
    def test_rank_swap_complement(self, pos, neg):
        assert auroc_rank_scores(pos, neg).value == 1.0 - auroc_rank_scores(neg, pos).value

    @settings(deadline=None)
    @given(quantized, quantized)
    def test_rank_equals_pairwise_on_ties(self, pos, neg):
        assert auroc_rank_scores(pos, neg).value == auroc_pairwise(pos, neg).value

    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_ranking_stack_equals_pairwise(self, data):
        # Random (T, n, C) scores on a few levels, labels that leave some
        # trials' AUROC undefined (and only those have an error), a random subset of classes ranked, and
        # random trials masked out: every kept (trial, class) value is the
        # pairwise definition's on that column, bit for bit.
        T, n, C = data.draw(st.tuples(st.integers(1, 5), st.integers(2, 30), st.integers(2, 4)))
        levels = st.integers(-3, 3).map(lambda q: q / 4)
        scores = data.draw(hnp.arrays(np.float64, (T, n, C), elements=levels))
        labels = data.draw(hnp.arrays(np.int64, (T, n), elements=st.integers(0, C - 1)))
        classes = sorted(data.draw(st.sets(st.integers(0, C - 1), min_size=1)))
        ranking = _Ranking(labels, classes)
        for y, error in zip(labels, ranking.errors):
            assert (error is None) == all(0 < (y == c).sum() < n for c in classes)
        masked = data.draw(hnp.arrays(bool, T))
        keep = masked & np.array([e is None for e in ranking.errors])
        assume(keep.any())
        got = ranking(scores[keep], keep)
        assert got.shape == (keep.sum(), len(classes))
        for row, t in zip(got, np.flatnonzero(keep)):
            for value, c in zip(row, classes):
                col, y = scores[t, :, c], labels[t]
                assert value == auroc_pairwise(col[y == c], col[y != c]).value

    @settings(deadline=None)
    @given(
        st.lists(st.integers(0, 4), min_size=2, max_size=200).filter(lambda y: len(set(y)) >= 2),
        st.integers(1, 64),
        st.integers(0, 2**32 - 1),
        st.integers(0, 50),
    )
    def test_sampler_batches_hold_every_class(self, labels, batch_size, seed, epoch):
        y = np.array(labels)
        classes = np.unique(y)
        assume(batch_size >= classes.size)  # else InfeasibleBatchError
        batches = stratified_batches(y, batch_size, seed, epoch)
        assert np.array_equal(np.sort(np.concatenate(batches)), np.arange(y.size))
        for batch in batches:
            assert np.array_equal(np.unique(y[batch]), classes)


class TestBounds:
    def test_range_and_extremes(self):
        for seed in range(50):
            pos, neg = random_pos_neg(seed, max_n=50, ties=True)
            assert 0.0 <= auroc_pairwise(pos, neg).value <= 1.0
        assert auroc_pairwise([1.0, 2.0], [-1.0, 0.0]).value == 1.0
        assert auroc_pairwise([0.3] * 4, [0.3] * 5).value == 0.5


class TestMulticlassOvr:
    def test_one_hot_perfect(self):
        scores = np.eye(3)[[0, 0, 1, 1, 2, 2]]
        out = auroc_multiclass_ovr(PredictionBatch(scores, [0, 0, 1, 1, 2, 2]))
        assert out.value == 1.0
        assert all(r.value == 1.0 for r in out.per_class)

    def test_uniform_scores(self):
        scores = np.full((9, 3), 0.25)
        out = auroc_multiclass_ovr(PredictionBatch(scores, [0, 1, 2] * 3))
        assert out.value == 0.5

    def test_matches_per_class_pairwise_oracle(self):
        batch = random_batch(11, 30, 3)
        values = []
        for c in range(3):
            col = batch.scores[:, c]
            values.append(
                auroc_pairwise(col[batch.labels == c], col[batch.labels != c]).value
            )
        out = auroc_multiclass_ovr(batch)
        assert out.value == pytest.approx(np.mean(values), abs=1e-15)
        for got, expected in zip(out.per_class, values):
            assert got.value == expected

    def test_strict_missing_class(self):
        scores = np.random.default_rng(0).normal(size=(6, 3))
        with pytest.raises(EmptyClassError) as err:
            auroc_multiclass_ovr(PredictionBatch(scores, [0, 0, 0, 1, 1, 1]))
        assert err.value.class_index == 2
        assert str(err.value) == "class 2 has no samples: one-vs-rest AUROC is undefined"

    def test_strict_one_class_batch(self):
        # Class 0 holds every sample, so it has no negatives: the message
        # says so rather than calling the class empty.
        scores = np.random.default_rng(0).normal(size=(4, 3))
        with pytest.raises(EmptyClassError) as err:
            auroc_multiclass_ovr(PredictionBatch(scores, [0, 0, 0, 0]))
        assert err.value.class_index == 0
        assert str(err.value) == "every sample is of class 0: one-vs-rest AUROC is undefined"

    def test_lenient_skips_and_flags(self):
        scores = np.random.default_rng(0).normal(size=(6, 3))
        batch = PredictionBatch(scores, [0, 0, 0, 1, 1, 1])
        out = auroc_multiclass_ovr(batch, lenient=True)
        assert out.per_class[2] is None
        col0, col1 = scores[:, 0], scores[:, 1]
        expected = 0.5 * (
            auroc_pairwise(col0[:3], col0[3:]).value
            + auroc_pairwise(col1[3:], col1[:3]).value
        )
        assert out.value == pytest.approx(expected, abs=1e-15)

    def test_binary_reduction(self):
        # A probability column and its complement: macro OvR equals the
        # binary AUROC of the positive column.
        rng = np.random.default_rng(3)
        p = rng.random(40)
        labels = rng.integers(0, 2, size=40)
        labels[:2] = [0, 1]
        batch = PredictionBatch(np.column_stack([1.0 - p, p]), labels, probabilities=True)
        macro = auroc_multiclass_ovr(batch).value
        binary = auroc_pairwise(p[labels == 1], p[labels == 0]).value
        assert abs(macro - binary) <= 1e-12


def _auroc_after(batch, transform):
    """Macro one-vs-rest AUROC and per-class values before and after
    transforming the scores."""
    transformed = PredictionBatch(transform(batch.scores), batch.labels)
    return [(r.value, [c.value for c in r.per_class])
            for r in (auroc_multiclass_ovr(batch), auroc_multiclass_ovr(transformed))]


class TestMonotoneCheck:
    # AUROC depends only on the order of the scores, so a strictly
    # increasing transform leaves the macro and per-class values unchanged.
    def test_affine_positive(self):
        before, after = _auroc_after(random_batch(5, 40, 3), lambda s: 2.0 * s + 1.0)
        assert before == after

    def test_cubic(self):
        before, after = _auroc_after(random_batch(6, 40, 2), lambda s: s**3)
        assert before == after

    def test_negation_detected(self):
        batch = random_batch(7, 40, 2)
        before, after = _auroc_after(batch, lambda s: -s)
        assert before != after
        # Negation maps the AUROC to its complement.
        before = auroc_rank(batch, 1).value
        negated = PredictionBatch(-batch.scores, batch.labels)
        assert auroc_rank(negated, 1).value == 1.0 - before

    def test_monotone_invariance_property(self):
        for seed in range(20):
            before, after = _auroc_after(random_batch(seed, 30, 3), np.tanh)
            assert before == after


class TestPredictionBatch:
    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            PredictionBatch(np.zeros((3, 2)), [0, 1])

    def test_label_out_of_range(self):
        with pytest.raises(ValueError):
            PredictionBatch(np.zeros((3, 2)), [0, 1, 2])

    def test_non_finite_scores(self):
        scores = np.zeros((2, 2))
        scores[0, 0] = np.inf
        with pytest.raises(ValueError):
            PredictionBatch(scores, [0, 1])

    def test_counts(self):
        batch = PredictionBatch(np.zeros((4, 3)), [0, 0, 1, 2])
        assert batch.class_counts().tolist() == [2, 1, 1]
        assert batch.n_samples == 4 and batch.n_classes == 3


# Every public entry that takes class labels checks them by one rule
# (``metrics._class_labels``). Each entry runs on 8 binary-labelled samples
# and returns what its labels decide.
_LABELS = np.array([0, 1, 0, 1, 1, 0, 0, 1])
_FEATURES = np.random.default_rng(3).normal(size=(8, 2))


def _stack():
    return MLPStack.of([init_model([2, 3, 2], seed=1)])


_LABEL_ENTRIES = {
    "PredictionBatch": lambda y: auroc_rank(PredictionBatch(_FEATURES, y), 1).value,
    "Dataset": lambda y: Dataset(_FEATURES, y, 2).labels,
    "stacked_loss": lambda y: stacked_loss("auc_binary", _FEATURES[None], y[None], want_grad=True),
    "train_stacked": lambda y: train_stacked(
        _stack(), _FEATURES[None], y[None], _FEATURES[None], y[None],
        [TrainConfig(batch_size=4, loss_kind="cross_entropy", max_epochs=2)]).model.params,
    "evaluate_auroc_stacked": lambda y: evaluate_auroc_stacked(
        _stack(), _FEATURES[None], y[None])[0],
}


@pytest.mark.parametrize("entry", list(_LABEL_ENTRIES))
@pytest.mark.parametrize("labels", [
    np.where(_LABELS == 1, 1.7, 0.0),
    _LABELS.astype(bool),
    _LABELS.astype(str),
    _LABELS.astype(object),
], ids=["float", "bool", "str", "object"])
def test_entries_reject_labels_that_are_not_integers(entry, labels):
    with pytest.raises(ValueError, match="labels must be integer"):
        _LABEL_ENTRIES[entry](labels)


@pytest.mark.parametrize("entry", list(_LABEL_ENTRIES))
@pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.float64])
def test_entries_take_integer_labels_of_any_dtype(entry, dtype):
    # Integer dtypes and whole-number floats give what int64 labels give.
    np.testing.assert_equal(_LABEL_ENTRIES[entry](_LABELS.astype(dtype)),
                            _LABEL_ENTRIES[entry](_LABELS))
