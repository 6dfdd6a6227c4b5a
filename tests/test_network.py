import pickle
import sys
import threading
import tracemalloc
import warnings
from copy import deepcopy
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rankloss
from rankloss import (
    FieldError,
    InfeasibleBatchError,
    MLPStack,
    NonFiniteError,
    PredictionBatch,
    RanklossError,
    SplitSpec,
    SurrogateParams,
    SyntheticSpec,
    TrainConfig,
    evaluate_auroc_stacked,
    forward,
    generate_synthetic,
    init_model,
    monte_carlo_split,
    stratified_batches,
    train_stacked,
    trial_seeds,
)
import rankloss.losses
from rankloss.losses import DEFAULT_SURROGATE, PAIR_BLOCK, _kernel, _targets
from rankloss.network import (_batch_index, _hidden_buffers, _label_classes, _LabelGroups,
                              _layers, _plan, _row_generators, _Scorer, _step, _value_needed)

import oracle
from conftest import blobs, kernel_loss, train_on_threads
from oracle import evaluate_auroc, multiclass_auc_loss, train


def separable_blobs(seed=1, counts=(40, 40), sep=6.0):
    spec = SyntheticSpec(
        class_counts=counts, dim=4, class_mean_separation=sep, noise_std=1.0, seed=seed
    )
    return generate_synthetic(spec)


def split_arrays(ds, base_seed=0, trial=0):
    tr, va, _ = monte_carlo_split(ds.n_samples, ds.labels, SplitSpec(base_seed=base_seed), trial)
    return ds.features[tr], ds.labels[tr], ds.features[va], ds.labels[va]


# Seeds and epochs of one, two and three or more uint32 words.
_WORDS = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                   st.integers(2**64, 2**200))


class TestInitModel:
    def test_deterministic(self):
        a = init_model([4, 2], seed=7)
        b = init_model([4, 2], seed=7)
        assert all(np.array_equal(x, y) for x, y in zip(a.weights, b.weights))
        assert all(np.array_equal(x, y) for x, y in zip(a.biases, b.biases))

    def test_forward_shape(self):
        model = init_model([4, 8, 3], seed=0)
        logits = forward(model, np.zeros((5, 4)))
        assert logits.shape == (5, 3)

    def test_biases_zero(self):
        model = init_model([4, 8, 3], seed=0)
        assert all(np.all(b == 0.0) for b in model.biases)

    def test_weight_scale(self):
        model = init_model([100, 10], seed=0)
        bound = 1.0 / np.sqrt(100)
        assert np.abs(model.weights[0]).max() <= bound

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            init_model([4], seed=0)
        with pytest.raises(ValueError):
            init_model([4, 0], seed=0)
        # A float is not a layer width, even a whole one.
        for dims in ([4, 4.9, 3], [4.0, 3], [4, np.float64(3.0)]):
            with pytest.raises(ValueError, match="^layer dims must be positive integers"):
                init_model(dims, seed=0)
        assert init_model([np.int64(4), np.uint8(3)], seed=0).layer_dims == (4, 3)

    @pytest.mark.parametrize("seed", [1.5, 1.0, np.float64(2.0)])
    def test_float_seed(self, seed):
        with pytest.raises(ValueError, match="^seed must be an integer, got "):
            init_model([4, 3], seed=seed)


class TestForward:
    def test_zero_weights_zero_logits(self):
        model = MLPStack((3, 2))
        assert np.all(forward(model, np.random.default_rng(0).normal(size=(4, 3))) == 0.0)

    def test_identity_layer(self):
        model = MLPStack((2, 2))
        model.weights[0][:] = np.eye(2)
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(forward(model, x), x)

    def test_hand_computed(self):
        # x = [1, 2]; pre1 = [1*1 + 2*2 + 0.5, -1 + 0 - 0.5] = [5.5, -1.5];
        # relu -> [5.5, 0]; logits = [5.5, 5.5*2 + 1] = [5.5, 12.0].
        model = MLPStack((2, 2, 2))
        model.weights[0][:] = [[1.0, -1.0], [2.0, 0.0]]
        model.weights[1][:] = [[1.0, 2.0], [3.0, 4.0]]
        model.biases[0][:] = [0.5, -0.5]
        model.biases[1][:] = [0.0, 1.0]
        assert forward(model, np.array([[1.0, 2.0]])).tolist() == [[5.5, 12.0]]

    def test_width_mismatch(self):
        model = init_model([4, 2], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((3, 5)))

    @pytest.mark.parametrize("seed", [0, 7])
    def test_matches_textbook_layers_and_stack(self, seed):
        # The protocol's shape (8 features, 16 hidden, 3 classes, 339 rows):
        # forward is bit for bit the textbook loop with each bias folded into
        # its weight block, [a, 1] @ [W; b], and the engine's stacked pass
        # over a stack of one. The fold moves only rounding from a @ W + b.
        rng = np.random.default_rng(seed)
        model = init_model([8, 16, 3], seed=seed)
        for b in model.biases:
            b[:] = rng.normal(size=b.shape)
        x = rng.normal(size=(339, 8))
        ones = np.ones((339, 1))
        blocks = [np.vstack([w, b]) for w, b in zip(model.weights, model.biases)]
        want = np.maximum(np.hstack([x, ones]) @ blocks[0], 0.0)
        want = np.hstack([want, ones]) @ blocks[1]
        stack = MLPStack.of([model])
        got = forward(model, x)
        assert np.array_equal(got, want)
        assert np.array_equal(got, _layers(stack.blocks, np.hstack([x, ones])[None])[0])
        unfolded = np.maximum(x @ model.weights[0] + model.biases[0], 0.0)
        unfolded = unfolded @ model.weights[1] + model.biases[1]
        assert np.max(np.abs(got - unfolded)) <= 1e-12


class TestStratifiedBatches:
    def test_minimal_balanced(self):
        labels = np.array([0, 1, 0, 1, 0, 1])
        batches = stratified_batches(labels, batch_size=2, seed=0, epoch=0)
        assert len(batches) == 3
        for b in batches:
            assert sorted(labels[b]) == [0, 1]

    def test_single_class_infeasible(self):
        with pytest.raises(InfeasibleBatchError):
            stratified_batches(np.zeros(10, dtype=int), batch_size=2, seed=0, epoch=0)

    def test_batch_smaller_than_class_count_infeasible(self):
        with pytest.raises(InfeasibleBatchError):
            stratified_batches(np.array([0, 1, 2, 0, 1, 2]), batch_size=2, seed=0, epoch=0)

    @pytest.mark.parametrize("labels, batch_size, seed, epoch, error, message", [
        ([[0, 1], [1, 0]], 2, -1, 0, ValueError, "labels must be a non-empty 1-D array"),
        ([], 2, -1, 0, ValueError, "labels must be a non-empty 1-D array"),
        ([0, 0, 0, 0], 2, -1, 0, ValueError, "seed and epoch must be nonnegative, got -1 and 0"),
        ([0, 0, 0, 0], 2, 0, -1, ValueError, "seed and epoch must be nonnegative, got 0 and -1"),
        ([0, 1, 0, 1], 0, -1, 0, ValueError, "seed and epoch must be nonnegative, got -1 and 0"),
        ([0, 0, 0, 0], 2, 0, 0, InfeasibleBatchError,
         "cannot form class-balanced batches from a single class"),
        ([0, 0, 0, 0], 0, 0, 0, InfeasibleBatchError,
         "cannot form class-balanced batches from a single class"),
        ([0, 1, 2, 0, 1, 2], 2, 0, 0, InfeasibleBatchError,
         "batch_size 2 cannot hold one sample of each of 3 classes"),
        ([0, 1, 0, 1], 0, 0, 0, InfeasibleBatchError,
         "batch_size 0 cannot hold one sample of each of 2 classes"),
        ([0, 1] * 10, 2.5, 0, 0, ValueError, "batch_size must be an integer, got 2.5"),
        ([[0, 1], [1, 0]], np.float64(2.0), -1, 0, ValueError,
         "batch_size must be an integer, got np.float64(2.0)"),
        ([0, 1] * 10, 4, 1.5, 0, ValueError, "seed and epoch must be integers, got 1.5 and 0"),
        ([0, 1] * 10, 4, 0, np.float64(2.0), ValueError,
         "seed and epoch must be integers, got 0 and np.float64(2.0)"),
        ([[0, 1], [1, 0]], 2, 1.5, 0, ValueError, "labels must be a non-empty 1-D array"),
        ([0, 0, 0, 0], 2, 1.0, 0, ValueError, "seed and epoch must be integers, got 1.0 and 0"),
    ])
    def test_boundary_errors(self, labels, batch_size, seed, epoch, error, message):
        # That batch_size is an integer is checked first, then the labels,
        # then seed and epoch, then whether balanced batches can exist.
        with pytest.raises(error) as exc:
            stratified_batches(np.array(labels), batch_size, seed, epoch)
        assert type(exc.value) is error and str(exc.value) == message

    @pytest.mark.parametrize("missing", [np.nan, complex(np.nan, 1), np.datetime64("NaT", "D")],
                             ids=["float", "complex", "datetime"])
    @pytest.mark.parametrize("batch_size", [4, 2])
    def test_nan_labels_rejected_before_the_seed(self, missing, batch_size):
        # NaN and NaT equal no label, so their class would have no members:
        # a ValueError of the labels check, before the seed's, rather than
        # a division by a batch count of 0 or an InfeasibleBatchError that
        # counts the NaN class.
        labels = np.array([np.nan, 1, 0, 1, 0, 1, 0, 1, np.nan, 1, 0, 0])
        if isinstance(missing, np.datetime64):
            labels = np.datetime64("2020-01-01", "D") + np.nan_to_num(labels).astype(int)
        labels = labels.astype(np.asarray(missing).dtype)
        labels[[0, 8]] = missing
        for seed in (3, -1):
            with pytest.raises(ValueError, match="^labels must not contain NaN or NaT$"):
                stratified_batches(labels, batch_size, seed, 1)
        # monte_carlo_split keeps its own error for them.
        with pytest.raises(rankloss.TooSmallError,
                           match=r"^class .*: the train partition would receive no samples"):
            monte_carlo_split(labels.size, labels, SplitSpec(), 0)

    @pytest.mark.parametrize("batch_size", [5, np.int64(5), np.uint8(5), np.int32(5)])
    def test_integer_batch_sizes(self, batch_size):
        # Python and NumPy integers give the same batches; a Python integer
        # past the int64 range gives one batch.
        labels = np.array([0, 1] * 10)
        want = stratified_batches(labels, 5, 3, 1)
        got = stratified_batches(labels, batch_size, 3, 1)
        assert len(got) == 4 and all(np.array_equal(a, b) for a, b in zip(got, want))
        (whole,) = stratified_batches(labels, 2**70, 3, 1)
        assert sorted(whole.tolist()) == list(range(20))

    def test_imbalanced_minority_guarantee(self):
        labels = np.concatenate([np.zeros(90, dtype=int), np.ones(10, dtype=int)])
        for seed in range(50):
            batches = stratified_batches(labels, batch_size=8, seed=seed, epoch=0)
            union = np.sort(np.concatenate(batches))
            assert np.array_equal(union, np.arange(100))
            for b in batches:
                assert (labels[b] == 1).any() and (labels[b] == 0).any()

    def test_deterministic_per_epoch_and_reshuffled_across(self):
        labels = np.array([0, 1] * 20)
        a = stratified_batches(labels, 4, seed=9, epoch=3)
        b = stratified_batches(labels, 4, seed=9, epoch=3)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))
        c = stratified_batches(labels, 4, seed=9, epoch=4)
        assert not all(np.array_equal(x, y) for x, y in zip(a, c))

    def test_oversized_batch_becomes_single(self):
        labels = np.array([0, 1] * 5)
        batches = stratified_batches(labels, batch_size=64, seed=0, epoch=0)
        assert len(batches) == 1 and batches[0].size == 10

    def test_pinned_batches(self):
        # The (seed, epoch) stream is part of every manifest: these batches
        # come from the np.array_split form of the sampler (_reference_batches).
        labels = np.array([0, 1, 2, 0, 0, 1, 2, 2, 0, 1, 0, 2, 0, 0, 1, 2, 0, 2, 1, 0])
        batches = stratified_batches(labels, 6, seed=11, epoch=3)
        assert [b.tolist() for b in batches] == [
            [10, 13, 4, 5, 17, 7],
            [0, 3, 19, 9, 14, 2, 6],
            [8, 12, 16, 1, 18, 15, 11],
        ]
        # The members are those the sampler drew when it still shuffled
        # each batch's rows; only the order within a batch changed.
        assert [set(b.tolist()) for b in batches] == [
            {7, 13, 10, 4, 5, 17},
            {2, 14, 6, 19, 9, 0, 3},
            {12, 16, 18, 1, 11, 15, 8},
        ]

    def test_pinned_batches_clamped_count(self):
        # Recorded from the per-trial sampler: the smallest class clamps the
        # batch count to 2, and the middle class splits 3 + 2.
        labels = np.array([0, 1, 1, 0, 2, 0, 0, 1, 0, 2, 0, 0, 1, 0, 1])
        batches = stratified_batches(labels, 4, seed=9, epoch=3)
        assert [b.tolist() for b in batches] == [
            [10, 6, 0, 3, 1, 14, 9],
            [5, 8, 13, 11, 7, 12, 2, 4],
        ]
        # The same members as the in-batch shuffling sampler drew.
        assert [set(b.tolist()) for b in batches] == [
            {10, 1, 0, 14, 9, 6, 3},
            {4, 8, 2, 7, 5, 12, 13, 11},
        ]

    @settings(max_examples=60, deadline=None)
    @given(
        counts=st.lists(st.integers(1, 12), min_size=1, max_size=4),
        n_trials=st.integers(1, 4),
        batch_size=st.integers(1, 12),
        epoch=st.integers(0, 5),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_index_stacks_per_trial_batches(self, counts, n_trials, batch_size, epoch,
                                                  data_seed):
        rng = np.random.default_rng(data_seed)
        labels = [rng.permutation(np.repeat(np.arange(len(counts)), counts))
                  for _ in range(n_trials)]
        seeds = rng.integers(0, 2**32, size=n_trials).tolist()
        try:
            want = [stratified_batches(y, batch_size, s, epoch) for y, s in zip(labels, seeds)]
        except InfeasibleBatchError as exc:
            for y in labels:
                error = _LabelGroups(y, batch_size).error
                assert type(error) is InfeasibleBatchError and str(error) == str(exc)
            return
        groups = [_LabelGroups(y, batch_size) for y in labels]
        assert all(trial.error is None for trial in groups)
        index, sizes, runs, starts = _batch_index(groups, seeds, [epoch] * n_trials)
        n_batches = len(want[0])
        width = sum(-(-m // n_batches) for m in counts)
        assert index.shape == (n_trials, n_batches, width)
        assert sizes.tolist() == [[b.size for b in trial] for trial in want]
        # Batch b of trial t holds runs[t, c, b] rows of class c from row
        # starts[t, c, b] on.
        assert np.array_equal(starts, np.cumsum(runs, axis=1) - runs)
        for y, rows, trial_sizes, trial, trial_runs in zip(labels, index, sizes, want, runs):
            for row, size, batch, batch_runs in zip(rows, trial_sizes, trial, trial_runs.T):
                assert np.array_equal(row[:size], batch)
                assert not row[size:].any()
                assert np.array_equal(y[batch], np.repeat(np.arange(len(counts)), batch_runs))

    @settings(max_examples=60, deadline=None)
    @given(
        n_classes=st.integers(2, 4),
        rows=st.integers(0, 40),
        n_trials=st.integers(1, 4),
        extra=st.integers(0, 10),
        epochs=st.lists(st.integers(0, 2**20), min_size=1, max_size=5),
        data_seed=st.integers(0, 2**32 - 1),
    )
    def test_batch_index_chunk_equals_per_epoch_calls(self, n_classes, rows, n_trials, extra,
                                                      epochs, data_seed):
        # The engine samples a chunk of epochs in one call, one row per
        # (epoch, trial). Each epoch's rows equal, field by field, that
        # epoch's own call, for trials whose class counts, and so widths,
        # differ, and for any epochs in any order, repeats included.
        rng = np.random.default_rng(data_seed)
        labels = rng.integers(0, n_classes, size=(n_trials, n_classes + rows))
        labels[:, :n_classes] = np.arange(n_classes)
        groups = [_LabelGroups(y, n_classes + extra) for y in rng.permuted(labels, axis=1)]
        groups = [g for g in groups if g.n_batches == groups[0].n_batches]
        seeds = rng.integers(0, 2**32, size=len(groups)).tolist()
        chunk = _batch_index(groups * len(epochs), seeds * len(epochs),
                             [e for e in epochs for _ in seeds])
        for k, epoch in enumerate(epochs):
            alone = _batch_index(groups, seeds, [epoch] * len(groups))
            for got, want in zip(chunk, alone, strict=True):
                assert got.dtype == want.dtype
                assert np.array_equal(got[k * len(groups):(k + 1) * len(groups)], want)

    @settings(max_examples=60, deadline=None)
    @given(rows=st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=6))
    @example(rows=[(0, 0), (2**32 - 1, 2**32 - 1), (2**32, 2**32), (2**64 + 1, 2**64 + 1)])
    @example(rows=[(3, 2**64 + 1), (2**32, 0), (0, 7), (2**32 - 1, 2**32), (2**200, 1)])
    def test_row_generators_are_default_rng(self, rows):
        # The sampler seeds a chunk's rows from one pass of SeedSequence's
        # hash per entropy length, for seeds and epochs of one, two or more
        # uint32 words, mixed in one chunk. Each row's generator is
        # default_rng([seed, epoch]), state and stream, and the hash's
        # wrapping uint32 arithmetic raises no warning.
        seeds, epochs = zip(*rows)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            generators = _row_generators(seeds, epochs)
        for (seed, epoch), rng in zip(rows, generators, strict=True):
            want = np.random.default_rng([seed, epoch])
            assert rng.bit_generator.state == want.bit_generator.state
            assert np.array_equal(rng.permutation(20), want.permutation(20))

    @pytest.mark.parametrize("kind, counts, batch_size", [
        ("cross_entropy", (143, 71, 125), 8),
        ("auc_multiclass", (143, 71, 125), 64),
        ("auc_binary", (60, 25), 8),
    ])
    def test_step_plan(self, kind, counts, batch_size):
        # Each step holds every trial's batch of that step, in trial order,
        # padded to the trials' width sum_c ceil(m_c / n_batches) with
        # copies of its first row; its label data is what losses._targets
        # derives from those batches' labels, padded with -1, on its own.
        ds = generate_synthetic(SyntheticSpec(class_counts=counts, dim=8,
                                              class_mean_separation=2.0, noise_std=1.0,
                                              label_flip_prob=0.05, seed=42))
        tr = np.stack([monte_carlo_split(ds.n_samples, ds.labels, SplitSpec(), t)[0]
                       for t in range(6)])
        x, y = ds.features[tr], ds.labels[tr]
        seeds = [trial_seeds(0, t).shuffle for t in range(6)]
        batches = _batch_index([_LabelGroups(labels, batch_size) for labels in y], seeds, [2] * 6)
        steps = _plan(batches, x, y, kind, len(counts))
        want = [stratified_batches(labels, batch_size, seed, 2) for labels, seed in zip(y, seeds)]
        assert len(steps) == len(want[0])
        width = sum(-(-m // len(want[0])) for m in np.bincount(y[0]))
        rng = np.random.default_rng(0)
        for b, step in enumerate(steps):
            assert step.x.shape == (6, width, x.shape[2])
            labels = np.full((6, width), -1)
            for t in range(6):
                rows = want[t][b]
                padded = np.concatenate([rows, np.full(width - rows.size, rows[0])])
                assert np.array_equal(step.x[t], x[t, padded])
                assert step.real[t].tolist() == [i < rows.size for i in range(width)]
                labels[t, : rows.size] = y[t, rows]
            logits = rng.normal(size=labels.shape + (len(counts),))
            planned = _kernel(kind, logits, step.targets, DEFAULT_SURROGATE, True)
            derived = kernel_loss(kind, logits, labels, want_grad=True)
            assert all(np.array_equal(a, b) for a, b in zip(planned, derived))
        assert not all(step.real.all() for step in steps)

    @pytest.mark.parametrize("kind, counts, batch_size, clamped", [
        ("auc_binary", [(60, 25), (58, 27), (63, 22)], 8, False),
        ("auc_binary", [(40, 3), (3, 40), (40, 3)], 4, True),
        ("auc_multiclass", [(143, 71, 125), (140, 75, 124), (150, 68, 121)], 64, False),
        ("auc_multiclass", [(30, 4, 26), (28, 4, 28), (31, 4, 25)], 4, True),
        ("auc_multiclass", [(20, 9, 30, 22), (22, 9, 28, 22), (19, 10, 30, 22)], 16, False),
    ])
    def test_class_run_targets_equal_sorted_targets(self, kind, counts, batch_size, clamped):
        # The engine reads an AUC kind's targets off the sampler's class
        # runs. They equal, field for field, what losses._targets derives by
        # sorting the labels of the same class-ordered batches, for trials
        # whose class counts, and so per-batch counts, differ.
        rng = np.random.default_rng(0)
        labels = np.stack([rng.permutation(np.repeat(np.arange(len(c)), c)) for c in counts])
        groups = [_LabelGroups(y, batch_size) for y in labels]
        batches = _batch_index(groups, range(len(counts)), [1] * len(counts))
        index, sizes, runs, _ = batches
        assert (index.shape[1] < labels.shape[1] // batch_size) == clamped
        assert (runs != runs[:1]).any()
        steps = _plan(batches, np.zeros((*labels.shape, 1)), labels, kind, len(counts[0]))
        real = np.arange(index.shape[2]) < sizes[:, :, None]
        padded = np.where(real, np.take_along_axis(labels[:, None], index, axis=2), -1)
        sorted_targets = _targets(kind, padded.transpose(1, 0, 2), len(counts[0]))
        assert len(steps) == len(sorted_targets) == index.shape[1]
        for step, want in zip(steps, sorted_targets):
            assert len(step.targets.pairs) == len(want.pairs)
            for got, expected in zip(step.targets.pairs, want.pairs):
                assert got.c == expected.c
                for name in ("pos_at", "neg_at", "n_pos", "n_neg"):
                    assert np.array_equal(getattr(got, name), getattr(expected, name)), name

    @pytest.mark.parametrize("labels", [
        [2, 0, 1, 0, 2, 1], [-3, 5, -3], list("bab"), [0.5, np.nan, -1.0, np.nan, 0.5],
        np.array(["2020-01-02", "NaT", "2020-01-01", "NaT"], dtype="datetime64[D]"),
        [complex(np.nan, 0), 1j, complex(0, np.nan), 1j], [np.nan, np.nan],
    ])
    def test_label_classes_are_np_unique(self, labels):
        # The sampler and monte_carlo_split group labels into np.unique's
        # classes, in its order, without calling it (it imports numpy.ma):
        # NaNs (or NaTs) are one class, which == finds no members of.
        y = np.asarray(labels)
        classes, members = _label_classes(y)
        want = np.unique(y)
        assert classes.dtype == want.dtype and list(map(str, classes)) == list(map(str, want))
        assert [m.tolist() for m in members] == [np.flatnonzero(y == c).tolist() for c in want]

    def test_matches_array_split_reference(self):
        rng = np.random.default_rng(4)
        for _ in range(40):
            n_classes = int(rng.integers(2, 5))
            labels = rng.integers(0, n_classes, size=int(rng.integers(3 * n_classes, 150)))
            labels[:n_classes] = np.arange(n_classes)
            for batch_size in (n_classes, 8, 64):
                for seed, epoch in ((0, 0), (7, 3)):
                    got = stratified_batches(labels, batch_size, seed, epoch)
                    want = _reference_batches(labels, batch_size, seed, epoch)
                    assert len(got) == len(want)
                    assert all(np.array_equal(a, b) for a, b in zip(got, want))
                    # Batches are class-ordered, and hold the members the
                    # sampler drew when it still shuffled each batch.
                    shuffled = _reference_batches(labels, batch_size, seed, epoch,
                                                  shuffle_rows=True)
                    for a, b in zip(got, shuffled):
                        assert (np.diff(labels[a]) >= 0).all()
                        assert np.array_equal(np.sort(a), np.sort(b))


def _reference_batches(labels, batch_size, seed, epoch, shuffle_rows=False):
    """The sampler as first written: regroup, np.array_split; with
    ``shuffle_rows``, a final permutation of each batch's rows, as the
    sampler once drew."""
    classes, counts = np.unique(labels, return_counts=True)
    n_batches = min(max(1, labels.size // batch_size), int(counts.min()))
    rng = np.random.default_rng([seed, epoch])
    members = [[] for _ in range(n_batches)]
    for c in classes:
        idx = rng.permutation(np.flatnonzero(labels == c))
        placement = rng.permutation(n_batches)
        for b, chunk in zip(placement, np.array_split(idx, n_batches)):
            members[b].append(chunk)
    if shuffle_rows:
        return [rng.permutation(np.concatenate(parts)) for parts in members]
    return [np.concatenate(parts) for parts in members]


class TestTrain:
    def test_separable_reaches_high_auroc(self):
        ds = separable_blobs()
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 16, 2], seed=5)
        for kind in ("cross_entropy", "auc_binary"):
            cfg = TrainConfig(batch_size=8, loss_kind=kind, max_epochs=40, seed=11)
            _, history = train(model, tr_x, tr_y, va_x, va_y, cfg)
            assert history.best_val_auroc >= 0.99

    def test_zero_learning_rate_is_noop(self):
        ds = separable_blobs()
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 8, 2], seed=5)
        cfg = TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=3,
                          learning_rate=0.0, seed=11)
        trained, _ = train(model, tr_x, tr_y, va_x, va_y, cfg)
        assert all(np.array_equal(w, w0) for w, w0 in zip(trained.weights, model.weights))
        assert all(np.array_equal(b, b0) for b, b0 in zip(trained.biases, model.biases))

    def test_bit_identical_reruns(self):
        ds = separable_blobs(seed=3, sep=2.0)
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 8, 2], seed=5)
        cfg = TrainConfig(batch_size=8, loss_kind="auc_binary", max_epochs=10, seed=11)
        m1, h1 = train(model, tr_x, tr_y, va_x, va_y, cfg)
        m2, h2 = train(model, tr_x, tr_y, va_x, va_y, cfg)
        assert h1 == h2
        assert all(np.array_equal(a, b) for a, b in zip(m1.weights, m2.weights))

    def test_input_model_not_mutated(self):
        ds = separable_blobs()
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 8, 2], seed=5)
        before = [w.copy() for w in model.weights]
        cfg = TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=3, seed=1)
        train(model, tr_x, tr_y, va_x, va_y, cfg)
        assert all(np.array_equal(w, b) for w, b in zip(model.weights, before))

    def test_loss_decreases_on_separable_data(self):
        ds = separable_blobs()
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 16, 2], seed=5)
        for kind in ("cross_entropy", "auc_binary"):
            cfg = TrainConfig(batch_size=8, loss_kind=kind, max_epochs=20, seed=2)
            _, history = train(model, tr_x, tr_y, va_x, va_y, cfg)
            assert history.train_loss[history.best_epoch] < history.initial_loss

    def test_checkpoint_is_best_epoch(self):
        ds = separable_blobs(seed=9, sep=1.5)
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 8, 2], seed=5)
        cfg = TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=15, seed=3)
        trained, history = train(model, tr_x, tr_y, va_x, va_y, cfg)
        assert history.val_auroc[history.best_epoch] == max(history.val_auroc)
        # Ties resolve to the earliest epoch.
        first_max = history.val_auroc.index(max(history.val_auroc))
        assert history.best_epoch == first_max
        # The returned snapshot reproduces the recorded best validation AUROC.
        assert evaluate_auroc(trained, va_x, va_y) == history.best_val_auroc

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_reports_position(self):
        ds = separable_blobs()
        tr_x, tr_y, va_x, va_y = split_arrays(ds)
        model = init_model([4, 8, 2], seed=5)
        cfg = TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=40,
                          learning_rate=1e18, seed=1)
        with pytest.raises(NonFiniteError) as err:
            train(model, 1e3 * tr_x, tr_y, 1e3 * va_x, va_y, cfg)
        assert err.value.epoch is not None and err.value.batch is not None

    @staticmethod
    def _one_input_model():
        return MLPStack((1, 2))

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_divergence_in_only_batch_caught_by_validation_pass(self):
        # One batch per epoch: the step that overflows the weights is the
        # epoch's last, so the validation pass sees the poisoned logits.
        x = np.full((4, 1), 1e10)
        y = np.array([0, 0, 0, 1])
        cfg = TrainConfig(batch_size=4, loss_kind="cross_entropy", max_epochs=3,
                          learning_rate=1e300)
        with pytest.raises(NonFiniteError) as err:
            train(self._one_input_model(), x, y, x, y, cfg)
        assert (err.value.epoch, err.value.batch) == (0, None)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_infinite_loss_from_finite_logits(self):
        # The first step moves the logits to about +-1.25e308: finite, but
        # their gap overflows, so the class-1 sample's cross entropy is inf.
        x = np.full((4, 1), 2.0)
        y = np.array([0, 0, 0, 1])
        cfg = TrainConfig(batch_size=4, loss_kind="cross_entropy", max_epochs=3,
                          learning_rate=1e308)
        with pytest.raises(NonFiniteError) as err:
            train(self._one_input_model(), x, y, x, y, cfg)
        assert (err.value.epoch, err.value.batch) == (1, 0)
        assert "loss" in str(err.value)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(batch_size=1, loss_kind="cross_entropy")
        for batch_size in (2.5, 8.0, np.float64(8.0), "8"):
            with pytest.raises(FieldError, match="^batch_size must be an integer") as exc:
                TrainConfig(batch_size=batch_size, loss_kind="cross_entropy")
            assert exc.value.field == "batch_size"
        for batch_size in (8, np.int64(8), 2**70):
            assert TrainConfig(batch_size=batch_size, loss_kind="cross_entropy").batch_size == batch_size
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8, loss_kind="mse")
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8, loss_kind="cross_entropy", learning_rate=-0.1)
        for field, value in (("max_epochs", 2.5), ("max_epochs", 3.0), ("seed", 1.5),
                             ("seed", np.float64(2.0))):
            with pytest.raises(FieldError, match=f"^{field} must be an integer") as exc:
                TrainConfig(batch_size=8, loss_kind="cross_entropy", **{field: value})
            assert exc.value.field == field


class TestMLPStack:
    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_params_layout(self, hidden):
        # Row t of params is model t's blocks, layer by layer, each the
        # layer's weights and then its biases as the last row; the stack's
        # blocks, weights and biases are views of those columns.
        dims = (5, *hidden, 3)
        rng = np.random.default_rng(0)
        models = [init_model(dims, seed) for seed in range(3)]
        for model in models:
            for b in model.biases:
                b[:] = rng.normal(size=b.shape)
        stack = MLPStack.of(models)
        assert stack.n_models == 3
        for t, model in enumerate(models):
            copy = stack.model(t)
            for a, b in zip(model.weights + model.biases, copy.weights + copy.biases):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
                assert not np.shares_memory(b, stack.params)
        layers = list(zip(dims[:-1], dims[1:]))
        assert [w.shape for w in stack.weights] == [(3, *shape) for shape in layers]
        assert [b.shape for b in stack.biases] == [(3, fan_out) for _, fan_out in layers]
        assert [b.shape for b in stack.blocks] == [(3, fan_in + 1, fan_out)
                                                   for fan_in, fan_out in layers]
        # Distinct values written through params show where each view sits.
        stack.params[:] = np.arange(stack.params.size).reshape(stack.params.shape)
        start = 0
        for block, w, b in zip(stack.blocks, stack.weights, stack.biases):
            for view in (block, w, b):
                assert np.shares_memory(view, stack.params)
            width = block[0].size
            assert np.array_equal(block, stack.params[:, start : start + width].reshape(block.shape))
            assert np.array_equal(w, block[:, :-1]) and np.array_equal(b, block[:, -1])
            start += width
        assert start == stack.params.shape[1]

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_copy_shares_no_memory(self, hidden):
        stack = MLPStack.of([init_model((5, *hidden, 3), seed) for seed in range(3)])
        copy = stack.copy()
        assert copy.layer_dims == stack.layer_dims
        assert copy.params.tobytes() == stack.params.tobytes()
        for array in [copy.params, *copy.blocks, *copy.weights, *copy.biases]:
            assert not np.shares_memory(array, stack.params)

    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_init_model_keeps_its_draws(self, hidden, seed):
        # One net's params are its layers' [W; b] blocks raveled in turn:
        # the same uniform draws, in the same order, as independent weight
        # matrices and zero bias vectors gave.
        dims = (5, *hidden, 3)
        rng = np.random.default_rng(seed)
        parts = []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = 1.0 / np.sqrt(fan_in)
            parts += [rng.uniform(-bound, bound, size=(fan_in, fan_out)).ravel(), np.zeros(fan_out)]
        model = init_model(dims, seed)
        assert model.params.shape == (sum(p.size for p in parts),)
        assert model.params.tobytes() == np.concatenate(parts).tobytes()

    @pytest.mark.parametrize("name", ["params", "blocks", "weights", "biases"])
    @pytest.mark.parametrize("stacked", [False, True], ids=["net", "stack"])
    def test_fields_cannot_be_rebound(self, name, stacked):
        # A rebound field would no longer be a view of params (or params
        # no longer the views' base), so the class is frozen; writes go
        # through the views.
        model = init_model((5, 4, 3), seed=0)
        if stacked:
            model = MLPStack.of([model, model])
        with pytest.raises(AttributeError):
            setattr(model, name, getattr(model, name))
        model.biases[0][...] = 2.0
        model.weights[-1][...] = 3.0
        assert np.array_equal(model.blocks[0][..., -1, :], model.biases[0])
        assert np.count_nonzero(model.params == 2.0) == model.biases[0].size
        assert np.count_nonzero(model.params == 3.0) == model.weights[-1].size

    def test_views_survive_pickle_and_deepcopy(self):
        stack = MLPStack.of([init_model((5, 4, 3), seed) for seed in range(2)])
        for copy in (pickle.loads(pickle.dumps(stack)), deepcopy(stack)):
            assert copy.params.tobytes() == stack.params.tobytes()
            assert not np.shares_memory(copy.params, stack.params)
            for view in (*copy.blocks, *copy.weights, *copy.biases):
                assert np.shares_memory(view, copy.params)

    def test_of_needs_nets_of_one_shape(self):
        net = init_model((5, 3), seed=0)
        with pytest.raises(ValueError, match="^MLPStack.of needs at least one net$"):
            MLPStack.of([])
        with pytest.raises(ValueError, match="^stacked models must share their layer dims$"):
            MLPStack.of([net, init_model((5, 2, 3), seed=0)])
        with pytest.raises(ValueError, match=r"^MLPStack.of takes one net \(1-D params\), got "
                                             r"2-D params$"):
            MLPStack.of([MLPStack.of([net, net])])

    def test_layer_dims_checked_and_stored_as_a_tuple(self):
        # The layout's own rule, which init_model now reaches through it: a
        # too-short dims tuple used to end in an IndexError.
        with pytest.raises(ValueError, match=r"^need at least input and output dims, got \(4,\)$"):
            MLPStack((4,))
        with pytest.raises(ValueError, match="^layer dims must be positive integers"):
            MLPStack((4, 3.0))
        net = MLPStack([np.int64(4), 3])
        assert net.layer_dims == (4, 3) and type(net.layer_dims[0]) is int
        assert MLPStack.of([net, init_model((4, 3), seed=0)]).params.shape == (2, 15)

    @pytest.mark.parametrize("shape", [(17,), (2, 19), (2, 1, 18), ()])
    def test_params_must_fit_the_layer_dims(self, shape):
        with pytest.raises(ValueError, match=r"^params must be \(18,\) or \(T, 18\), got "):
            MLPStack((5, 3), np.zeros(shape))

    @pytest.mark.parametrize("params, got", [([0.0] * 9, "list"),
                                             (np.zeros((2, 9), dtype=np.int64), "int64 array"),
                                             (np.zeros(9, dtype=np.float32), "float32 array")],
                             ids=["list", "int64", "float32"])
    def test_params_must_be_a_float64_array(self, params, got):
        # A list used to end in an AttributeError, an int64 stack in a
        # UFuncTypeError mid-training, and a float32 one trained in float32.
        # A float64 view is taken as it is.
        with pytest.raises(ValueError, match=f"^params must be a float64 array, got {got}$"):
            MLPStack((2, 3), params)
        rows = np.zeros((3, 9))
        assert MLPStack((2, 3), rows[1:]).params.base is rows

    @pytest.mark.parametrize("entry", ["forward", "train", "train_stacked",
                                       "evaluate_auroc_stacked"])
    def test_each_entry_takes_its_kind(self, entry):
        # forward and train take one net, the stacked entries a stack; the
        # other kind is a ValueError before any work.
        net = init_model((4, 3), seed=0)
        x, y = np.zeros((6, 4)), np.arange(6) % 3
        config = TrainConfig(batch_size=3, loss_kind="cross_entropy", max_epochs=1)
        calls = {
            "forward": lambda m: forward(m, x),
            "train": lambda m: rankloss.train(m, x, y, x, y, config),
            "train_stacked": lambda m: train_stacked(m, x[None], y[None], x[None], y[None],
                                                     [config]),
            "evaluate_auroc_stacked": lambda m: evaluate_auroc_stacked(m, x[None], y[None]),
        }
        stacked = entry.endswith("_stacked")
        right, wrong = (MLPStack.of([net]), net) if stacked else (net, MLPStack.of([net]))
        calls[entry](right)
        want = ("a stack of nets (2-D params), got 1-D params" if stacked
                else "one net (1-D params), got 2-D params")
        for model, got in ((wrong, want), (None, want.split(", got")[0] + ", got NoneType")):
            with pytest.raises(ValueError) as exc:
                calls[entry](model)
            assert type(exc.value) is ValueError
            assert str(exc.value) == f"{entry} takes {got}"


def stacked_trials(counts, hidden, n_trials, dim=4, base_seed=0, flip=0.1):
    """A dataset, its first ``n_trials`` stratified splits, and their initial models."""
    ds = generate_synthetic(SyntheticSpec(class_counts=counts, dim=dim, class_mean_separation=1.5,
                                          noise_std=1.0, label_flip_prob=flip, seed=3))
    spec = SplitSpec(base_seed=base_seed)
    splits = [monte_carlo_split(ds.n_samples, ds.labels, spec, t) for t in range(n_trials)]
    seeds = [trial_seeds(base_seed, t) for t in range(n_trials)]
    models = [init_model((dim, *hidden, len(counts)), s.init) for s in seeds]
    tr, va, te = (np.stack(part) for part in zip(*splits))
    return ds, tr, va, te, seeds, models


PROTOCOL_COUNTS = (143, 71, 125)

# Small shapes at dim 4 and batch size 8, then the reference protocol's
# shape: dim 8, hidden (16,), whose (rows, 16) @ (16, 3) product BLAS rounds
# by its row count.
STACKED_CASES = [
    pytest.param(kind, counts, hidden, 4, 8, id=f"hidden{h}-{kind}-counts{c}")
    for h, hidden in enumerate([(), (4,), (4, 3)])
    for c, (kind, counts) in enumerate([("cross_entropy", (30, 20, 25)),
                                        ("auc_binary", (40, 25)),
                                        ("auc_multiclass", (30, 20, 25))])
] + [
    pytest.param(kind, PROTOCOL_COUNTS, (16,), 8, batch_size, id=f"protocol-{kind}-b{batch_size}")
    for kind in ("cross_entropy", "auc_multiclass") for batch_size in (8, 64)
]


def chunked(monkeypatch, budget, train):
    """``train()`` with the engine's plan budget ``network.PLAN_ROWS`` at
    ``budget`` (None keeps the default): its result, and how many epochs
    each of the ``_batch_index`` calls sampled."""
    import rankloss.network

    lengths = []
    sample = rankloss.network._batch_index

    def spy(groups, seeds, epochs):
        lengths.append(len(set(epochs)))
        return sample(groups, seeds, epochs)

    with monkeypatch.context() as mp:
        if budget is not None:
            mp.setattr(rankloss.network, "PLAN_ROWS", budget)
        mp.setattr(rankloss.network, "_batch_index", spy)
        return train(), lengths


def outcome(run):
    """A ``train_stacked`` result as bytes and text: the checkpoints and each trial's error."""
    return run.model.params.tobytes(), [None if e is None else f"{type(e).__name__}: {e}"
                                        for e in run.errors]


class TestTrainStacked:
    @pytest.mark.blas
    @pytest.mark.parametrize("kind, counts, hidden, dim, batch_size", STACKED_CASES)
    def test_matches_per_trial_train(self, kind, counts, hidden, dim, batch_size):
        # These batch sizes split the counts unevenly, so the trials' batches
        # differ in size and in per-class counts from batch to batch.
        ds, tr, va, te, seeds, models = stacked_trials(counts, hidden, n_trials=5, dim=dim)
        x, y = ds.features, ds.labels
        configs = [TrainConfig(batch_size=batch_size, loss_kind=kind, max_epochs=6,
                               seed=s.shuffle) for s in seeds]
        run = train_stacked(MLPStack.of(models), x[tr], y[tr], x[va], y[va], configs)
        aurocs, errors = evaluate_auroc_stacked(run.model, x[te], y[te])
        assert run.errors == (None,) * 5 and errors == (None,) * 5
        for t in range(5):
            trained, _ = train(models[t], x[tr[t]], y[tr[t]], x[va[t]], y[va[t]], configs[t])
            assert aurocs[t] == evaluate_auroc(trained, x[te[t]], y[te[t]])
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.array_equal(a, b)

    @pytest.mark.blas
    @pytest.mark.parametrize("kind, batch_size", [("cross_entropy", 8), ("auc_multiclass", 64)])
    def test_padding_adds_only_rounding(self, kind, batch_size):
        # Padding batches to the trial's width changes only how BLAS rounds:
        # after 40 epochs on the protocol's shape the checkpoints stay within
        # 1e-12 of the plain textbook run's.
        ds, tr, va, _, seeds, models = stacked_trials(PROTOCOL_COUNTS, (16,), n_trials=2, dim=8)
        x, y = ds.features, ds.labels
        configs = [TrainConfig(batch_size=batch_size, loss_kind=kind, max_epochs=40,
                               seed=s.shuffle) for s in seeds]
        run = train_stacked(MLPStack.of(models), x[tr], y[tr], x[va], y[va], configs)
        assert run.errors == (None, None)
        for t in range(2):
            trained, _ = train(models[t], x[tr[t]], y[tr[t]], x[va[t]], y[va[t]], configs[t],
                               padded=False)
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.max(np.abs(a - b)) <= 1e-12

    @pytest.mark.blas
    @pytest.mark.parametrize("kind, batch_size", [("cross_entropy", 8), ("auc_multiclass", 64)])
    def test_row_order_adds_only_rounding(self, kind, batch_size, monkeypatch):
        # A batch's loss and gradient are sums over its rows, so their order
        # changes only rounding: the per-trial trainer fed the same batches
        # with their rows shuffled stays within 1e-12 of the engine's
        # class-ordered run after 40 epochs on the protocol's shape.
        rng = np.random.default_rng(0)
        epochs = []

        def shuffled_batches(*args):
            epochs.append(args[-1])
            return [rng.permutation(batch) for batch in stratified_batches(*args)]

        monkeypatch.setattr(oracle, "stratified_batches", shuffled_batches)
        ds, tr, va, _, seeds, models = stacked_trials(PROTOCOL_COUNTS, (16,), n_trials=2, dim=8)
        x, y = ds.features, ds.labels
        configs = [TrainConfig(batch_size=batch_size, loss_kind=kind, max_epochs=40,
                               seed=s.shuffle) for s in seeds]
        run = train_stacked(MLPStack.of(models), x[tr], y[tr], x[va], y[va], configs)
        assert run.errors == (None, None)
        for t in range(2):
            trained, _ = train(models[t], x[tr[t]], y[tr[t]], x[va[t]], y[va[t]], configs[t])
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.max(np.abs(a - b)) <= 1e-12
        assert epochs == list(range(40)) * 2

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    def test_failed_trial_is_isolated(self):
        # Trial 1 starts with weights that overflow its logits: it records
        # the error train raises, and the others train as if it were absent.
        ds, tr, va, te, seeds, models = stacked_trials((30, 20), (4,), n_trials=3)
        x, y = ds.features, ds.labels
        models[1].weights[0][:] = 1e308
        configs = [TrainConfig(batch_size=8, loss_kind="auc_binary", max_epochs=3, seed=s.shuffle)
                   for s in seeds]
        run = train_stacked(MLPStack.of(models), x[tr], y[tr], x[va], y[va], configs)
        with pytest.raises(NonFiniteError) as expected:
            train(models[1], x[tr[1]], y[tr[1]], x[va[1]], y[va[1]], configs[1])
        assert type(run.errors[1]) is NonFiniteError
        assert str(run.errors[1]) == str(expected.value) == "initial logits became non-finite"
        assert run.errors[0] is None and run.errors[2] is None
        for t in (0, 2):
            trained, _ = train(models[t], x[tr[t]], y[tr[t]], x[va[t]], y[va[t]], configs[t])
            assert np.array_equal(trained.weights[0], run.model.weights[0][t])

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("kind, weight_scale, feature_scale, where", [
        ("cross_entropy", 1e200, 1.0, (0, 1)),
        ("auc_multiclass", 1e200, 1.0, (0, 1)),
        # Fails after epoch 0 improved its checkpoint, which must be reset.
        ("cross_entropy", 1.0, 1e20, (1, 3)),
    ])
    def test_trial_diverging_mid_run(self, kind, weight_scale, feature_scale, where):
        # Trial 1's first layer is scaled up and its last layer down, or its
        # training features are scaled up: its initial logits stay finite
        # and a later SGD step overflows them.
        ds, tr, va, te, seeds, models = stacked_trials((30, 20, 25), (4,), n_trials=3)
        x, y = ds.features, ds.labels
        train_x = x[tr]
        train_x[1] *= feature_scale
        models[1].weights[0][:] *= weight_scale
        models[1].weights[-1][:] /= weight_scale
        configs = [TrainConfig(batch_size=8, loss_kind=kind, max_epochs=4, seed=s.shuffle)
                   for s in seeds]
        run = train_stacked(MLPStack.of(models), train_x, y[tr], x[va], y[va], configs)
        with pytest.raises(NonFiniteError) as expected:
            train(models[1], train_x[1], y[tr[1]], x[va[1]], y[va[1]], configs[1])
        error = run.errors[1]
        assert type(error) is NonFiniteError and str(error) == str(expected.value)
        assert (error.epoch, error.batch) == (expected.value.epoch, expected.value.batch) == where
        assert run.errors[0] is None and run.errors[2] is None
        for t in (0, 2):
            trained, _ = train(models[t], train_x[t], y[tr[t]], x[va[t]], y[va[t]], configs[t])
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.array_equal(a, b)
        failed = run.model.model(1)
        for a, b in zip(models[1].weights + models[1].biases, failed.weights + failed.biases):
            assert np.array_equal(a, b)

    def test_minus_inf_logit_off_the_hit_fails_on_logits(self, monkeypatch):
        # Trial 1 has one training row of features (-1.5e308, 0), and every
        # net's first feature weighs 1 in each class, so that row's logits
        # start near -1.5e308 each. A learning rate of 1e-307 lets only that
        # row move a weight: its first step grows the two non-hit weights
        # to about 1.6 and shrinks the hit's below 0. From its next batch
        # on, the row's non-hit logits are -inf and its hit logit finite,
        # so its cross-entropy value is finite. The step still fails on its
        # logits, at the epoch and batch where the per-trial trainer does.
        import rankloss.network

        rng = np.random.default_rng(4)
        y = np.tile(np.arange(24) % 3, (3, 1))
        x = np.stack([np.zeros(y.shape), rng.normal(size=y.shape)], axis=2)
        val_x = x.copy()
        x[1, 2, 0] = -1.5e308  # a training row of class 2
        models = [init_model((2, 3), seed) for seed in range(3)]
        for model in models:
            model.weights[0][0] = 1.0
        configs = [TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=3,
                               learning_rate=1e-307, seed=seed) for seed in range(3)]
        steps = []

        def spy(*args, **kwargs):
            values, grad = _kernel(*args, **kwargs)
            if args[4]:  # want_grad: an SGD step
                steps.append((np.isfinite(args[1][1]).all(), np.isfinite(values[1])))
            return values, grad

        monkeypatch.setattr(rankloss.network, "_kernel", spy)
        run = train_stacked(MLPStack.of(models), x, y, val_x, y, configs)
        with pytest.raises(NonFiniteError) as expected:
            train(models[1], x[1], y[1], val_x[1], y[1], configs[1])
        error = run.errors[1]
        assert str(error) == str(expected.value)
        assert str(error).startswith("logits became non-finite at epoch 1")
        assert (error.epoch, error.batch) == (expected.value.epoch, expected.value.batch)
        assert run.errors[0] is None and run.errors[2] is None
        # Trial 1's first step with non-finite logits has a finite value.
        assert (False, True) in steps and (False, False) not in steps

    @pytest.mark.parametrize("kind", ["cross_entropy", "auc_multiclass"])
    @pytest.mark.parametrize("logit", [1e308, -1e308])
    def test_finite_logits_whose_sum_overflows_pass(self, kind, logit):
        # Every logit is +-1e308, finite, but their sum is +-inf: the sum
        # screen falls through to the entry-by-entry check, so a step
        # records no failure and validation scores every trial.
        rng = np.random.default_rng(5)
        models = [init_model((4, 5, 3), seed) for seed in range(3)]
        for model in models:
            model.weights[-1][:] = 0.0
            model.biases[-1][:] = logit
        stack = MLPStack.of(models)
        x, y = rng.normal(size=(3, 12, 4)), np.tile(np.arange(12) % 3, (3, 1))
        index = np.broadcast_to(np.arange(12), (3, 1, 12))
        runs = np.full((3, 3, 1), 4)
        batches = index, np.full((3, 1), 12), runs, np.cumsum(runs, axis=1) - runs
        (step,) = _plan(batches, np.concatenate([x, np.ones((3, 12, 1))], axis=2), y, kind, 3)
        config = TrainConfig(batch_size=12, loss_kind=kind)
        with np.errstate(over="ignore", invalid="ignore"):  # as train_stacked runs a step
            logits = _layers(stack.blocks, step.x)
            assert np.isfinite(logits).all() and logits.sum() == logit * np.inf
            aurocs, errors = _Scorer(stack, x, y)(stack, 0)
            buffers = _hidden_buffers(stack.blocks, (3, 12))
            assert _step(stack.copy(), stack.copy(), step, config, True, buffers) == []
        assert errors == (None,) * 3
        assert aurocs.tolist() == [evaluate_auroc(m, x[t], y[t]) for t, m in enumerate(models)]

    @pytest.mark.blas
    @pytest.mark.parametrize("case", ["protocol-cross_entropy-b8", "protocol-auc_multiclass-b64",
                                      "auc_binary", "ragged", "threads-1024"])
    def test_chunks_change_no_bit(self, case, monkeypatch):
        # The engine samples and plans a chunk of epochs per call. The
        # checkpoints and errors are the same bytes at one epoch per chunk,
        # at the default budget and with every epoch in one chunk: on the
        # protocol's shape, where the default is 7 or 8 epochs per chunk
        # (at 7, the last chunk is short); on a small binary stack; on
        # unstratified trials, which form ragged groups and of which two
        # fail; and on two 1024-row trials split over two threads.
        if case == "threads-1024":
            labels = np.tile(np.arange(1024) % 2, (2, 1))
            features = blobs(np.random.default_rng(0), labels)
            epochs, default = 20, [16, 4] * 2  # per thread part: 16 epochs, then 4
            train = lambda: train_on_threads("auc_binary", labels, features, 2, epochs=epochs)
        else:
            if case == "ragged":
                ds = generate_synthetic(SyntheticSpec(
                    class_counts=(30, 20, 10), dim=4, class_mean_separation=1.5, noise_std=1.0,
                    label_flip_prob=0.1, seed=4))
                spec = SplitSpec(stratified=False)
                splits = [monte_carlo_split(ds.n_samples, ds.labels, spec, t) for t in range(6)]
                tr, va, _ = (np.stack(p) for p in zip(*splits))
                seeds = [trial_seeds(0, t) for t in range(6)]
                models = [init_model((4, 5, 3), s.init) for s in seeds]
                kind, batch_size, epochs, default = "auc_multiclass", 8, 7, None
            elif case == "auc_binary":
                ds, tr, va, _, seeds, models = stacked_trials((40, 25), (4,), n_trials=4)
                kind, batch_size, epochs, default = "auc_binary", 8, 7, [7]
            else:
                ds, tr, va, _, seeds, models = stacked_trials(PROTOCOL_COUNTS, (16,),
                                                              n_trials=10, dim=8)
                kind, batch_size = case.split("-")[1], int(case.split("-b")[1])
                epochs = 40
                default = [8] * 5 if kind == "auc_multiclass" else [7] * 5 + [5]
            x, y = ds.features, ds.labels
            train_y, val_y = y[tr], y[va]
            if case == "ragged":
                train_y[1][train_y[1] == 2] = 0  # fails before any step
                val_y[4][val_y[4] == 1] = 0  # fails its first validation
            configs = [TrainConfig(batch_size=batch_size, loss_kind=kind, max_epochs=epochs,
                                   seed=s.shuffle) for s in seeds]
            train = lambda: outcome(train_stacked(MLPStack.of(models), x[tr], train_y, x[va],
                                                  val_y, configs))
        one, lengths = chunked(monkeypatch, 1, train)
        assert set(lengths) == {1}
        whole, lengths = chunked(monkeypatch, 1 << 62, train)
        assert whole == one and set(lengths) == {epochs}
        got, lengths = chunked(monkeypatch, None, train)
        assert got == one
        if default is not None:
            assert sorted(lengths) == sorted(default)
        if case == "ragged":
            assert [e is None for e in one[1]] == [True, False, True, True, False, True]

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("budget", [1, None])
    def test_failures_inside_a_chunk(self, budget, monkeypatch, step_threads):
        # Each trial's training features are scaled up until an SGD step
        # overflows its logits, trial t's in epoch 1 + t. At the default
        # budget all 8 epochs are one chunk, so every trial fails inside it.
        # Each fails at the epoch and batch where it fails alone, keeps its
        # initial weights, and once all have failed the stack stops
        # stepping, after epoch 3, as with one epoch per chunk.
        ds, tr, va, _, seeds, models = stacked_trials((30, 20, 25), (4,), n_trials=3)
        x, y = ds.features, ds.labels
        train_x = x[tr] * np.array([1e20, 1e15, 1e10])[:, None, None]
        configs = [TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=8,
                               seed=s.shuffle) for s in seeds]
        run, lengths = chunked(monkeypatch, budget, lambda: train_stacked(
            MLPStack.of(models), train_x, y[tr], x[va], y[va], configs))
        assert lengths == ([1] * 4 if budget == 1 else [8])
        for t in range(3):
            with pytest.raises(NonFiniteError) as expected:
                train(models[t], train_x[t], y[tr[t]], x[va[t]], y[va[t]], configs[t])
            error = run.errors[t]
            assert type(error) is NonFiniteError and str(error) == str(expected.value)
            assert (error.epoch, error.batch) == (expected.value.epoch, expected.value.batch)
            assert np.array_equal(run.model.params[t], models[t].params)
        assert [e.epoch for e in run.errors] == [1, 2, 3]
        n_batches = len(stratified_batches(y[tr[0]], 8, 0, 0))
        assert len(step_threads) == 4 * n_batches

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("L", [1.0, 3e303, 4e303, 3e304, 1e305, 3e306, 1e308])
    def test_step_flags_loss_exactly_where_train_would(self, L):
        # The step may skip the AUC value only where it is finite anyway: the
        # engine works out once per call whether the value is needed, from
        # the stack's width of 240 rows, which L > 3.1e303 makes it. A batch
        # of 240 rows has 80 x 160 pairs per class, enough for a term sum
        # near L / 2 per pair to overflow from L = 3e304; 24 rows overflow
        # from L = 3e306. With L = 1 neither does. Each batch lists its
        # classes in label order, as the sampler's do.
        sizes = np.array([240, 24, 240])
        rng = np.random.default_rng(2)
        models = [init_model((4, 5, 3), seed) for seed in range(3)]
        x = rng.normal(size=(3, 240, 4))
        y = np.full((3, 240), -1)
        for t, size in enumerate(sizes):
            y[t, :size] = np.sort(rng.permutation(np.arange(size) % 3))
        config = TrainConfig(batch_size=8, loss_kind="auc_multiclass",
                             surrogate=SurrogateParams(L=L))
        expected = [
            not np.isfinite(multiclass_auc_loss(
                PredictionBatch(forward(m, x[t, :size]), y[t, :size]), config.surrogate, True
            ).value)
            for t, (m, size) in enumerate(zip(models, sizes))
        ]
        index = np.broadcast_to(np.arange(240), (3, 1, 240))
        runs = np.repeat(sizes // 3, 3).reshape(3, 3, 1)
        batches = index, sizes[:, None], runs, np.cumsum(runs, axis=1) - runs
        ones = np.ones((3, 240, 1))
        (step,) = _plan(batches, np.concatenate([x, ones], axis=2), y, config.loss_kind, 3)
        stack = MLPStack.of(models)
        want_value = _value_needed(config, 240)
        buffers = _hidden_buffers(stack.blocks, (3, 240))
        failures = dict(_step(stack, stack.copy(), step, config, want_value, buffers))
        assert "logits" not in failures
        assert failures.get("loss", np.zeros(3, dtype=bool)).tolist() == expected
        assert expected == [L >= 3e304, L >= 3e306, L >= 3e304]
        assert want_value == (L > 3.2e303)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("rows", [24, 240])
    @pytest.mark.parametrize("L", [1.0, 1e305, 1e308])
    def test_initial_loss_checked_exactly_where_train_would(self, L, rows, monkeypatch):
        # The initial AUC value is computed only where L * rows**2 exceeds
        # the float range, as on a step, and the trials fail as the oracle
        # does: on the initial loss at 240 rows from L = 1e305, at 24 rows
        # only at L = 1e308 (at 1e305 they fail on their first steps).
        import rankloss.network

        initial_calls = []

        def spy(*args, **kwargs):
            if not args[4]:  # want_grad: an SGD step asks for the gradient
                initial_calls.append(args[0])
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(rankloss.network, "_kernel", spy)
        rng = np.random.default_rng(2)
        models = [init_model((4, 5, 3), seed) for seed in range(2)]
        x, val_x = rng.normal(size=(2, rows, 4)), rng.normal(size=(2, 12, 4))
        y = np.stack([rng.permutation(np.arange(rows) % 3) for _ in range(2)])
        val_y = np.stack([rng.permutation(np.arange(12) % 3) for _ in range(2)])
        configs = [TrainConfig(batch_size=8, loss_kind="auc_multiclass", max_epochs=1,
                               surrogate=SurrogateParams(L=L), seed=seed) for seed in range(2)]
        run = train_stacked(MLPStack.of(models), x, y, val_x, val_y, configs)
        assert len(initial_calls) == (L * rows**2 > np.finfo(float).max)
        expected = []
        for t in range(2):
            try:
                train(models[t], x[t], y[t], val_x[t], val_y[t], configs[t])
            except RanklossError as exc:
                expected.append(str(exc))
            else:
                expected.append(None)
        assert [None if e is None else str(e) for e in run.errors] == expected
        initial = "initial loss became non-finite"
        assert (expected[0] == initial) == (L == 1e308 or (L == 1e305 and rows == 240))

    @pytest.mark.parametrize("L", [1.0, 1e306])
    def test_binary_loss_needs_two_classes_before_any_work(self, L, monkeypatch):
        # One check per run, before any forward pass: at L = 1, where no
        # initial loss is computed, a 3-class model used to reach its first
        # SGD step and fail inside NumPy's matmul.
        import rankloss.network

        def no_layers(*args, **kwargs):
            raise AssertionError("the run did work before its checks")

        monkeypatch.setattr(rankloss.network, "_layers", no_layers)
        rng = np.random.default_rng(0)
        model = init_model((4, 5, 3), seed=0)
        x, y = rng.normal(size=(30, 4)), np.arange(30) % 3
        config = TrainConfig(batch_size=8, loss_kind="auc_binary",
                             surrogate=SurrogateParams(L=L))
        message = "^binary_auc_loss requires 2 classes, got 3$"
        with pytest.raises(ValueError, match=message):
            train_stacked(MLPStack.of([model]), x[None], y[None], x[None], y[None], [config])
        with pytest.raises(ValueError, match=message):
            rankloss.train(model, x, y, x, y, config)

    @pytest.mark.parametrize("configs", [[], [0], [0, 0, 0], [0, 1]], ids=[
        "none", "too_few", "too_many", "differing"])
    def test_configs_must_fit_the_stack(self, configs):
        # One config per model, equal in everything but the seed; no
        # configs at all used to end in an IndexError.
        stack = MLPStack.of([init_model((4, 3), seed) for seed in range(2)])
        x, y = np.zeros((2, 6, 4)), np.tile(np.arange(6) % 3, (2, 1))
        configs = [TrainConfig(batch_size=3, loss_kind="cross_entropy", max_epochs=1 + c,
                               seed=t) for t, c in enumerate(configs)]
        with pytest.raises(ValueError, match="^need one TrainConfig per model, equal in "
                                             "everything but the seed$"):
            train_stacked(stack, x, y, x, y, configs)

    @pytest.mark.parametrize("configs, message", [
        ([None], "configs[0] must be a TrainConfig, got None"),
        ([{"batch_size": 3}], "configs[0] must be a TrainConfig, got {'batch_size': 3}"),
        (TrainConfig(batch_size=3, loss_kind="cross_entropy"),
         "configs must be a sequence of TrainConfig, got TrainConfig(batch_size=3, "
         "loss_kind='cross_entropy', max_epochs=40, learning_rate=0.1, "
         "surrogate=SurrogateParams(k=20.0, L=1.0, x0=0.0), seed=0)"),
    ], ids=["none", "dict", "bare"])
    def test_configs_checked_by_type(self, configs, message):
        # A None or dict config used to end in an AttributeError from
        # dataclasses.replace, and a bare TrainConfig in a TypeError from len.
        stack = MLPStack.of([init_model((4, 3), 0)])
        x, y = np.zeros((1, 6, 4)), np.tile(np.arange(6) % 3, (1, 1))
        with pytest.raises(ValueError) as exc:
            train_stacked(stack, x, y, x, y, configs)
        assert type(exc.value) is ValueError and str(exc.value) == message
        if isinstance(configs, list):
            with pytest.raises(ValueError, match=r"^configs\[0\] must be a TrainConfig"):
                rankloss.train(init_model((4, 3), 0), x[0], y[0], x[0], y[0], configs[0])

    @pytest.mark.parametrize("kind", ["cross_entropy", "auc_multiclass"])
    def test_mixed_class_and_batch_counts_match_per_trial_train(self, kind):
        # Unstratified splits: every trial has its own per-class train
        # counts, and at batch size 8 trial 3 gets 3 batches, the others 4.
        # Trial 1's training labels lack class 2 and trial 4's validation
        # labels lack class 1. Trial 1 fails an AUC arm before its first
        # step and trains apart under cross entropy; trial 4 fails its
        # first validation. The others train on, all in one engine call.
        ds = generate_synthetic(SyntheticSpec(class_counts=(30, 20, 10), dim=4,
                                              class_mean_separation=1.5, noise_std=1.0,
                                              label_flip_prob=0.1, seed=4))
        x, y = ds.features, ds.labels
        spec = SplitSpec(stratified=False)
        tr, va, _ = (np.stack(p) for p in zip(*[
            monte_carlo_split(ds.n_samples, y, spec, t) for t in range(6)]))
        train_y, val_y = y[tr], y[va]
        train_y[1][train_y[1] == 2] = 0
        val_y[4][val_y[4] == 1] = 0
        assert [_LabelGroups(labels, 8).counts.size for labels in train_y] == [3, 2, 3, 3, 3, 3]
        assert [len(stratified_batches(labels, 8, 0, 0)) for labels in train_y] == [4, 4, 4, 3, 4, 4]
        seeds = [trial_seeds(0, t) for t in range(6)]
        models = [init_model((4, 5, 3), s.init) for s in seeds]
        configs = [TrainConfig(batch_size=8, loss_kind=kind, max_epochs=3, seed=s.shuffle)
                   for s in seeds]
        run = train_stacked(MLPStack.of(models), x[tr], train_y, x[va], val_y, configs)
        expected = []
        for t in range(6):
            try:
                trained, _ = train(models[t], x[tr[t]], train_y[t], x[va[t]], val_y[t], configs[t])
            except RanklossError as exc:
                expected.append(f"{type(exc).__name__}: {exc}")
                trained = models[t]  # a failed trial keeps its initial weights
            else:
                expected.append(None)
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.array_equal(a, b)
        assert [None if e is None else f"{type(e).__name__}: {e}" for e in run.errors] == expected
        lost_class_2 = "EmptyClassError: batch has no samples of class 2"
        assert expected == [
            None, None if kind == "cross_entropy" else lost_class_2, None, None,
            "EmptyClassError: class 1 has no samples: one-vs-rest AUROC is undefined", None,
        ]

    @pytest.mark.parametrize("batch_size", [2, 8])
    def test_sampler_errors_match_per_trial_train(self, batch_size):
        # One stack of four trials: trial 0 has 3 classes, too many for
        # batches of 2; trials 1 and 3 hold one class, and trial 3's initial
        # logits are non-finite, which it meets first. Trial 2 has 2 classes.
        # The failed trials keep their initial weights, the others train.
        rng = np.random.default_rng(5)
        x, val_x = rng.normal(size=(4, 24, 4)), rng.normal(size=(4, 12, 4))
        y = rng.permuted(np.stack([np.arange(24) % 3, np.zeros(24, dtype=int),
                                   np.arange(24) % 2, np.full(24, 2)]), axis=1)
        val_y = np.stack([rng.permutation(np.arange(12) % 3) for _ in range(4)])
        models = [init_model((4, 5, 3), seed) for seed in range(4)]
        models[3].biases[-1][:] = np.inf
        configs = [TrainConfig(batch_size=batch_size, loss_kind="cross_entropy", max_epochs=3,
                               seed=seed) for seed in range(4)]
        run = train_stacked(MLPStack.of(models), x, y, val_x, val_y, configs)
        expected = []
        for t in range(4):
            try:
                trained, _ = train(models[t], x[t], y[t], val_x[t], val_y[t], configs[t])
            except RanklossError as exc:
                expected.append(f"{type(exc).__name__}: {exc}")
                trained = models[t]
            else:
                expected.append(None)
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.array_equal(a, b)
        assert [None if e is None else f"{type(e).__name__}: {e}" for e in run.errors] == expected
        infeasible = "InfeasibleBatchError: "
        too_small = infeasible + "batch_size 2 cannot hold one sample of each of 3 classes"
        single = infeasible + "cannot form class-balanced batches from a single class"
        assert expected == [too_small if batch_size == 2 else None, single, None,
                            "NonFiniteError: initial logits became non-finite"]

    def test_one_model_train_is_the_engine(self):
        # rankloss.train runs one model through train_stacked: the oracle's
        # checkpoint, and its error raised.
        ds, tr, va, _, seeds, models = stacked_trials((30, 20), (4,), n_trials=1)
        x, y = ds.features, ds.labels
        args = (models[0], x[tr[0]], y[tr[0]], x[va[0]], y[va[0]])
        config = TrainConfig(batch_size=8, loss_kind="auc_binary", max_epochs=3,
                             seed=seeds[0].shuffle)
        trained, history = rankloss.train(*args, config)
        expected, _ = train(*args, config)
        assert history is None
        for a, b in zip(trained.weights + trained.biases, expected.weights + expected.biases):
            assert np.array_equal(a, b)
        with pytest.raises(NonFiniteError, match="^logits became non-finite at epoch 0, batch 1$"):
            rankloss.train(*args, replace(config, learning_rate=1e200))

    # A pairwise-loss stack whose steps hold PAIR_BLOCK pairs per trial and
    # class trains in parts of its trials, one per thread. Training on
    # threads changes no bit.

    @pytest.mark.blas
    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_threads_match_one_thread(self, data):
        # Checkpoints and errors on 2 or 3 threads equal 1 thread's byte for
        # byte, however the stacks are cut: 1 to 4 trials of ragged labels
        # (each trial its own class counts, so their batch counts and widths,
        # and so their stacks, can differ) at block sizes that split small
        # batches too.
        n_classes = data.draw(st.integers(2, 4))
        kind = data.draw(st.sampled_from(["auc_multiclass"] + ["auc_binary"] * (n_classes == 2)))
        n_trials = data.draw(st.integers(1, 4))
        rows = data.draw(st.integers(n_classes + 4, 40))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        labels = rng.integers(0, n_classes, size=(n_trials, rows))
        labels[:, :n_classes] = np.arange(n_classes)
        labels = rng.permuted(labels, axis=1)
        batch_size = data.draw(st.sampled_from([n_classes + 2, rows]))
        block = data.draw(st.sampled_from([7, 40, PAIR_BLOCK]))
        threads = data.draw(st.sampled_from([2, 3]))
        features = blobs(rng, labels)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rankloss.losses, "PAIR_BLOCK", block)
            serial = train_on_threads(kind, labels, features, 1, batch_size=batch_size)
            assert train_on_threads(kind, labels, features, threads, batch_size=batch_size) == serial

    @pytest.mark.blas
    @pytest.mark.parametrize("n_trials", [1, 2, 3, 4])
    @pytest.mark.parametrize("kind", ["auc_binary", "auc_multiclass"])
    def test_threads_split_large_batches(self, kind, n_trials, step_threads):
        # At the default block size a full batch of 720 rows holds PAIR_BLOCK
        # pairs per class, so 2 threads cut the stack into min(2, trials) parts.
        # Their threads are gone when train_stacked returns, and the
        # checkpoints are 1 thread's byte for byte.
        n_classes = 2 if kind == "auc_binary" else 3
        rng = np.random.default_rng(n_trials)
        labels = np.tile(np.arange(720) % n_classes, (n_trials, 1))
        features = blobs(rng, labels)
        serial = train_on_threads(kind, labels, features, 1)
        step_threads.clear()
        before = threading.active_count()
        assert train_on_threads(kind, labels, features, 2) == serial
        assert threading.active_count() == before
        assert len(set(step_threads)) == min(2, n_trials)
        assert threading.get_ident() in step_threads

    @pytest.mark.blas
    @pytest.mark.parametrize("kind", ["auc_binary", "auc_multiclass"])
    def test_threads_temporaries_bounded(self, kind, step_threads):
        # Each part's kernel works in one block-sized workspace, so two trials
        # of the full 2400-row batch trained on two threads stay under the
        # bound of one kernel call (test_losses.py's
        # test_stacked_loss_temporaries_bounded).
        rng = np.random.default_rng(0)
        labels = np.tile((np.arange(2400) % 4 == 0).astype(np.int64), (2, 1))
        features = blobs(rng, labels, dim=2)
        tracemalloc.start()
        try:
            train_on_threads(kind, labels, features, 2, epochs=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(set(step_threads)) == 2
        assert peak < 8e6

    @pytest.mark.parametrize("kind, batch_size", [("cross_entropy", 8), ("auc_multiclass", 64)])
    def test_chunk_temporaries_bounded(self, kind, batch_size, monkeypatch):
        # On the protocol's stack of 10 trials the default budget plans 7 or
        # 8 epochs at a time, and their index arrays and label data raise
        # one call's traced peak by ~0.6 MB over a call that plans one epoch
        # at a time. It stays within 1 MB of it.
        ds, tr, va, _, seeds, models = stacked_trials(PROTOCOL_COUNTS, (16,), n_trials=10, dim=8)
        x, y = ds.features, ds.labels
        configs = [TrainConfig(batch_size=batch_size, loss_kind=kind, max_epochs=16,
                               seed=s.shuffle) for s in seeds]
        args = MLPStack.of(models), x[tr], y[tr], x[va], y[va], configs
        train_stacked(*args)  # warms up

        def traced():
            tracemalloc.start()
            try:
                train_stacked(*args)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        one, _ = chunked(monkeypatch, 1, traced)
        peak, lengths = chunked(monkeypatch, None, traced)
        assert max(lengths) in (7, 8)
        assert peak < one + 1e6

    @pytest.mark.blas
    @pytest.mark.parametrize("n_trials", [4, 100])
    def test_threads_skip_small_batches(self, n_trials, step_threads):
        # A stack of the reference protocol's shape, B=64 batches of 203
        # training rows with ~1k pairs per trial and class, steps on the
        # calling thread alone, however many trials it holds.
        rng = np.random.default_rng(2)
        labels = np.tile(np.arange(203) % 3, (n_trials, 1))
        train_on_threads("auc_multiclass", labels, blobs(rng, labels), 2, epochs=1, batch_size=64)
        assert set(step_threads) == {threading.get_ident()}

    @pytest.mark.blas
    @pytest.mark.parametrize("kind", ["auc_binary", "auc_multiclass"])
    def test_threads_name_the_same_trial(self, kind, monkeypatch, step_threads):
        # Trial 2's training labels lack class 1, so it fails before any step
        # with the loss's EmptyClassError, and the other three train in two
        # parts: the same errors, at the same trials, and the same bytes as on
        # one thread.
        labels = np.tile(np.arange(12) % 2, (4, 1))
        labels[2] = 0
        monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", 7)
        features = blobs(np.random.default_rng(0), labels)
        serial = train_on_threads(kind, labels, features, 1)
        step_threads.clear()
        assert train_on_threads(kind, labels, features, 2) == serial
        assert len(set(step_threads)) == 2
        missing = ("batch has no positive (label 1) samples" if kind == "auc_binary"
                   else "batch has no samples of class 1")
        assert serial[1] == [None, None, f"EmptyClassError: {missing}", None]

    @pytest.mark.blas
    def test_threads_survive_thread_switches(self, monkeypatch, step_threads):
        # Each part trains as a stack of its own, merged by trial index. With
        # 8 parts, 7 of them on pool threads, more than most machines' CPUs,
        # and the interpreter switching threads every microsecond, a lost or
        # crossed result would change the checkpoints from 1 thread's. Each
        # part takes every step for its trial, so there are 8 times the
        # serial steps.
        rng = np.random.default_rng(4)
        labels = rng.permuted(np.tile(np.arange(48) % 3, (8, 1)), axis=1)
        features = blobs(rng, labels)
        monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", 7)
        serial = train_on_threads("auc_multiclass", labels, features, 1, epochs=20, batch_size=12)
        serial_steps = len(step_threads)
        step_threads.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = train_on_threads("auc_multiclass", labels, features, 8, epochs=20, batch_size=12)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial
        assert len(step_threads) == 8 * serial_steps and len(set(step_threads)) > 1

    @pytest.mark.blas
    @pytest.mark.parametrize("case", ["thread-parts", "ragged-groups"])
    def test_checks_run_once_per_call(self, case, monkeypatch, step_threads):
        # train_stacked checks its arrays and groups each trial's labels once
        # per call, however it cuts the trials: two trials of a full 600-row
        # auc_binary batch, whose P**2 / 4 >= PAIR_BLOCK, train in two thread
        # parts, and three trials of unequal class counts, as unstratified
        # splits give them, in three groups of their own batch count and
        # width. Either way the result is one thread's.
        rng = np.random.default_rng(6)
        if case == "thread-parts":
            kind, batch_size, labels = "auc_binary", None, np.tile(np.arange(600) % 2, (2, 1))
        else:
            kind, batch_size = "auc_multiclass", 8
            labels = rng.permuted([np.repeat([0, 1, 2], counts)
                                   for counts in ((8, 8, 8), (12, 6, 6), (10, 12, 2))], axis=1)
            keys = {(g.n_batches, g.width) for g in (_LabelGroups(y, 8) for y in labels)}
            assert len(keys) == 3
        features = blobs(rng, labels)
        serial = train_on_threads(kind, labels, features, 1, batch_size=batch_size)
        calls = dict.fromkeys(["_LabelGroups", "_check_stacked"], 0)
        for name in calls:
            def spy(*args, name=name, original=getattr(rankloss.network, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(rankloss.network, name, spy)
        step_threads.clear()
        assert train_on_threads(kind, labels, features, 2, batch_size=batch_size) == serial
        assert calls == {"_LabelGroups": len(labels), "_check_stacked": 2}
        assert len(set(step_threads)) == (2 if case == "thread-parts" else 1)

    @pytest.mark.blas
    def test_threads_keep_the_callers_errstate(self, monkeypatch, step_threads):
        # With k L beyond the float range, slopes that underflow to 0 become
        # 0 * inf, NaN weights that the validation pass reports. Pool threads
        # start with NumPy's default error state, so each part runs under the
        # call's: the engine's silenced overflow and invalid values, so no
        # RuntimeWarning from any thread and the same failure as on one thread,
        # and the caller's own settings, so its underflow handler hears every
        # part. The nets rank every positive below every negative, so the
        # initial loss is finite and each trial underflows in its first step.
        params = SurrogateParams(k=1000.0, L=1e308)
        labels = np.tile(np.arange(12) % 2, (2, 1))
        features = np.where(labels == 1, -1.0, 1.0)[..., None]
        model = MLPStack.of([MLPStack((1, 2))] * 2)
        model.weights[0][:, 0, 1] = 40.0
        monkeypatch.setattr(rankloss.losses, "PAIR_BLOCK", 7)
        runs, heard = [], []
        for threads in (1, 2):
            step_threads.clear()
            heard.clear()
            with warnings.catch_warnings(), np.errstate(
                    under="call", call=lambda *_: heard.append(threading.get_ident())):
                warnings.simplefilter("error")
                runs.append(train_on_threads("auc_binary", labels, features, threads, params=params,
                                   model=model))
            assert len(set(step_threads)) == threads
            assert set(heard) == set(step_threads)
        assert runs[0] == runs[1]
        assert runs[0][1] == ["NonFiniteError: evaluation logits became non-finite at epoch 0"] * 2
