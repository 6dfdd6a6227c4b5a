import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rankloss import (
    InfeasibleBatchError,
    MLPModel,
    MLPStack,
    NonFiniteError,
    PredictionBatch,
    SplitSpec,
    SurrogateParams,
    SyntheticSpec,
    TrainConfig,
    evaluate_auroc,
    evaluate_auroc_stacked,
    forward,
    generate_synthetic,
    init_model,
    monte_carlo_split,
    multiclass_auc_loss,
    stratified_batches,
    train,
    train_stacked,
    trial_seeds,
)
from rankloss.network import _batch_index, _LabelGroups, _step


def separable_blobs(seed=1, counts=(40, 40), sep=6.0):
    spec = SyntheticSpec(
        class_counts=counts, dim=4, class_mean_separation=sep, noise_std=1.0, seed=seed
    )
    return generate_synthetic(spec)


def split_arrays(ds, base_seed=0, trial=0):
    tr, va, _ = monte_carlo_split(ds.n_samples, ds.labels, SplitSpec(base_seed=base_seed), trial)
    return ds.features[tr], ds.labels[tr], ds.features[va], ds.labels[va]


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


class TestForward:
    def test_zero_weights_zero_logits(self):
        model = MLPModel(
            layer_dims=(3, 2),
            weights=[np.zeros((3, 2))],
            biases=[np.zeros(2)],
        )
        assert np.all(forward(model, np.random.default_rng(0).normal(size=(4, 3))) == 0.0)

    def test_identity_layer(self):
        model = MLPModel(
            layer_dims=(2, 2),
            weights=[np.eye(2)],
            biases=[np.zeros(2)],
        )
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        assert np.array_equal(forward(model, x), x)

    def test_hand_computed(self):
        # x = [1, 2]; pre1 = [1*1 + 2*2 + 0.5, -1 + 0 - 0.5] = [5.5, -1.5];
        # relu -> [5.5, 0]; logits = [5.5, 5.5*2 + 1] = [5.5, 12.0].
        model = MLPModel(
            layer_dims=(2, 2, 2),
            weights=[np.array([[1.0, -1.0], [2.0, 0.0]]), np.array([[1.0, 2.0], [3.0, 4.0]])],
            biases=[np.array([0.5, -0.5]), np.array([0.0, 1.0])],
        )
        assert forward(model, np.array([[1.0, 2.0]])).tolist() == [[5.5, 12.0]]

    def test_width_mismatch(self):
        model = init_model([4, 2], seed=0)
        with pytest.raises(ValueError):
            forward(model, np.zeros((3, 5)))


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
            [7, 13, 10, 4, 5, 17],
            [2, 14, 6, 19, 9, 0, 3],
            [12, 16, 18, 1, 11, 15, 8],
        ]

    def test_pinned_batches_clamped_count(self):
        # Recorded from the per-trial sampler: the smallest class clamps the
        # batch count to 2, and the middle class splits 3 + 2.
        labels = np.array([0, 1, 1, 0, 2, 0, 0, 1, 0, 2, 0, 0, 1, 0, 1])
        batches = stratified_batches(labels, 4, seed=9, epoch=3)
        assert [b.tolist() for b in batches] == [
            [10, 1, 0, 14, 9, 6, 3],
            [4, 8, 2, 7, 5, 12, 13, 11],
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
            with pytest.raises(InfeasibleBatchError, match=str(exc)):
                _batch_index([_LabelGroups(y) for y in labels], seeds, batch_size, epoch)
            return
        index, sizes = _batch_index([_LabelGroups(y) for y in labels], seeds, batch_size, epoch)
        n_batches = len(want[0])
        width = sum(-(-m // n_batches) for m in counts)
        assert index.shape == (n_trials, n_batches, width)
        assert sizes.tolist() == [[b.size for b in trial] for trial in want]
        for rows, trial_sizes, trial in zip(index, sizes, want):
            for row, size, batch in zip(rows, trial_sizes, trial):
                assert np.array_equal(row[:size], batch)
                assert not row[size:].any()

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


def _reference_batches(labels, batch_size, seed, epoch):
    """The sampler as first written: regroup, np.array_split, permutation."""
    classes, counts = np.unique(labels, return_counts=True)
    n_batches = min(max(1, labels.size // batch_size), int(counts.min()))
    rng = np.random.default_rng([seed, epoch])
    members = [[] for _ in range(n_batches)]
    for c in classes:
        idx = rng.permutation(np.flatnonzero(labels == c))
        placement = rng.permutation(n_batches)
        for b, chunk in zip(placement, np.array_split(idx, n_batches)):
            members[b].append(chunk)
    return [rng.permutation(np.concatenate(parts)) for parts in members]


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
        from rankloss.network import evaluate_auroc

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
        return MLPModel(layer_dims=(1, 2), weights=[np.zeros((1, 2))], biases=[np.zeros(2)])

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
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8, loss_kind="mse")
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=8, loss_kind="cross_entropy", learning_rate=-0.1)


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


class TestTrainStacked:
    @pytest.mark.parametrize("kind, counts", [
        ("cross_entropy", (30, 20, 25)),
        ("auc_binary", (40, 25)),
        ("auc_multiclass", (30, 20, 25)),
    ])
    @pytest.mark.parametrize("hidden", [(), (4,), (4, 3)])
    def test_matches_per_trial_train(self, kind, counts, hidden):
        # Batch size 8 splits these counts unevenly, so the trials' batches
        # differ in size and in per-class counts from batch to batch.
        ds, tr, va, te, seeds, models = stacked_trials(counts, hidden, n_trials=5)
        x, y = ds.features, ds.labels
        configs = [TrainConfig(batch_size=8, loss_kind=kind, max_epochs=6, seed=s.shuffle)
                   for s in seeds]
        run = train_stacked(MLPStack.of(models), x[tr], y[tr], x[va], y[va], configs)
        aurocs, errors = evaluate_auroc_stacked(run.model, x[te], y[te])
        assert run.errors == (None,) * 5 and errors == (None,) * 5
        for t in range(5):
            trained, _ = train(models[t], x[tr[t]], y[tr[t]], x[va[t]], y[va[t]], configs[t])
            assert aurocs[t] == evaluate_auroc(trained, x[te[t]], y[te[t]])
            stacked = run.model.model(t)
            for a, b in zip(trained.weights + trained.biases, stacked.weights + stacked.biases):
                assert np.array_equal(a, b)

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

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.parametrize("L", [1.0, 1e305, 1e308])
    def test_step_flags_loss_exactly_where_train_would(self, L):
        # The step may skip the AUC value only where it is finite anyway. A
        # batch of 240 rows has 80 x 160 pairs per class, enough for a term
        # sum near L / 2 per pair to overflow at L = 1e305; 24 rows are not.
        # With L = 1e308 both overflow, with L = 1 neither does.
        sizes = np.array([240, 24, 240])
        rng = np.random.default_rng(2)
        models = [init_model((4, 5, 3), seed) for seed in range(3)]
        x = rng.normal(size=(3, 240, 4))
        y = np.full((3, 240), -1)
        for t, size in enumerate(sizes):
            y[t, :size] = rng.permutation(np.arange(size) % 3)
        config = TrainConfig(batch_size=8, loss_kind="auc_multiclass",
                             surrogate=SurrogateParams(L=L))
        expected = [
            not np.isfinite(multiclass_auc_loss(
                PredictionBatch(forward(m, x[t, :size]), y[t, :size]), config.surrogate, True
            ).value)
            for t, (m, size) in enumerate(zip(models, sizes))
        ]
        bad_logits, bad_loss = _step(MLPStack.of(models), x, y, sizes, config)
        assert not bad_logits.any()
        assert bad_loss.tolist() == expected
        assert expected == [L > 1e300, L > 1e306, L > 1e300]

    def test_rejects_unequal_class_counts(self):
        ds, tr, va, _, seeds, models = stacked_trials((30, 20), (4,), n_trials=2)
        x, y = ds.features, ds.labels
        configs = [TrainConfig(batch_size=8, loss_kind="cross_entropy", seed=s.shuffle) for s in seeds]
        labels = y[tr].copy()
        labels[1, 0] = 1 - labels[1, 0]
        with pytest.raises(ValueError, match="per-class"):
            train_stacked(MLPStack.of(models), x[tr], labels, x[va], y[va], configs)
