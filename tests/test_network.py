import numpy as np
import pytest

from rankloss import (
    InfeasibleBatchError,
    MLPModel,
    NonFiniteError,
    SplitSpec,
    SyntheticSpec,
    TrainConfig,
    forward,
    generate_synthetic,
    init_model,
    monte_carlo_split,
    stratified_batches,
    train,
)


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
