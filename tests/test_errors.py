import pickle

import numpy as np
import pytest

from rankloss import (
    ArmConfig,
    ConfigError,
    CsvError,
    Dataset,
    DegenerateVarianceError,
    EmptyClassError,
    EmptyFileError,
    ExperimentConfig,
    FieldError,
    InfeasibleBatchError,
    MissingColumnError,
    NonFiniteError,
    NonNumericCellError,
    RanklossError,
    PredictionBatch,
    SplitSpec,
    SurrogateParams,
    SyntheticSpec,
    TooSmallError,
    TrainConfig,
    TrialError,
    auroc_multiclass_ovr,
    finite_diff_check,
    init_model,
    loss_function,
    monte_carlo_split,
    run_experiment,
    stratified_batches,
    trial_seeds,
)

ERRORS = [
    RanklossError("base"),
    EmptyClassError("class 2 has no samples", class_index=2),
    EmptyClassError("no class has both positives and negatives"),
    InfeasibleBatchError("batch too small"),
    TooSmallError("partition too small"),
    NonFiniteError("non-finite logits", epoch=3, batch=7),
    NonFiniteError("non-finite evaluation logits", epoch=4),
    DegenerateVarianceError("0/0"),
    TrialError("trial 5: boom", trial=5),
    CsvError("bad file"),
    MissingColumnError("no column 'y'"),
    NonNumericCellError("row 2: 'x' is not a number", row=2, column="f1"),
    EmptyFileError("empty"),
    FieldError("arms/1/loss_kind", "unknown loss kind"),
    ConfigError("expected an integer", pointer="/split/n_repeats"),
]


@pytest.mark.parametrize("error", ERRORS, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(error):
    # Errors raised in a worker process reach the parent by pickle, with
    # their message and every attribute.
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert copy.args == error.args
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


_SPEC = dict(class_counts=(10, 10), dim=2, class_mean_separation=1.0, noise_std=1.0)
_DATA = Dataset(np.arange(20.0).reshape(10, 2), [0, 1] * 5, 2)
_EXPERIMENT = ExperimentConfig((ArmConfig("ce", "cross_entropy", 4, max_epochs=1),),
                               SplitSpec(n_repeats=1))

# Each entry that takes a count, seed or worker count: (call with the value,
# the FieldError field or None for a plain ValueError, the message for a
# non-integer value, an integer the entry rejects, and its message). The
# Dataset class count and the split's sample count keep their own wording
# past the integer rule; the split's is a TooSmallError.
INTEGER_ENTRIES = {
    "TrainConfig.batch_size": (
        lambda v: TrainConfig(batch_size=v, loss_kind="cross_entropy"), "batch_size",
        "batch_size must be an integer, got {!r}", 1, "batch_size must be at least 2, got 1"),
    "TrainConfig.max_epochs": (
        lambda v: TrainConfig(batch_size=8, loss_kind="cross_entropy", max_epochs=v),
        "max_epochs", "max_epochs must be an integer, got {!r}", 0,
        "max_epochs must be at least 1, got 0"),
    "TrainConfig.seed": (
        lambda v: TrainConfig(batch_size=8, loss_kind="cross_entropy", seed=v), "seed",
        "seed must be an integer, got {!r}", -1, "seed must be nonnegative, got -1"),
    "SplitSpec.n_repeats": (
        lambda v: SplitSpec(n_repeats=v), "n_repeats", "n_repeats must be an integer, got {!r}",
        0, "n_repeats must be at least 1, got 0"),
    "SplitSpec.base_seed": (
        lambda v: SplitSpec(base_seed=v), "base_seed", "base_seed must be an integer, got {!r}",
        -1, "base_seed must be nonnegative, got -1"),
    "SyntheticSpec.seed": (
        lambda v: SyntheticSpec(**_SPEC, seed=v), "seed", "seed must be an integer, got {!r}",
        -1, "seed must be nonnegative, got -1"),
    "init_model": (
        lambda v: init_model([2, 2], seed=v), None, "seed must be an integer, got {!r}",
        -1, "seed must be nonnegative, got -1"),
    "stratified_batches": (
        lambda v: stratified_batches([0, 1] * 4, 2, v, 0), None,
        "seed and epoch must be integers, got {!r} and 0", -1,
        "seed and epoch must be nonnegative, got -1 and 0"),
    "trial_seeds": (
        lambda v: trial_seeds(0, v), None, "base_seed and trial must be integers, got 0 and {!r}",
        -1, "base_seed and trial must be nonnegative, got 0 and -1"),
    "Dataset.n_classes": (
        lambda v: Dataset(np.zeros((4, 1)), [0, 1, 0, 1], v), None,
        "n_classes must be an integer, got {!r}", 1, "need at least 2 classes, got 1"),
    "run_experiment.jobs": (
        lambda v: run_experiment(_DATA, _EXPERIMENT, jobs=v), None,
        "jobs must be an integer, got {!r}", 0, "jobs must be at least 1, got 0"),
    "monte_carlo_split.n": (
        lambda v: monte_carlo_split(v, None, SplitSpec(stratified=False), 0), None,
        "n must be an integer, got {!r}", 4, "need at least 5 samples to split, got 4"),
}


@pytest.mark.parametrize("value", ["1", None, 1.5, "below"])
@pytest.mark.parametrize("entry", sorted(INTEGER_ENTRIES))
def test_integer_rule(entry, value):
    # The integer rule runs first at every entry, so a str, None or float
    # never reaches a comparison (a TypeError) or NumPy (an AxisError). A
    # config names its field; a function raises a plain ValueError.
    call, field, message, below, below_message = INTEGER_ENTRIES[entry]
    error = ValueError if field is None else FieldError
    if value != "below":
        message = message.format(value)
    else:
        value, message = below, below_message
        if entry == "monte_carlo_split.n":
            error = TooSmallError  # the split's own rule past the integer rule
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == message
    if field is not None:
        assert exc.value.field == field


_BATCH = PredictionBatch(np.arange(8.0).reshape(4, 2), [0, 1, 0, 1])

# Each entry that takes a real number: (call with the value, the FieldError
# field or None for a plain ValueError, the message for a value the rule
# rejects, a finite value below the entry's bound or None for no bound, and
# its message). The step h keeps its own range past the real rule.
REAL_ENTRIES = {
    "SurrogateParams.k": (
        lambda v: SurrogateParams(k=v), "k", "k must be a finite number, got {!r}", 0.0,
        "k must be positive, got 0.0"),
    "SurrogateParams.L": (
        lambda v: SurrogateParams(L=v), "L", "L must be a finite number, got {!r}", -1.0,
        "L must be positive, got -1.0"),
    "SurrogateParams.x0": (
        lambda v: SurrogateParams(x0=v), "x0", "x0 must be a finite number, got {!r}", None, None),
    "TrainConfig.learning_rate": (
        lambda v: TrainConfig(batch_size=8, loss_kind="cross_entropy", learning_rate=v),
        "learning_rate", "learning_rate must be a finite number, got {!r}", -0.1,
        "learning_rate must be nonnegative, got -0.1"),
    "ArmConfig.learning_rate": (
        lambda v: ArmConfig("a", "cross_entropy", 8, learning_rate=v), "learning_rate",
        "learning_rate must be a finite number, got {!r}", -0.1,
        "learning_rate must be nonnegative, got -0.1"),
    "SyntheticSpec.class_mean_separation": (
        lambda v: SyntheticSpec(**{**_SPEC, "class_mean_separation": v}), "class_mean_separation",
        "class_mean_separation must be a finite number, got {!r}", -1.0,
        "class_mean_separation must be nonnegative, got -1.0"),
    "SyntheticSpec.noise_std": (
        lambda v: SyntheticSpec(**{**_SPEC, "noise_std": v}), "noise_std",
        "noise_std must be a finite number, got {!r}", 0.0, "noise_std must be positive, got 0.0"),
    "SyntheticSpec.label_flip_prob": (
        lambda v: SyntheticSpec(**_SPEC, label_flip_prob=v), "label_flip_prob",
        "label_flip_prob must be a finite number, got {!r}", -0.1,
        "label_flip_prob must be nonnegative, got -0.1"),
    "SplitSpec.ratios": (
        lambda v: SplitSpec(ratios=(v, 0.5, 0.5)), "ratios",
        "ratios must be finite numbers, got {!r} and 0.5 and 0.5", 0.0,
        "ratios must be positive, got 0.0 and 0.5 and 0.5"),
    "finite_diff_check.h": (
        lambda v: finite_diff_check(loss_function("cross_entropy"), _BATCH, h=v), None,
        "h must be a finite number, got {!r}", 1e-8, "step h must lie in [1e-7, 1e-3], got 1e-08"),
    "finite_diff_check.tol": (
        lambda v: finite_diff_check(loss_function("cross_entropy"), _BATCH, tol=v), None,
        "tol must be a finite number, got {!r}", -1.0, "tol must be nonnegative, got -1.0"),
}


@pytest.mark.parametrize("entry, value", [
    (entry, value) for entry in sorted(REAL_ENTRIES)
    for value in (float("nan"), float("inf"), -float("inf"), "1", None, "below")
    if value != "below" or REAL_ENTRIES[entry][3] is not None
])
def test_real_rule(entry, value):
    # The real-number rule runs first at every entry, so a NaN never slips
    # past a bound (it compares false with everything), an infinity is
    # rejected even where no bound applies, and a str or None never reaches
    # a comparison (a TypeError). A config names its field; a function
    # raises a plain ValueError.
    call, field, message, below, below_message = REAL_ENTRIES[entry]
    if value != "below":
        message = message.format(value)
    else:
        value, message = below, below_message
    error = ValueError if field is None else FieldError
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == message
    if field is not None:
        assert exc.value.field == field


@pytest.mark.parametrize("value", [1, True, np.float32(2.5), np.int64(3), 1.7e308])
def test_real_rule_takes_finite_reals(value):
    # Integers, bool and NumPy scalars are real numbers; so is the largest
    # float. An integer too large for a float is not.
    assert SurrogateParams(k=value, L=value, x0=value).k == value
    with pytest.raises(FieldError, match="^k must be a finite number, got 1000"):
        SurrogateParams(k=10**400)


_OVR_BATCH = PredictionBatch(np.eye(3), [0, 1, 2])

# Each entry that takes a bool: (call with the value, the FieldError field
# or None for a plain ValueError).
BOOL_ENTRIES = {
    "SplitSpec.stratified": (lambda v: SplitSpec(stratified=v), "stratified"),
    "auroc_multiclass_ovr.lenient": (lambda v: auroc_multiclass_ovr(_OVR_BATCH, lenient=v), None),
    "PredictionBatch.probabilities": (
        lambda v: PredictionBatch(np.eye(3), [0, 1, 2], probabilities=v), None),
}


@pytest.mark.parametrize("value", ["no", 1, None, 0.0])
@pytest.mark.parametrize("entry", sorted(BOOL_ENTRIES))
def test_bool_rule(entry, value):
    # A truthy str, an integer or None is not read as a flag: "no" used to
    # split stratified and score leniently.
    call, field = BOOL_ENTRIES[entry]
    name = entry.split(".")[1]
    error = ValueError if field is None else FieldError
    with pytest.raises(error) as exc:
        call(value)
    assert type(exc.value) is error and str(exc.value) == f"{name} must be a bool, got {value!r}"
    if field is not None:
        assert exc.value.field == field


@pytest.mark.parametrize("value", [True, False, np.True_, np.False_])
@pytest.mark.parametrize("entry", sorted(BOOL_ENTRIES))
def test_bool_rule_takes_python_and_numpy_bools(entry, value):
    BOOL_ENTRIES[entry][0](value)


def test_split_spec_stores_a_python_bool():
    assert type(SplitSpec(stratified=np.False_).stratified) is bool


@pytest.mark.parametrize("value", [None, {"k": 20.0}, 20.0])
@pytest.mark.parametrize("config", [
    lambda v: TrainConfig(batch_size=8, loss_kind="auc_binary", surrogate=v),
    lambda v: ArmConfig("a", "auc_binary", 8, surrogate=v),
], ids=["TrainConfig", "ArmConfig"])
def test_surrogate_must_be_surrogate_params(config, value):
    # None used to pass and end in an AttributeError inside the loss kernel.
    with pytest.raises(FieldError) as exc:
        config(value)
    assert exc.value.field == "surrogate"
    assert str(exc.value) == f"surrogate must be a SurrogateParams, got {value!r}"


@pytest.mark.parametrize("call, field, message", [
    (lambda v: ExperimentConfig(_EXPERIMENT.arms, v), "split", "split must be a SplitSpec"),
    (lambda v: ExperimentConfig((*_EXPERIMENT.arms, v), SplitSpec()), "arms/1",
     "arms/1 must be an ArmConfig"),
    (lambda v: ArmConfig(v, "cross_entropy", 8), "name", "name must be a str"),
], ids=["split", "arm", "name"])
@pytest.mark.parametrize("value", [None, 5, {"n_repeats": 1}])
def test_composite_fields_must_have_their_type(call, field, message, value):
    # ExperimentConfig((5,), SplitSpec()) used to end in an AttributeError,
    # and a split of None or an int arm name was accepted.
    with pytest.raises(FieldError) as exc:
        call(value)
    assert exc.value.field == field
    assert str(exc.value) == f"{message}, got {value!r}"


@pytest.mark.parametrize("call, field", [
    (lambda v: SplitSpec(ratios=v), "ratios"),
    (lambda v: SyntheticSpec(v, 2, 1.0, 1.0), "class_counts"),
    (lambda v: ExperimentConfig(_EXPERIMENT.arms, SplitSpec(), v), "hidden_dims"),
    (lambda v: ExperimentConfig(v, SplitSpec()), "arms"),
], ids=["ratios", "class_counts", "hidden_dims", "arms"])
def test_sequence_fields_reject_a_bare_value(call, field):
    # A bare number used to end in "TypeError: 'int' object is not iterable".
    with pytest.raises(FieldError) as exc:
        call(4)
    assert exc.value.field == field
    assert str(exc.value) == f"{field} must be a sequence, got 4"
