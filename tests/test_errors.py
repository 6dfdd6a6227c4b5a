import pickle

import numpy as np
import pytest

from rankloss import (
    ArmConfig,
    AurocValue,
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
    binary_auc_loss,
    finite_diff_check,
    MLPStack,
    evaluate_auroc_stacked,
    forward,
    init_model,
    load_csv,
    load_scores_csv,
    logistic,
    loss_function,
    mean_ci,
    monte_carlo_split,
    multiclass_auc_loss,
    run_experiment,
    softmax,
    stratified_batches,
    t_test,
    train_stacked,
    trial_blocks,
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
_STACK = MLPStack.of([init_model((2, 2), seed) for seed in range(2)])
_STACKED_X, _STACKED_Y = np.zeros((2, 4, 2)), np.tile([0, 1, 0, 1], (2, 1))
_STACKED_DATA = (_STACKED_X, _STACKED_Y, _STACKED_X, _STACKED_Y)
_STACKED_CONFIGS = [TrainConfig(batch_size=2, loss_kind="cross_entropy", max_epochs=1, seed=t)
                    for t in range(2)]

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
    "trial_blocks": (
        lambda v: trial_blocks(10, v, 2), None,
        "n_repeats and jobs must be integers, got 10 and {!r}", 0,
        "n_repeats and jobs must be at least 1, got 10 and 0"),
    "monte_carlo_split.n": (
        lambda v: monte_carlo_split(v, None, SplitSpec(stratified=False), 0), None,
        "n must be an integer, got {!r}", 4, "need at least 5 samples to split, got 4"),
    "train_stacked.threads": (
        lambda v: train_stacked(_STACK, *_STACKED_DATA, _STACKED_CONFIGS, threads=v), None,
        "threads must be an integer, got {!r}", 0, "threads must be at least 1, got 0"),
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


@pytest.mark.parametrize("value", [None, "x", {"k": 20.0}, 20.0])
@pytest.mark.parametrize("call", [
    lambda v: binary_auc_loss(_BATCH, v),
    lambda v: multiclass_auc_loss(_BATCH, v, True),
    lambda v: loss_function("auc_binary", v),
    lambda v: loss_function("cross_entropy", v),
    lambda v: logistic(0.1, v),
], ids=["binary_auc_loss", "multiclass_auc_loss", "loss_function", "loss_function_ce",
        "logistic"])
def test_loss_params_must_be_surrogate_params(call, value):
    # The check TrainConfig.surrogate has, as a ValueError; these used to end
    # in an AttributeError on params.x0. loss_function fails when it binds.
    with pytest.raises(ValueError) as exc:
        call(value)
    assert type(exc.value) is ValueError
    assert str(exc.value) == f"params must be a SurrogateParams, got {value!r}"


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


_NAN = float("nan")

# Public-boundary checks outside the rule tables: (call, given a scratch
# directory; error type; message, where {dir} is that directory).
BOUNDARY_CHECKS = {
    "PredictionBatch 1-D scores": (
        lambda d: PredictionBatch(np.zeros(3), [0, 1, 0]), ValueError,
        "scores must be 2-D (n_samples, n_classes), got shape (3,)"),
    "PredictionBatch one column": (
        lambda d: PredictionBatch(np.zeros((3, 1)), [0, 0, 0]), ValueError,
        "need at least 2 score columns, got 1"),
    "PredictionBatch no rows": (
        lambda d: PredictionBatch(np.zeros((0, 2)), []), ValueError,
        "batch must contain at least one sample"),
    "Dataset 1-D features": (
        lambda d: Dataset(np.zeros(4), [0, 1, 0, 1], 2), ValueError,
        "features must be 2-D, got shape (4,)"),
    "Dataset empty features": (
        lambda d: Dataset(np.zeros((0, 2)), [], 2), ValueError,
        "need at least one sample and one feature, got (0, 2)"),
    "Dataset class_names": (
        lambda d: Dataset(np.zeros((4, 1)), [0, 1, 0, 1], 2, class_names=("a",)), ValueError,
        "class_names length 1 does not match n_classes 2"),
    "forward 1-D features": (
        lambda d: forward(init_model((2, 2), 0), np.zeros(2)), ValueError,
        "features must be 2-D, got shape (2,)"),
    "train_stacked feature shape": (
        lambda d: train_stacked(_STACK, np.zeros((2, 4, 3)), *_STACKED_DATA[1:], _STACKED_CONFIGS),
        ValueError, "training features must be (2, rows, 2), got (2, 4, 3)"),
    "train_stacked empty partition": (
        lambda d: train_stacked(_STACK, np.zeros((2, 0, 2)), np.zeros((2, 0), dtype=int),
                                *_STACKED_DATA[2:], _STACKED_CONFIGS),
        ValueError, "training partitions must be non-empty"),
    "evaluate_auroc_stacked feature shape": (
        lambda d: evaluate_auroc_stacked(_STACK, np.zeros((3, 4, 2)), np.zeros((3, 4), dtype=int)),
        ValueError, "evaluation features must be (2, rows, 2), got (3, 4, 2)"),
    "evaluate_auroc_stacked empty partition": (
        lambda d: evaluate_auroc_stacked(_STACK, np.zeros((2, 0, 2)), np.zeros((2, 0), dtype=int)),
        ValueError, "evaluation partitions must be non-empty"),
    "monte_carlo_split label shape": (
        lambda d: monte_carlo_split(10, [0, 1] * 4, SplitSpec(), 0), ValueError,
        "labels must have shape (10,), got (8,)"),
    "mean_ci non-finite": (
        lambda d: mean_ci([1.0, _NAN]), ValueError, "values must be finite"),
    "t_test one value": (
        lambda d: t_test([1.0], [1.0, 2.0]), ValueError, "each sample needs at least 2 values"),
    "t_test non-finite": (
        lambda d: t_test([1.0, 2.0], [1.0, _NAN]), ValueError, "samples must be finite"),
    "ExperimentConfig no arms": (
        lambda d: ExperimentConfig((), SplitSpec()), FieldError, "at least one arm is required"),
    "ExperimentConfig duplicate names": (
        lambda d: ExperimentConfig(_EXPERIMENT.arms * 2, SplitSpec()), FieldError,
        "arm names must be unique, got ['ce', 'ce']"),
    "ExperimentConfig 3 hidden layers": (
        lambda d: ExperimentConfig(_EXPERIMENT.arms, SplitSpec(), (4, 4, 4)), FieldError,
        "at most 2 hidden layers are supported, got (4, 4, 4)"),
    "ArmConfig empty name": (
        lambda d: ArmConfig("", "cross_entropy", 8), FieldError, "arm name must be non-empty"),
    "SplitSpec 2 ratios": (
        lambda d: SplitSpec(ratios=(0.5, 0.5)), FieldError,
        "ratios must be (train, val, test), got (0.5, 0.5)"),
    "softmax non-finite": (
        lambda d: softmax([0.0, _NAN]), ValueError, "softmax requires finite input"),
    "softmax 3-D": (
        lambda d: softmax(np.zeros((2, 2, 2))), ValueError,
        "softmax expects a vector or matrix, got shape (2, 2, 2)"),
    "logistic non-finite": (
        lambda d: logistic(_NAN), ValueError, "logistic requires finite input"),
    "AurocValue 1.5": (
        lambda d: AurocValue(1.5, 1, 1), ValueError, "AUROC must lie in [0, 1], got 1.5"),
    "AurocValue no positives": (
        lambda d: AurocValue(0.5, 0, 1), ValueError,
        "AUROC requires at least one positive and one negative"),
    "load_csv label only": (
        lambda d: load_csv(_write(d / "labels.csv", "y\n0\n1\n"), "y"), MissingColumnError,
        "{dir}/labels.csv: no value columns besides the label"),
    "load_scores_csv label a": (
        lambda d: load_scores_csv(_write(d / "scores.csv", "s0,s1,y\n0.1,0.9,a\n"), "y"),
        NonNumericCellError,
        "{dir}/scores.csv: row 0, column 'y': label 'a' is not an integer class index"),
}


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.mark.parametrize("entry", sorted(BOUNDARY_CHECKS))
def test_boundary_checks_raise_their_documented_error(entry, tmp_path):
    # Checks at the public entries that no other test reaches: each raises
    # its documented type with its own message.
    call, error, message = BOUNDARY_CHECKS[entry]
    with pytest.raises(error) as exc:
        call(tmp_path)
    assert type(exc.value) is error
    assert str(exc.value) == message.format(dir=tmp_path)
