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
    SplitSpec,
    SyntheticSpec,
    TooSmallError,
    TrainConfig,
    TrialError,
    init_model,
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
