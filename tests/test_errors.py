import pickle

import pytest

from rankloss import (
    ConfigError,
    CsvError,
    DegenerateVarianceError,
    EmptyClassError,
    EmptyFileError,
    FieldError,
    InfeasibleBatchError,
    MissingColumnError,
    NonFiniteError,
    NonNumericCellError,
    RanklossError,
    TooSmallError,
    TrialError,
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
