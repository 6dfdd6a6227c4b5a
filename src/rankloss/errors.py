"""Exception types shared across the package.

Errors can cross a process boundary (anything raised inside a parallel
trial), so each must survive pickling with its extra attributes. The
default ``BaseException.__reduce__`` does that for an error built as
``Error(message, ...)``: it calls the type with ``args``, which hold the
message, and then restores ``__dict__``. ``FieldError``, whose first
argument is not the message, defines its own.

The package's one integer rule for sizes, counts and seeds sits next to
``FieldError``, which its config checks raise.
"""

from __future__ import annotations

import numbers


class RanklossError(Exception):
    """Base class for all errors raised by this package."""


class EmptyClassError(RanklossError):
    """A computation needed samples of a class that has none.

    AUROC and the pairwise ranking losses are undefined when either side of
    a positive/negative split is empty.
    """

    def __init__(self, message: str, class_index: int | None = None):
        super().__init__(message)
        self.class_index = class_index


class InfeasibleBatchError(RanklossError):
    """The batch constraints cannot be satisfied for the given labels."""


class TooSmallError(RanklossError):
    """A stratified split would leave a partition with no samples of a class."""


class NonFiniteError(RanklossError):
    """Logits or a loss value became NaN or infinite during training.

    ``epoch`` and ``batch`` locate the step when one applies: a
    validation pass has an epoch but no batch, and an evaluation outside
    training has neither.
    """

    def __init__(self, message: str, epoch: int | None = None, batch: int | None = None):
        super().__init__(message)
        self.epoch = epoch
        self.batch = batch


class DegenerateVarianceError(RanklossError):
    """Both t-test samples are constant and equal; the statistic is 0/0."""


class TrialError(RanklossError):
    """A trial of the experiment harness failed; carries the trial index."""

    def __init__(self, message: str, trial: int = -1):
        super().__init__(message)
        self.trial = trial


class CsvError(RanklossError):
    """Base class for CSV ingestion problems."""


class MissingColumnError(CsvError):
    """The requested column does not exist in the header row."""


class NonNumericCellError(CsvError):
    """A feature cell could not be parsed as a number.

    ``row`` is the 0-based index of the data row (the header does not
    count); ``column`` is the column name from the header.
    """

    def __init__(self, message: str, row: int = -1, column: str = ""):
        super().__init__(message)
        self.row = row
        self.column = column


class EmptyFileError(CsvError):
    """The file has no header or no data rows."""


class FieldError(ValueError):
    """A configuration dataclass holds an invalid value.

    ``field`` names the offending field as a '/'-separated path relative to
    the dataclass that raised (``"batch_size"``, ``"arms/1/loss_kind"``), so
    a caller that knows where the values came from can point at them.
    """

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field

    def __reduce__(self):
        return (type(self), (self.field, self.args[0]))


class ConfigError(RanklossError):
    """A configuration document is invalid; ``pointer`` locates the field."""

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer


def _integer(value) -> bool:
    """The integer rule: a Python or NumPy integer passes; a float does not,
    even one that holds a whole number."""
    return isinstance(value, numbers.Integral)


def _integer_fields(config, *names: str) -> None:
    """Raise ``FieldError`` for the first field in ``names`` of ``config`` that is not an integer."""
    for name in names:
        value = getattr(config, name)
        if not _integer(value):
            raise FieldError(name, f"{name} must be an integer, got {value!r}")
