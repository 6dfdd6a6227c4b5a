"""Exception types shared across the package.

Errors can cross a process boundary (anything raised inside a parallel
trial), so each must survive pickling with its extra attributes. The
default ``BaseException.__reduce__`` does that for an error built as
``Error(message, ...)``: it calls the type with ``args``, which hold the
message, and then restores ``__dict__``. ``FieldError``, whose first
argument is not the message, defines its own.

The package's integer, real-number and bool rules, and ``_check``, which
words their failures, sit next to ``FieldError``, which its configs raise.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


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


def _real(value) -> bool:
    """The real-number rule: a finite Python or NumPy real passes, integers and
    bool too; NaN, the infinities and an integer past the float range fail."""
    try:
        return isinstance(value, numbers.Real) and math.isfinite(value)
    except OverflowError:
        return False


def _bool(value) -> bool:
    """The bool rule: a Python or NumPy bool passes; 0, 1, None and a str such
    as "no" do not, though Python would read them as true or false."""
    return isinstance(value, (bool, np.bool_))


_WORDS = {_integer: ("an integer", "integers"), _real: ("a finite number", "finite numbers"),
          _bool: ("a bool", "bools")}
_POSITIVE = "positive"  # the lower bound "above 0"; a number N as the bound means "at least N"


def _check(rule, low, names: str, *values, field: str | None = None) -> None:
    """``rule`` (``_integer``, ``_real`` or ``_bool``), then the lower bound ``low`` (None:
    none), on ``values``, worded one way: "seed and epoch must be integers, got
    1.5 and 0"; a ``FieldError`` for ``field`` if given, else a ``ValueError``."""
    if not all(map(rule, values)):
        wording = _WORDS[rule][len(values) > 1]
    elif low is not None and not all(v > 0 if low is _POSITIVE else v >= low for v in values):
        wording = "positive" if low is _POSITIVE else f"at least {low}" if low else "nonnegative"
    else:
        return
    message = f"{names} must be {wording}, got {' and '.join(map(repr, values))}"
    raise ValueError(message) if field is None else FieldError(field, message)


def _check_integers(low: int | None = None, /, **values) -> None:
    """``_check`` of the integer rule on the named ``values``."""
    _check(_integer, low, " and ".join(values), *values.values())


def _check_fields(config, rule, /, **lows) -> None:
    """``_check`` of ``rule`` and each named field's bound on that field of ``config``."""
    for name, low in lows.items():
        _check(rule, low, name, getattr(config, name), field=name)


def _check_float64_size(n: int, what: str) -> None:
    """``MemoryError`` for an array of ``n`` float64 entries whose byte size
    is past the intp range: no address space holds it, and NumPy would
    raise ``ValueError`` ("Maximum allowed dimension exceeded", "array is
    too big") where a smaller impossible size raises its ``MemoryError``."""
    if n * 8 > np.iinfo(np.intp).max:
        raise MemoryError(f"{n} float64 entries for {what} are past the largest possible array")


def _sequence_field(config, name: str) -> tuple:
    """Field ``name`` of ``config`` as a tuple, or a ``FieldError`` naming it
    when the value is not a sequence (a bare number, say)."""
    value = getattr(config, name)
    try:
        return tuple(value)
    except TypeError:
        raise FieldError(name, f"{name} must be a sequence, got {value!r}") from None
