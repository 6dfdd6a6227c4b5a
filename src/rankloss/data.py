"""Synthetic dataset generation and CSV ingestion.

Synthetic data are class-conditional Gaussians: one mean per class, placed
at one-hot corners scaled so all pairwise mean distances equal the requested
separation, with shared isotropic noise. An optional label-flip probability
relabels samples uniformly among the other classes, producing the noisy
outlier regime that motivates large-batch ranking losses.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (CsvError, EmptyFileError, FieldError, MissingColumnError, NonNumericCellError,
                     _POSITIVE, _check_fields, _check_integers, _integer, _real, _sequence_field)
from .metrics import _class_labels

__all__ = [
    "Dataset",
    "SyntheticSpec",
    "generate_synthetic",
    "load_csv",
    "load_scores_csv",
    "save_csv",
]


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, class-index labels, and optional class names.

    Labels follow ``PredictionBatch``'s rule, and every class index in
    [0, n_classes) must actually occur; class counts are retrievable via
    ``class_counts``.
    """

    features: np.ndarray
    labels: np.ndarray
    n_classes: int
    class_names: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        features = np.asarray(self.features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {features.shape}")
        n, d = features.shape
        if n < 1 or d < 1:
            raise ValueError(f"need at least one sample and one feature, got {features.shape}")
        if not np.all(np.isfinite(features)):
            raise ValueError("features must be finite (no NaN/inf)")
        _check_integers(n_classes=self.n_classes)
        if self.n_classes < 2:
            raise ValueError(f"need at least 2 classes, got {self.n_classes}")
        labels = _class_labels(self.labels, self.n_classes, (n,))
        counts = np.bincount(labels, minlength=self.n_classes)
        if (counts == 0).any():
            missing = int(np.flatnonzero(counts == 0)[0])
            raise ValueError(f"class {missing} has no samples")
        if self.class_names is not None and len(self.class_names) != self.n_classes:
            raise ValueError(
                f"class_names length {len(self.class_names)} does not match "
                f"n_classes {self.n_classes}"
            )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def n_samples(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.n_classes)


@dataclass(frozen=True)
class SyntheticSpec:
    """Recipe for a Gaussian-blob dataset.

    ``dim`` must be at least the class count so the one-hot mean placement
    keeps all pairwise mean distances equal to ``class_mean_separation``.
    """

    class_counts: tuple[int, ...]
    dim: int
    class_mean_separation: float
    noise_std: float
    label_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        counts = _sequence_field(self, "class_counts")
        if len(counts) < 2:
            raise FieldError("class_counts", f"need at least 2 classes, got counts {counts}")
        if not all(_integer(c) and c >= 1 for c in counts):
            raise FieldError("class_counts",
                             f"class counts must be positive integers, got {counts}")
        _check_fields(self, _integer, dim=None, seed=0)
        if self.dim < len(counts):
            raise FieldError(
                "dim",
                f"dim must be at least the class count ({len(counts)}) for "
                f"equidistant mean placement, got {self.dim}",
            )
        _check_fields(self, _real, class_mean_separation=0, noise_std=_POSITIVE, label_flip_prob=0)
        if not self.label_flip_prob < 0.5:
            raise FieldError("label_flip_prob",
                             f"label_flip_prob must lie in [0, 0.5), got {self.label_flip_prob}")
        object.__setattr__(self, "class_counts", tuple(map(int, counts)))

    @property
    def n_classes(self) -> int:
        return len(self.class_counts)


def generate_synthetic(spec: SyntheticSpec) -> Dataset:
    """Deterministically draw the dataset described by ``spec``.

    Rows are ordered by class (all of class 0, then class 1, ...); labels
    are flipped after feature generation, so a flipped sample keeps the
    feature distribution of its original class. Draws that overflow to inf
    raise ``FieldError`` for ``noise_std``, and flips that leave a class
    with no samples for ``label_flip_prob``.
    """
    rng = np.random.default_rng(spec.seed)
    n_classes = spec.n_classes
    # One-hot corners scaled by sep / sqrt(2) are mutually sep apart.
    means = np.zeros((n_classes, spec.dim))
    scale = spec.class_mean_separation / math.sqrt(2.0)
    for c in range(n_classes):
        means[c, c] = scale

    features = np.vstack([rng.normal(loc=means[c], scale=spec.noise_std, size=(count, spec.dim))
                          for c, count in enumerate(spec.class_counts)])
    if not np.isfinite(features).all():
        raise FieldError("noise_std", f"noise_std {spec.noise_std} with class_mean_separation "
                                      f"{spec.class_mean_separation} draws non-finite features")
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), spec.class_counts)

    flip = rng.random(labels.size) < spec.label_flip_prob
    if flip.any():
        offsets = rng.integers(1, n_classes, size=int(flip.sum()))
        labels[flip] = (labels[flip] + offsets) % n_classes
    emptied = np.flatnonzero(np.bincount(labels, minlength=n_classes) == 0)
    if emptied.size:
        raise FieldError(
            "label_flip_prob",
            f"label flips (probability {spec.label_flip_prob}, seed {spec.seed}) "
            f"left class {int(emptied[0])} with no samples",
        )
    return Dataset(
        features=features,
        labels=labels,
        n_classes=n_classes,
    )


def _read_rows(path, label_column: str) -> tuple[np.ndarray, list[str]]:
    """The one CSV row reader: a finite float matrix of every non-label
    column (in file order) plus the raw label cells.

    A short or long row, an empty label cell, and a missing, non-numeric or
    non-finite value cell raise ``NonNumericCellError`` naming the 0-based
    data row and the column; a file that is not UTF-8 raises ``CsvError``.
    A leading UTF-8 byte-order mark is not part of the first column's name.
    """
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CsvError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    # Dropped after decoding, so the byte offsets above count the mark.
    text = text.removeprefix("\ufeff")
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise EmptyFileError(f"{path}: file is empty") from None
    if label_column not in header:
        raise MissingColumnError(
            f"{path}: no column named {label_column!r} (columns: {header})"
        )
    label_pos = header.index(label_column)
    if len(header) < 2:
        raise MissingColumnError(f"{path}: no value columns besides the label")

    rows = []
    label_cells = []
    for row_no, row in enumerate(reader):
        if len(row) != len(header):
            short = min(len(row), len(header))
            name = header[short] if short < len(header) else header[-1]
            raise NonNumericCellError(
                f"{path}: row {row_no} has {len(row)} cells, expected "
                f"{len(header)} (first affected column {name!r})",
                row=row_no,
                column=name,
            )
        values = []
        for col_pos, name in enumerate(header):
            cell = row[col_pos]
            if col_pos == label_pos:
                if cell == "":
                    raise NonNumericCellError(
                        f"{path}: row {row_no}, column {name!r}: empty label cell",
                        row=row_no,
                        column=name,
                    )
                label_cells.append(cell)
                continue
            try:
                v = float(cell)
            except ValueError:
                v = math.nan
            if not math.isfinite(v):
                raise NonNumericCellError(
                    f"{path}: row {row_no}, column {name!r}: "
                    f"cannot parse {cell!r} as a finite number",
                    row=row_no,
                    column=name,
                )
            values.append(v)
        rows.append(values)
    if not rows:
        raise EmptyFileError(f"{path}: header only, no data rows")
    return np.asarray(rows, dtype=np.float64), label_cells


def load_csv(path, label_column: str) -> Dataset:
    """Load a header-first CSV; every non-label column is a numeric feature.

    Label values map to class indices by first appearance, recorded in
    ``class_names``. Any missing or non-numeric feature cell aborts the load
    with a ``NonNumericCellError`` naming the 0-based data row and the
    column.
    """
    features, label_cells = _read_rows(path, label_column)
    name_to_index: dict[str, int] = {}
    labels = [name_to_index.setdefault(cell, len(name_to_index)) for cell in label_cells]
    return Dataset(
        features=features,
        labels=np.asarray(labels, dtype=np.int64),
        n_classes=len(name_to_index),
        class_names=tuple(name_to_index),
    )


def load_scores_csv(path, label_column: str) -> tuple[np.ndarray, np.ndarray]:
    """Load a score CSV: every non-label column is a score, in file order,
    and each label cell is an integer class index.

    Reads through the same row reader as ``load_csv``, so malformed cells
    raise ``NonNumericCellError`` naming the row and column.
    """
    scores, label_cells = _read_rows(path, label_column)
    labels = []
    for row_no, cell in enumerate(label_cells):
        try:
            labels.append(int(cell))
        except ValueError:
            raise NonNumericCellError(
                f"{path}: row {row_no}, column {label_column!r}: label {cell!r} "
                "is not an integer class index",
                row=row_no,
                column=label_column,
            ) from None
    return scores, np.asarray(labels, dtype=np.int64)


def save_csv(dataset: Dataset, path, label_column: str = "label") -> None:
    """Write a dataset as CSV with 17-significant-digit floats (lossless round trip).

    Labels are written as their class names when present, else as the bare
    index; ``load_csv`` recovers the same labels as long as classes first
    appear in index order (true for generated datasets, which are
    class-ordered).
    """
    path = Path(path)
    header = [f"f{i}" for i in range(dataset.n_features)] + [label_column]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for x, y in zip(dataset.features, dataset.labels):
            name = dataset.class_names[y] if dataset.class_names else str(int(y))
            writer.writerow([format(v, ".17g") for v in x] + [name])
