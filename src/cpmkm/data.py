"""Dataset container, CSV ingestion and per-class shuffles."""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

VARIANCE_FLOOR = 1e-12


def check_labels(labels: np.ndarray, num_classes: int):
    """Raise ValueError unless every label lies in 1..num_classes."""
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValueError(f"labels must lie in 1..{num_classes}")


@dataclass(frozen=True)
class Dataset:
    """Feature matrix with integer labels in 1..M, cast, checked and made read-only
    here; a caller that keeps and writes the array it passed in breaks the checks."""

    features: np.ndarray     # (n, d)
    labels: np.ndarray       # (n,) ints in 1..M
    num_classes: int
    # label m stands for the value classes[m - 1] of the file load_csv read
    classes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        features = np.atleast_2d(np.asarray(self.features, dtype=float)).view()
        labels = np.asarray(self.labels, dtype=int).view()
        features.flags.writeable = labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        if len(labels) != features.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if len(labels) < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(features)):
            raise ValueError("non-finite feature value")
        check_labels(labels, self.num_classes)

    def __len__(self):
        return len(self.labels)

    @property
    def dim(self):
        return self.features.shape[1]

    def class_value(self, cls: int):
        """The file's label value of class cls (cls itself without a file)."""
        return cls if self.classes is None else int(self.classes[cls - 1])

    def subset(self, indices) -> "Dataset":
        return Dataset(features=self.features[indices], labels=self.labels[indices],
                       num_classes=self.num_classes, classes=self.classes)


def standardize_columns(features: np.ndarray):
    """Zero-mean unit-variance transform; constant columns map to zeros."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = std ** 2 < VARIANCE_FLOOR
    std = np.where(constant, 1.0, std)
    out = features - mean
    out /= std
    out[:, constant] = 0.0
    return out, mean, std


def shuffled_class_indices(labels: np.ndarray, rng: np.random.Generator):
    """Indices of each class, classes in sorted order, each shuffled by rng."""
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        yield idx


def _read_csv(path) -> tuple[list[str], np.ndarray]:
    """Header and (n, width) finite float cells of a header CSV.

    Blank rows are skipped; every other row must have one cell per header
    column.  numpy's C reader parses the body in one pass; only when it
    fails, or a check on its result does, does _fault read the file again
    to find the row (the header is row 1) and column that errors name.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        try:
            with warnings.catch_warnings():
                # a body of blank rows is reported by _fault as "no data rows"
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                values = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"',
                                    ndmin=2)
        except ValueError as exc:
            raise _fault(path, len(header), cause=str(exc)) from None
    if values.shape[1] != len(header) or not len(values) or not np.isfinite(values).all():
        raise _fault(path, len(header),
                     cause=f"{len(values)} rows of {values.shape[1]} cells")
    return header, values


def _value(cell: str) -> float | None:
    """The cell's float as loadtxt reads it, or None: float() syntax in ASCII,
    without the digit-group underscores and non-ASCII digits float() takes."""
    text = cell.strip()
    if "_" in text or not text.isascii():
        return None
    try:
        return float(text)
    except ValueError:
        return None


def _fault(path, width: int, label: int | None = None, *, cause: str) -> ValueError:
    """The error for the first data row, in file order, with a cell count
    other than width, a cell loadtxt cannot parse, a non-finite value or, in
    column index label, a fractional number; "no data rows" without rows."""
    seen, start = False, 1
    with open(path, newline="", encoding="utf-8-sig") as fh:
        for row in (rows := csv.reader(fh)):
            r, start = start, rows.line_num + 1  # r: the file line this record starts on
            if r == 1 or not row:  # the header and blank rows
                continue
            seen = True
            if len(row) != width:
                return ValueError(f"{path}: row {r} has {len(row)} cells, "
                                  f"the header has {width}")
            for c, cell in enumerate(row, start=1):
                value = _value(cell)
                fault = ("unparseable cell" if value is None else
                         "non-finite value" if not math.isfinite(value) else
                         "non-integer label" if c - 1 == label and value % 1 else None)
                if fault:
                    return ValueError(f"{path}: {fault} at row {r}, column {c}")
    # reached only where csv and loadtxt split quoted text differently; the
    # caller's cause says what failed (loadtxt counts data rows from 0)
    return ValueError(f"{path}: {cause}" if seen else f"{path}: no data rows")


def _integer_labels(path, values, column) -> np.ndarray:
    """The label column of _read_csv's values; a fractional label is an error."""
    labels = values[:, column]
    if (labels != np.trunc(labels)).any():
        raise _fault(path, values.shape[1], column,
                     cause=f"non-integer label in column {column + 1}")
    return labels


def load_csv(path, label_column: str) -> Dataset:
    """Read a header CSV into a Dataset.

    Labels must be integers; they are re-encoded to contiguous 1..M in
    sorted order of the file's values, which the Dataset keeps as `classes`.
    """
    header, values = _read_csv(path)
    if label_column not in header:
        raise ValueError(f"{path}: no column named {label_column!r}")
    column = header.index(label_column)
    classes, labels = np.unique(_integer_labels(path, values, column),
                                return_inverse=True)
    if len(classes) < 2:
        raise ValueError(f"{path}: only one class present")
    return Dataset(features=np.delete(values, column, axis=1), labels=labels + 1,
                   num_classes=len(classes), classes=classes)


def load_label_csv(path) -> np.ndarray:
    """Read a header CSV of one integer label column, as load_csv reads labels."""
    header, values = _read_csv(path)
    if len(header) != 1:
        raise ValueError(f"{path}: {len(header)} columns, expected one label column")
    return _integer_labels(path, values, 0)


def load_feature_csv(path) -> np.ndarray:
    """Read a header CSV of numeric feature columns only (no label column)."""
    return _read_csv(path)[1]
