"""Dataset container, CSV ingestion and per-class shuffles."""

from __future__ import annotations

import csv
from array import array
from dataclasses import dataclass, field

import numpy as np

VARIANCE_FLOOR = 1e-12


@dataclass
class Dataset:
    """Feature matrix with integer labels in 1..M."""

    features: np.ndarray     # (n, d)
    labels: np.ndarray       # (n,) ints in 1..M
    num_classes: int
    # label m stands for the value classes[m - 1] of the file load_csv read
    classes: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.features = np.atleast_2d(np.asarray(self.features, dtype=float))
        self.labels = np.asarray(self.labels, dtype=int)
        if len(self.labels) != self.features.shape[0]:
            raise ValueError("features and labels disagree on sample count")
        if len(self.labels) < 1:
            raise ValueError("dataset must contain at least one sample")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("non-finite feature value")
        if self.labels.min() < 1 or self.labels.max() > self.num_classes:
            raise ValueError(f"labels must lie in 1..{self.num_classes}")

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
    out = (features - mean) / std
    out[:, constant] = 0.0
    return out, mean, std


def shuffled_class_indices(labels: np.ndarray, rng: np.random.Generator):
    """Indices of each class, classes in sorted order, each shuffled by rng."""
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        yield idx


def _read_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Header, (n, width) finite float cells and file row numbers of a header CSV.

    Blank rows are skipped; every other row must have one cell per header
    column.  Errors name the file row (the header is row 1) and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        width = len(header)
        # packed C doubles and ints: a list per row would hold a float object
        # per cell, several times the array's memory, until the end
        cells_read, row_numbers = array("d"), array("q")
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise ValueError(f"{path}: row {r} has {len(row)} cells, "
                                 f"the header has {width}")
            cells = iter(row)
            try:
                cells_read.extend([float(cell) for cell in cells])
            except ValueError:
                # the bad cell is the last one the comprehension consumed
                column = width - sum(1 for _ in cells)
                raise ValueError(f"{path}: unparseable cell at row {r}, "
                                 f"column {column}")
            row_numbers.append(r)
    if not row_numbers:
        raise ValueError(f"{path}: no data rows")
    values = np.frombuffer(cells_read, dtype=float).reshape(-1, width)
    bad = np.argwhere(~np.isfinite(values))
    if len(bad):
        i, c = bad[0]
        raise ValueError(f"{path}: non-finite value at row {row_numbers[i]}, "
                         f"column {c + 1}")
    return header, values, np.frombuffer(row_numbers, dtype=np.int64)


def _integer_labels(path, values, row_numbers, column) -> np.ndarray:
    """The label column of _read_csv's values; a fractional label is an error."""
    labels = values[:, column]
    fractional = np.flatnonzero(labels != np.trunc(labels))
    if len(fractional):
        raise ValueError(f"{path}: non-integer label at row "
                         f"{row_numbers[fractional[0]]}, column {column + 1}")
    return labels


def load_csv(path, label_column: str) -> Dataset:
    """Read a header CSV into a Dataset.

    Labels must be integers; they are re-encoded to contiguous 1..M in
    sorted order of the file's values, which the Dataset keeps as `classes`.
    """
    header, values, row_numbers = _read_csv(path)
    if label_column not in header:
        raise ValueError(f"{path}: no column named {label_column!r}")
    column = header.index(label_column)
    classes, labels = np.unique(_integer_labels(path, values, row_numbers, column),
                                return_inverse=True)
    if len(classes) < 2:
        raise ValueError(f"{path}: only one class present")
    return Dataset(features=np.delete(values, column, axis=1), labels=labels + 1,
                   num_classes=len(classes), classes=classes)


def load_label_csv(path) -> np.ndarray:
    """Read a header CSV of one integer label column, as load_csv reads labels."""
    header, values, row_numbers = _read_csv(path)
    if len(header) != 1:
        raise ValueError(f"{path}: {len(header)} columns, expected one label column")
    return _integer_labels(path, values, row_numbers, 0)


def load_feature_csv(path) -> np.ndarray:
    """Read a header CSV of numeric feature columns only (no label column)."""
    return _read_csv(path)[1]
