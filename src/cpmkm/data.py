"""Dataset container and CSV ingestion."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

VARIANCE_FLOOR = 1e-12


@dataclass
class Dataset:
    """Feature matrix with integer labels in 1..M."""

    features: np.ndarray     # (n, d)
    labels: np.ndarray       # (n,) ints in 1..M
    num_classes: int
    # ingestion metadata, populated by load_csv
    label_mapping: dict | None = field(default=None, repr=False)
    feature_mean: np.ndarray | None = field(default=None, repr=False)
    feature_std: np.ndarray | None = field(default=None, repr=False)

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

    def subset(self, indices) -> "Dataset":
        return Dataset(features=self.features[indices], labels=self.labels[indices],
                       num_classes=self.num_classes)


def standardize_columns(features: np.ndarray):
    """Zero-mean unit-variance transform; constant columns map to zeros."""
    mean = features.mean(axis=0)
    std = features.std(axis=0)
    constant = std ** 2 < VARIANCE_FLOOR
    std = np.where(constant, 1.0, std)
    out = (features - mean) / std
    out[:, constant] = 0.0
    return out, mean, std


def apply_standardization(features: np.ndarray, mean: np.ndarray, std: np.ndarray):
    return (features - mean) / std


def load_csv(path, label_column: str, standardize: bool = True) -> Dataset:
    """Read a header CSV into a Dataset.

    Labels are re-encoded to contiguous 1..M in sorted order of the original
    values; the mapping and (if standardizing) the column statistics are kept
    on the Dataset for reuse on target data.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        if label_column not in header:
            raise ValueError(f"{path}: no column named {label_column!r}")
        label_idx = header.index(label_column)
        raw_labels = []
        rows = []
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                raw_labels.append(int(float(row[label_idx])))
            except (ValueError, IndexError):
                raise ValueError(f"{path}: unparseable label at row {r}, "
                                 f"column {label_idx + 1}")
            feats = []
            for c, cell in enumerate(row):
                if c == label_idx:
                    continue
                try:
                    feats.append(float(cell))
                except ValueError:
                    raise ValueError(f"{path}: unparseable cell at row {r}, column {c + 1}")
            rows.append(feats)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    distinct = sorted(set(raw_labels))
    if len(distinct) < 2:
        raise ValueError(f"{path}: only one class present")
    mapping = {orig: i + 1 for i, orig in enumerate(distinct)}
    labels = np.array([mapping[v] for v in raw_labels], dtype=int)
    features = np.array(rows, dtype=float)
    if not np.all(np.isfinite(features)):
        raise ValueError(f"{path}: non-finite feature value")
    mean = std = None
    if standardize:
        features, mean, std = standardize_columns(features)
    return Dataset(features=features, labels=labels, num_classes=len(distinct),
                   label_mapping=mapping, feature_mean=mean, feature_std=std)


def load_feature_csv(path) -> np.ndarray:
    """Read a header CSV of numeric feature columns only (no label column)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file")
        rows = []
        for r, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                rows.append([float(c) for c in row])
            except ValueError:
                raise ValueError(f"{path}: unparseable cell at row {r}")
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return np.array(rows, dtype=float)
