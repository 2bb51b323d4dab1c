"""Gaussian RBF kernel evaluation and dense Gram matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist


@dataclass(frozen=True)
class KernelParams:
    """Gaussian kernel k(x, x') = exp(-g * ||x - x'||^2) with g = 1/gamma^2."""

    gamma_sq_inv: float

    def __post_init__(self):
        g = self.gamma_sq_inv
        if not (np.isfinite(g) and g > 0):
            raise ValueError(f"gamma_sq_inv must be positive and finite, got {g}")


@dataclass(frozen=True)
class GramMatrix:
    values: np.ndarray


def kernel_eval(x, y, params: KernelParams) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise ValueError(f"dimension mismatch: {x.shape} vs {y.shape}")
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-params.gamma_sq_inv * d2))


def gram(rows, cols, params: KernelParams) -> GramMatrix:
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if rows.size == 0 or cols.size == 0:
        raise ValueError("empty point set")
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have d={rows.shape[1]}, cols d={cols.shape[1]}"
        )
    symmetric = rows is cols or (rows.shape == cols.shape and np.array_equal(rows, cols))
    d2 = cdist(rows, cols, metric="sqeuclidean")
    values = np.exp(-params.gamma_sq_inv * d2)
    if symmetric:
        # exact unit diagonal regardless of cdist rounding
        np.fill_diagonal(values, 1.0)
        values = (values + values.T) / 2.0
    return GramMatrix(values=values)
