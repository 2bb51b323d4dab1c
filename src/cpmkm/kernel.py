"""Gaussian RBF kernel parameters and dense Gram matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPS = np.finfo(float).eps


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


def gram(rows, cols, params: KernelParams) -> GramMatrix:
    """Gram matrix K[i, j] = k(rows[i], cols[j]).

    The exponent -g ||x - y||^2 comes from one matrix product of the augmented
    points [x, ||x||^2, 1] and [2g y, -g, -g ||y||^2], centred at the mean of
    `cols`, so offset features lose no precision.  The few entries within the
    round-off bound of the expansion are recomputed from the differences, so
    identical points get exactly 1.  A self-Gram is exactly symmetric.
    """
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    cols = np.atleast_2d(np.asarray(cols, dtype=float))
    if rows.size == 0 or cols.size == 0:
        raise ValueError("empty point set")
    if rows.shape[1] != cols.shape[1]:
        raise ValueError(
            f"dimension mismatch: rows have d={rows.shape[1]}, cols d={cols.shape[1]}"
        )
    symmetric = rows is cols or (rows.shape == cols.shape and np.array_equal(rows, cols))
    center = cols.mean(axis=0)
    x = rows - center
    y = cols - center
    xx = np.einsum("ij,ij->i", x, x)
    yy = xx if symmetric else np.einsum("ij,ij->i", y, y)
    # a self-Gram adds its transpose below, so each half carries g/2
    g = params.gamma_sq_inv / (2.0 if symmetric else 1.0)
    d = x.shape[1]
    a = np.empty((len(x), d + 2))
    a[:, :d] = x
    a[:, d] = xx
    a[:, d + 1] = 1.0
    b = np.empty((len(y), d + 2))
    np.multiply(2.0 * g, y, out=b[:, :d])
    b[:, d] = -g
    np.multiply(-g, yy, out=b[:, d + 1])
    s = a @ b.T
    # the expansion errs by at most a few d * eps * (|x|^2 + |y|^2), times g;
    # the scan for entries past that bound runs only when the largest entry
    # is past it, or is NaN
    cut = -g * (4.0 * (d + 2) * EPS * (xx.max() + yy.max()))
    if not s.max() <= cut:
        i, j = np.divmod(np.flatnonzero(s > cut), s.shape[1])
        diff = x[i] - y[j]
        s[i, j] = -g * np.einsum("ij,ij->i", diff, diff)
    if symmetric:
        # the expansion's rounding is not symmetric; the sum of both halves is
        s += s.T.copy()
    return GramMatrix(values=np.exp(s, out=s))
