"""Class probability matching: estimate the ratio w(y) = q(y)/p(y).

Matches the source class frequencies against the target-averaged reweighted
posterior by box-constrained quasi-Newton minimization of the squared
mismatch, starting from the no-shift point w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .klr import check_simplex

FLOOR_S = 1e-12  # floor on each target point's denominator sum_m w_m p(m|x)
MAX_ITER = 1000  # L-BFGS-B iteration cap of cpm_solve


@dataclass(frozen=True)
class MatchProblem:
    p_hat: np.ndarray          # (M,) source class frequencies
    target_probs: np.ndarray   # (n_q, M) source posteriors on target points

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=float)
        tp = np.atleast_2d(np.asarray(self.target_probs, dtype=float))
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "target_probs", tp)
        check_simplex(p, 1e-10, 0.0, "p_hat")
        if tp.shape[1] != p.shape[0]:
            raise ValueError("target_probs column count must match len(p_hat)")
        check_simplex(tp, 1e-8, 0.0, "a target_probs row")

    @property
    def num_classes(self):
        return self.p_hat.shape[0]


def empirical_class_probs(labels, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size == 0:
        raise ValueError("empty label vector")
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValueError(f"labels must lie in 1..{num_classes}")
    return np.bincount(labels - 1, minlength=num_classes) / labels.size


def _check_w(w, num_classes: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (num_classes,):
        raise ValueError(f"w must have length {num_classes}")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("w must be nonnegative with at least one positive entry")
    return w


def reweighted_target_probs(problem: MatchProblem, w) -> np.ndarray:
    """(1/n_q) sum_i p_hat(y|X_i) / sum_m w_m p_hat(m|X_i), per class y."""
    w = _check_w(w, problem.num_classes)
    s = np.maximum(problem.target_probs @ w, FLOOR_S)
    return (problem.target_probs / s[:, None]).mean(axis=0)


def _loss_and_grad(w: np.ndarray, p_hat: np.ndarray,
                   tt: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared mismatch and its gradient on class-major posteriors tt (M, n_q).

    With a[y, i] = p(y|X_i) / s_i the reweighted means are a.sum(1) / n_q, and
    J = a a' / n_q is minus their Jacobian in w, so the gradient is
    2 J diff = (2 / n_q) a (diff' a).  Reductions run along contiguous rows.
    """
    n = tt.shape[1]
    a = tt / np.maximum(w @ tt, FLOOR_S)
    diff = p_hat - a.sum(axis=1) / n
    return float(diff @ diff), (2.0 / n) * (a @ (diff @ a))


def _class_major(problem: MatchProblem) -> np.ndarray:
    """The (M, n_q) contiguous copy of the posteriors that _loss_and_grad takes."""
    return np.ascontiguousarray(problem.target_probs.T)


def cpm_objective(problem: MatchProblem, w) -> float:
    return _loss_and_grad(_check_w(w, problem.num_classes), problem.p_hat,
                          _class_major(problem))[0]


def cpm_gradient(problem: MatchProblem, w) -> np.ndarray:
    return _loss_and_grad(_check_w(w, problem.num_classes), problem.p_hat,
                          _class_major(problem))[1]


def cpm_solve(problem: MatchProblem) -> np.ndarray:
    """Minimize the matching objective over w >= 0 from w0 = 1 (L-BFGS-B).

    Falls back to w0 when the solver ends at a higher objective than it began.
    """
    m = problem.num_classes
    tt = _class_major(problem)
    w0 = np.ones(m)
    f0 = _loss_and_grad(w0, problem.p_hat, tt)[0]
    # L-BFGS-B evaluates only within the bounds, where _loss_and_grad is defined
    res = minimize(_loss_and_grad, w0, args=(problem.p_hat, tt), jac=True,
                   method="L-BFGS-B", bounds=[(0.0, None)] * m,
                   options={"maxiter": MAX_ITER, "gtol": 1e-8, "ftol": 1e-12})
    if res.fun > f0:
        return w0
    return res.x
