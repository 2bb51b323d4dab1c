"""Class probability matching: estimate the ratio w(y) = q(y)/p(y).

Matches the source class frequencies against the target-averaged reweighted
posterior by box-constrained quasi-Newton minimization of the squared
mismatch, starting from the no-shift point w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

FLOOR_S = 1e-12


@dataclass(frozen=True)
class MatchProblem:
    p_hat: np.ndarray          # (M,) source class frequencies
    target_probs: np.ndarray   # (n_q, M) source posteriors on target points
    floor_s: float = FLOOR_S

    def __post_init__(self):
        p = np.asarray(self.p_hat, dtype=float)
        tp = np.atleast_2d(np.asarray(self.target_probs, dtype=float))
        object.__setattr__(self, "p_hat", p)
        object.__setattr__(self, "target_probs", tp)
        if abs(p.sum() - 1.0) > 1e-10:
            raise ValueError("p_hat must sum to 1")
        if tp.shape[1] != p.shape[0]:
            raise ValueError("target_probs column count must match len(p_hat)")
        if np.any(np.abs(tp.sum(axis=1) - 1.0) > 1e-8) or np.any(tp < 0):
            raise ValueError("target_probs rows must lie on the simplex")

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


def _denominators(problem: MatchProblem, w: np.ndarray) -> np.ndarray:
    s = problem.target_probs @ w
    return np.maximum(s, problem.floor_s)


def reweighted_target_probs(problem: MatchProblem, w) -> np.ndarray:
    """(1/n_q) sum_i p_hat(y|X_i) / sum_m w_m p_hat(m|X_i), per class y."""
    w = _check_w(w, problem.num_classes)
    s = _denominators(problem, w)
    return (problem.target_probs / s[:, None]).mean(axis=0)


def _loss_and_grad(problem: MatchProblem, w: np.ndarray) -> tuple[float, np.ndarray]:
    """Squared mismatch and its gradient from one pass over the denominators."""
    s = _denominators(problem, w)
    tp = problem.target_probs
    diff = problem.p_hat - (tp / s[:, None]).mean(axis=0)
    # J[y, m] = (1/n_q) sum_i p(y|X_i) p(m|X_i) / s_i^2  (= -dr_y/dw_m)
    jac = (tp / s[:, None] ** 2).T @ tp / tp.shape[0]
    return float(np.sum(diff ** 2)), 2.0 * jac.T @ diff


def cpm_objective(problem: MatchProblem, w) -> float:
    return _loss_and_grad(problem, _check_w(w, problem.num_classes))[0]


def cpm_gradient(problem: MatchProblem, w) -> np.ndarray:
    return _loss_and_grad(problem, _check_w(w, problem.num_classes))[1]


def cpm_solve(problem: MatchProblem, max_iter: int = 1000) -> np.ndarray:
    """Minimize the matching objective over w >= 0 from w0 = 1 (L-BFGS-B)."""
    m = problem.num_classes
    w0 = np.ones(m)
    f0 = cpm_objective(problem, w0)
    if not np.isfinite(f0):
        raise ValueError("objective non-finite at the all-ones start")

    def fun(w):
        wc = np.maximum(w, 0.0)
        # all-zero w lies outside the domain _check_w enforces
        if not np.any(wc > 0):
            wc = np.full(m, problem.floor_s)
        return _loss_and_grad(problem, wc)

    res = minimize(fun, w0, jac=True, method="L-BFGS-B",
                   bounds=[(0.0, None)] * m,
                   options={"maxiter": max_iter, "gtol": 1e-8, "ftol": 1e-12})
    w = np.maximum(res.x, 0.0)
    if cpm_objective(problem, w) > f0:
        return w0
    return w
