"""Class probability matching: estimate the ratio w(y) = q(y)/p(y).

Matches the source class frequencies against the target-averaged reweighted
posterior by projected Newton minimization of the squared mismatch over
w >= 0, starting from the no-shift point w = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_labels
from .klr import ARMIJO, T_MIN, check_simplex

FLOOR_S = 1e-12  # floor on each target point's denominator sum_m w_m p(m|x)
MAX_ITER = 1000  # projected Newton iteration cap of cpm_solve
ROUND = 8 * np.finfo(float).eps  # bound on f's rounding error per |r| (|p_hat| + |mean a|)
EIG_FLOOR = 1e-12  # least |eigenvalue| of cpm_solve's Newton model, relative to the largest


@dataclass(frozen=True)
class MatchProblem:
    p_hat: np.ndarray          # (M,) source class frequencies
    target_probs: np.ndarray   # (n_q, M) source posteriors on target points

    def __post_init__(self):
        # read-only copies; in Fortran order, target_probs.T is _state's C array
        p = np.array(self.p_hat, dtype=float)
        tp = np.array(self.target_probs, dtype=float, ndmin=2, order="F")
        p.flags.writeable = tp.flags.writeable = False
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
    check_labels(labels, num_classes)
    return np.bincount(labels - 1, minlength=num_classes) / labels.size


def _state_at(problem: MatchProblem, w):
    """_state at a caller's w, checked: the one entry of the public views."""
    w = np.asarray(w, dtype=float)
    if w.shape != (problem.num_classes,):
        raise ValueError(f"w must have length {problem.num_classes}")
    if np.any(w < 0) or not np.any(w > 0):
        raise ValueError("w must be nonnegative with at least one positive entry")
    return _state(w, problem.p_hat, problem.target_probs.T)


def reweighted_target_probs(problem: MatchProblem, w) -> np.ndarray:
    """(1/n_q) sum_i p_hat(y|X_i) / sum_m w_m p_hat(m|X_i): the class means of _state's a."""
    buf = _state_at(problem, w)[0]
    return buf[:problem.num_classes].sum(axis=1) / buf.shape[1]


def _state(w: np.ndarray, p_hat: np.ndarray, tt: np.ndarray):
    """The objective at w on class-major posteriors tt (M, n_q): a 2M-row buffer
    with a = tt / (w'tt) on top, the residual r = p_hat - a.sum(1) / n_q, f = |r|^2."""
    m, n = tt.shape
    buf = np.empty((2 * m, n))
    a = np.divide(tt, np.maximum(w @ tt, FLOOR_S), out=buf[:m])
    r = p_hat - a.sum(axis=1) / n
    return buf, r, float(r @ r)


def _products(buf: np.ndarray, r: np.ndarray):
    """One stacked product over a _state buffer gives J = a a' / n_q (minus the
    residual's Jacobian in w), curv = (a (r'a)) a' / n_q and the gradient 2 J r."""
    m = len(r)
    a = buf[:m]
    np.multiply(a, r @ a, out=buf[m:])
    parts = buf @ a.T / buf.shape[1]
    return parts[:m], parts[m:], 2.0 * parts[:m] @ r


def cpm_objective(problem: MatchProblem, w) -> float:
    return _state_at(problem, w)[2]


def cpm_gradient(problem: MatchProblem, w) -> np.ndarray:
    return _products(*_state_at(problem, w)[:2])[2]


def _newton_step(jac: np.ndarray, curv: np.ndarray, g: np.ndarray,
                 free: np.ndarray) -> np.ndarray:
    """Newton direction on the free coordinates, zero on the others.

    For g = 2 J r the exact Hessian is H = 2 (J^2 - 2 curv), where
    curv = (a (r'a)) a' / n_q is the residual's curvature term.  The step
    solves the free block of H with each eigenvalue lambda replaced by
    max(|lambda|, EIG_FLOOR * max |lambda|) (Nocedal and Wright, sec. 3.4),
    so it descends even where H is indefinite or singular.  Nearly equal
    target rows leave H eigenvalues 1e-16 to 1e-12 times the largest; an
    unmodified Newton or Gauss-Newton step along them is of order 1e4 to
    1e8, and the arc search cuts it to almost nothing on every iteration.
    A floor of sqrt(eps) would shorten steps along true curvatures of
    1e-11 times the largest, and the solve would crawl along such a valley.
    """
    h = 2.0 * (jac @ jac - 2.0 * curv)
    idx = np.flatnonzero(free)
    lam, v = np.linalg.eigh(h[np.ix_(idx, idx)])
    lam = np.abs(lam)
    d = np.zeros_like(g)
    d[idx] = v @ ((g[idx] @ v) / -np.maximum(lam, EIG_FLOOR * lam.max()))
    return d


def cpm_solve(problem: MatchProblem) -> np.ndarray:
    """Minimize the matching objective over w >= 0 by projected Newton from w0 = 1.

    Each iteration frees every coordinate that is positive or that the
    gradient does not push below zero, takes the Newton direction on them
    (Bertsekas 1982) from a Hessian with its eigenvalues kept positive and
    away from zero, and backtracks along the projection arc
    max(w + t d, 0) until the Armijo condition holds up to the objective's
    rounding error.  It stops when no free direction descends (the KKT
    conditions hold to round-off), or after a full step whose projected
    Newton decrement -g'd, the decrease its model predicts, was below that
    rounding error: near the minimum that step leaves w off by the square of
    its length.  Falls back to w0 when the solve ends at a higher objective
    than it began.
    """
    p_hat, tt = problem.p_hat, problem.target_probs.T

    def arc_search(w, f, d, slope, slack):
        """The first w_t = max(w + t d, 0), t = 1, 1/2, ..., down to T_MIN,
        that passes the Armijo test, with its state; None if none does."""
        t = 1.0
        while t >= T_MIN:
            w_t = np.maximum(w + t * d, 0.0)
            s_t = _state(w_t, p_hat, tt)
            if s_t[2] <= f + ARMIJO * t * slope + slack:
                return w_t, s_t, t
            t *= 0.5
        return None

    w0 = np.ones(len(p_hat))
    w = w0
    buf, r, f = _state(w, p_hat, tt)
    f0 = f
    for _ in range(MAX_ITER):
        jac, curv, g = _products(buf, r)
        free = (w > 0) | (g <= 0)
        d = _newton_step(jac, curv, g, free)
        slope = g @ d
        if not slope < 0:
            break  # no free direction descends: the KKT conditions hold
        slack = ROUND * (np.abs(r) @ (2.0 * p_hat - r))  # f's rounding error
        step = arc_search(w, f, d, slope, slack)
        if step is None:
            # the step overshoots its model everywhere along the arc, as on
            # near-singular problems: a projected-gradient step instead
            d = np.where(free, -g, 0.0)
            slope = g @ d
            step = arc_search(w, f, d, slope, slack)
            if step is None:
                break
        w, (buf, r, f), t = step
        if t == 1.0 and -slope <= slack:
            break  # a full step whose predicted decrease was below round-off
    return w0 if f > f0 else w
