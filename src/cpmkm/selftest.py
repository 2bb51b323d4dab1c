"""Invariant suite of the `selftest` command; also acceptance criteria 1, 2 and 10."""

from __future__ import annotations

import numpy as np

from . import cpm, klr
from .baselines import _class_major_ratio, _em_map, _mean_log_lik, mlls_em
from .kernel import KernelParams, gram


def _random_simplex(rng, shape):
    v = rng.random(shape) + 1e-3
    return v / v.sum(axis=-1, keepdims=True)


def check_truncation(rng) -> bool:
    """10 000 vectors, M in 2..10, at three thresholds each, truncated as one
    row-wise matrix per M as klr_predict does: on the simplex, floored at t,
    order kept, idempotent; and the hand case."""
    sizes = rng.integers(2, 11, 10_000)
    for m in range(2, 11):
        p = rng.random((int(np.sum(sizes == m)), m)) + 1e-9
        p /= p.sum(axis=1, keepdims=True)
        order = np.argsort(p, axis=1)
        for t in (1e-8, 0.01, 1 / (2 * m) - 1e-6):
            out = klr.truncate_simplex(p, t)
            if (np.any(np.abs(out.sum(axis=1) - 1.0) > 1e-10) or np.any(out < t - 1e-15)
                    or np.any(np.diff(np.take_along_axis(out, order, axis=1)) < 0)
                    or not np.array_equal(klr.truncate_simplex(out, t), out)):
                return False
    hand = klr.truncate_simplex(np.array([0.5, 0.4, 0.1]), 0.2)
    return bool(np.allclose(hand, [0.44, 0.36, 0.2], atol=1e-12))


def check_klr_gradient(rng) -> bool:
    """100 random KLR problems: analytic gradient against central differences."""
    for _ in range(100):
        n = int(rng.integers(4, 11))
        m = int(rng.integers(2, 5))
        d = int(rng.integers(1, 4))
        x = rng.standard_normal((n, d))
        g = gram(x, x, KernelParams(float(rng.random() + 0.1)))
        labels = np.r_[np.arange(1, m + 1), rng.integers(1, m + 1, n - m)]
        alpha = 0.5 * rng.standard_normal((n, m - 1))
        lam = float(rng.random() * 0.5 + 0.01)
        if not _fd_match(lambda a: klr.klr_objective(a, g, labels, lam), alpha,
                         klr.klr_gradient(alpha, g, labels, lam), step=1e-5):
            return False
    return True


def check_cpm_gradient(rng) -> bool:
    """100 random CPM problems: analytic gradient against central differences."""
    for _ in range(100):
        m = int(rng.integers(2, 6))
        probs = _random_simplex(rng, (int(rng.integers(2, 21)), m))
        problem = cpm.MatchProblem(p_hat=_random_simplex(rng, m), target_probs=probs)
        w = rng.random(m) + 0.2
        if not _fd_match(lambda v: cpm.cpm_objective(problem, v), w,
                         cpm.cpm_gradient(problem, w), step=1e-6):
            return False
    return True


def _fd_match(fun, point, analytic, step) -> bool:
    """Central differences of fun at point match analytic to 1e-5 relative."""
    fd = np.empty(point.size)
    for i, e in enumerate(np.eye(point.size).reshape(-1, *point.shape) * step):
        fd[i] = (fun(point + e) - fun(point - e)) / (2 * step)
    ref = max(np.abs(fd).max(), 1e-8)
    return bool(np.abs(analytic.ravel() - fd).max() / ref < 1e-5)


def check_mlls_monotone(rng) -> bool:
    """50 random problems: 60 EM maps each stay on the simplex and never lower
    the likelihood, and mlls_em returns a nonnegative ratio."""
    for _ in range(50):
        m = int(rng.integers(2, 6))
        probs = _random_simplex(rng, (int(rng.integers(5, 60)), m))
        priors = _random_simplex(rng, m)
        ratio = _class_major_ratio(probs, priors)
        q = priors.copy()
        ll_prev = _mean_log_lik(ratio, q)
        for _ in range(60):
            q = _em_map(ratio, q)
            ll = _mean_log_lik(ratio, q)
            if abs(q.sum() - 1.0) > 1e-12 or ll < ll_prev - 1e-12:
                return False
            ll_prev = ll
        if np.any(mlls_em(probs, priors) < 0):
            return False
    return True


CHECKS = (
    ("truncation", check_truncation),
    ("klr-gradient", check_klr_gradient),
    ("cpm-gradient", check_cpm_gradient),
    ("mlls-monotonicity", check_mlls_monotone),
)
