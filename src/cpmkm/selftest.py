"""Fast built-in invariant suite backing the `selftest` CLI command."""

from __future__ import annotations

import numpy as np

from . import cpm, klr
from .adapt import reweight_posterior
from .baselines import _em_map, mlls_em, mlls_log_likelihood
from .kernel import KernelParams, gram, kernel_eval


def _random_simplex(rng, m):
    v = rng.random(m) + 1e-3
    return v / v.sum()


def _floor_without_renormalization(p, t):
    """Faulty truncation for the negative control: floors but leaves the simplex."""
    return np.maximum(p, t)


def check_truncation(rng, truncate=klr.truncate_simplex) -> bool:
    for _ in range(200):
        m = rng.integers(2, 8)
        p = _random_simplex(rng, m)
        t = float(rng.choice([1e-8, 0.01, 1 / (2 * m) - 1e-6]))
        out = truncate(p, t)
        if abs(out.sum() - 1.0) > 1e-10 or out.min() < t - 1e-15:
            return False
        order = np.argsort(p)
        if np.any(np.diff(out[order]) < 0):
            return False
        if not np.array_equal(truncate(out, t), out):
            return False
    hand = truncate(np.array([0.5, 0.4, 0.1]), 0.2)
    return bool(np.allclose(hand, [0.44, 0.36, 0.2], atol=1e-12))


def check_klr_gradient(rng) -> bool:
    for _ in range(10):
        n, m, d = 6, 3, 2
        x = rng.standard_normal((n, d))
        labels = rng.integers(1, m + 1, size=n)
        labels[:m] = np.arange(1, m + 1)
        g = gram(x, x, KernelParams(0.7))
        alpha = 0.3 * rng.standard_normal((n, m - 1))
        analytic = klr.klr_gradient(alpha, g, labels, 0.05)
        if not _fd_match(lambda a: klr.klr_objective(a, g, labels, 0.05),
                         alpha, analytic):
            return False
    return True


def check_cpm_gradient(rng) -> bool:
    for _ in range(10):
        m, nq = 3, 12
        probs = np.array([_random_simplex(rng, m) for _ in range(nq)])
        problem = cpm.MatchProblem(p_hat=_random_simplex(rng, m), target_probs=probs)
        w = rng.random(m) + 0.3
        analytic = cpm.cpm_gradient(problem, w)
        if not _fd_match(lambda v: cpm.cpm_objective(problem, v), w, analytic,
                         step=1e-6):
            return False
    return True


def _fd_match(fun, point, analytic, step=1e-5, rtol=1e-5) -> bool:
    flat = np.asarray(point, dtype=float).ravel()
    fd = np.empty_like(flat)
    for i in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[i] += step
        lo[i] -= step
        fd[i] = (fun(hi.reshape(np.shape(point))) -
                 fun(lo.reshape(np.shape(point)))) / (2 * step)
    ref = max(np.abs(fd).max(), 1e-8)
    return bool(np.abs(np.asarray(analytic).ravel() - fd).max() / ref < rtol)


def check_identities(rng) -> bool:
    m = 4
    probs = np.array([_random_simplex(rng, m) for _ in range(10)])
    problem = cpm.MatchProblem(p_hat=_random_simplex(rng, m), target_probs=probs)
    w = rng.random(m) + 0.2
    # degree -1 homogeneity of the reweighted target probabilities
    for c in (0.5, 3.0):
        lhs = cpm.reweighted_target_probs(problem, c * w)
        rhs = cpm.reweighted_target_probs(problem, w) / c
        if not np.allclose(lhs, rhs, rtol=1e-12):
            return False
    # reweighting by all-ones is the identity
    row = _random_simplex(rng, m)
    if not np.allclose(reweight_posterior(row, np.ones(m)), row):
        return False
    # kernel symmetry and boundedness
    x, y = rng.standard_normal(3), rng.standard_normal(3)
    k1, k2 = kernel_eval(x, y, KernelParams(0.9)), kernel_eval(y, x, KernelParams(0.9))
    return k1 == k2 and 0 < k1 <= 1


def check_mlls_monotone(rng) -> bool:
    m, nq = 3, 30
    probs = np.clip(np.array([_random_simplex(rng, m) for _ in range(nq)]), 1e-6, None)
    probs /= probs.sum(axis=1, keepdims=True)
    priors = _random_simplex(rng, m)
    ll_prev = mlls_log_likelihood(probs, priors, priors)
    q = priors
    for _ in range(25):
        q = _em_map(probs / priors, q)
        ll = mlls_log_likelihood(probs, priors, q)
        if ll < ll_prev - 1e-12:
            return False
        ll_prev = ll
    w = mlls_em(probs, priors)
    return bool(np.all(w >= 0))


CHECKS = (
    ("truncation", check_truncation),
    ("klr-gradient", check_klr_gradient),
    ("cpm-gradient", check_cpm_gradient),
    ("identities", check_identities),
    ("mlls-monotonicity", check_mlls_monotone),
)


def run_selftest(echo=print, inject_fault: str | None = None) -> bool:
    """Run every check; inject_fault="truncation" swaps in a faulty truncation."""
    rng = np.random.default_rng(12345)
    ok = True
    for name, check in CHECKS:
        if name == "truncation" and inject_fault == "truncation":
            passed = bool(check_truncation(rng, _floor_without_renormalization))
        else:
            passed = bool(check(rng))
        echo(f"{name}: {'PASS' if passed else 'FAIL'}")
        ok = ok and passed
    return ok
