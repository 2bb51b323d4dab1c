import numpy as np
import pytest

from cpmkm.cpm import (MatchProblem, cpm_gradient, cpm_objective, cpm_solve,
                       empirical_class_probs, reweighted_target_probs)


def random_simplex(rng, m):
    v = rng.random(m) + 1e-6
    return v / v.sum()


def random_problem(rng, m=None, nq=None):
    m = m or int(rng.integers(2, 6))
    nq = nq or int(rng.integers(2, 21))
    probs = np.array([random_simplex(rng, m) for _ in range(nq)])
    return MatchProblem(p_hat=random_simplex(rng, m), target_probs=probs)


# -------------------------------------------------- empirical class probs

def test_counting():
    assert empirical_class_probs([1, 1, 2, 3], 3) == pytest.approx([0.5, 0.25, 0.25])


def test_single_class():
    assert empirical_class_probs([2, 2, 2], 3) == pytest.approx([0, 1, 0])


def test_absent_classes():
    assert empirical_class_probs([1, 2], 4) == pytest.approx([0.5, 0.5, 0, 0])


def test_empty_and_out_of_range():
    with pytest.raises(ValueError):
        empirical_class_probs([], 2)
    with pytest.raises(ValueError):
        empirical_class_probs([0, 1], 2)
    with pytest.raises(ValueError):
        empirical_class_probs([1, 3], 2)


# ------------------------------------------------- reweighted target probs

def test_reweighted_all_ones_gives_column_means():
    rng = np.random.default_rng(0)
    problem = random_problem(rng, m=3, nq=10)
    r = reweighted_target_probs(problem, np.ones(3))
    assert r == pytest.approx(problem.target_probs.mean(axis=0))
    assert r.sum() == pytest.approx(1.0)


def test_reweighted_single_row():
    problem = MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.5, 0.5]])
    r = reweighted_target_probs(problem, np.array([2.0, 1.0]))
    assert r == pytest.approx([1 / 3, 1 / 3])


def test_reweighted_all_zero_w_rejected():
    problem = MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.5, 0.5]])
    with pytest.raises(ValueError):
        reweighted_target_probs(problem, np.zeros(2))


def test_reweighted_homogeneity_degree_minus_one():
    rng = np.random.default_rng(1)
    for _ in range(20):
        problem = random_problem(rng)
        w = rng.random(problem.num_classes) + 0.1
        c = float(rng.random() * 5 + 0.1)
        lhs = reweighted_target_probs(problem, c * w)
        rhs = reweighted_target_probs(problem, w) / c
        assert lhs == pytest.approx(rhs, rel=1e-12)


# -------------------------------------------------------------- objective

def test_objective_zero_at_match():
    rng = np.random.default_rng(2)
    problem = random_problem(rng, m=3, nq=8)
    r = reweighted_target_probs(problem, np.ones(3))
    matched = MatchProblem(p_hat=r, target_probs=problem.target_probs)
    assert cpm_objective(matched, np.ones(3)) == pytest.approx(0.0, abs=1e-16)


def test_objective_hand_case():
    problem = MatchProblem(p_hat=[0.5, 0.5], target_probs=[[1.0, 0.0]])
    assert cpm_objective(problem, np.ones(2)) == pytest.approx(0.5)


def test_objective_nonnegative():
    rng = np.random.default_rng(3)
    for _ in range(30):
        problem = random_problem(rng)
        w = rng.random(problem.num_classes) + 0.05
        assert cpm_objective(problem, w) >= 0.0


# --------------------------------------------------------------- gradient

def fd_gradient(problem, w, step=1e-6):
    out = np.empty_like(w)
    for i in range(len(w)):
        hi, lo = w.copy(), w.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (cpm_objective(problem, hi) - cpm_objective(problem, lo)) / (2 * step)
    return out


def test_gradient_zero_at_exact_match():
    rng = np.random.default_rng(4)
    problem = random_problem(rng, m=3, nq=8)
    r = reweighted_target_probs(problem, np.ones(3))
    matched = MatchProblem(p_hat=r, target_probs=problem.target_probs)
    assert cpm_gradient(matched, np.ones(3)) == pytest.approx(np.zeros(3), abs=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(5)
    for _ in range(100):
        problem = random_problem(rng)
        w = rng.random(problem.num_classes) + 0.2
        analytic = cpm_gradient(problem, w)
        fd = fd_gradient(problem, w)
        assert np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5


def test_gradient_single_class():
    problem = MatchProblem(p_hat=[1.0], target_probs=[[1.0], [1.0]])
    w = np.array([1.7])
    analytic = cpm_gradient(problem, w)
    expected = 2 * (1 - 1 / w[0]) * (1 / w[0] ** 2)
    assert analytic[0] == pytest.approx(expected)
    assert analytic == pytest.approx(fd_gradient(problem, w), rel=1e-5)


# ------------------------------------------------------------------ solve

def test_solve_exact_two_point_oracle():
    # discrete domain with two feature atoms, exact expectations via replication
    pxy = np.array([[0.8, 0.2], [0.3, 0.7]])          # p(x | y)
    p_y = np.array([0.5, 0.5])
    q_y = np.array([0.2, 0.8])
    w_star = q_y / p_y
    p_x = p_y @ pxy
    posterior = (pxy * p_y[:, None]).T / p_x[:, None]  # p(y | x), rows by x
    # q(x) = (0.4, 0.6): replicate rows 2:3 for exact target expectations
    rows = np.vstack([np.tile(posterior[0], (2, 1)), np.tile(posterior[1], (3, 1))])
    w = cpm_solve(MatchProblem(p_hat=p_y, target_probs=rows))
    assert np.linalg.norm(w - w_star) <= 1e-6


def test_solve_no_shift_monte_carlo():
    rng = np.random.default_rng(6)
    # well-separated 1-d binary task with analytically known posteriors
    labels = rng.integers(0, 2, 3000)
    x = rng.normal(labels * 4.0 - 2.0, 1.0)
    z = np.exp(-((x - 2.0) ** 2 - (x + 2.0) ** 2) / 2)
    p1 = 1 / (1 + z)
    probs = np.c_[p1, 1 - p1]
    problem = MatchProblem(p_hat=np.array([0.5, 0.5]), target_probs=probs)
    w = cpm_solve(problem)
    assert np.abs(w - 1.0).max() <= 0.05


def test_solve_single_class_returns_one():
    problem = MatchProblem(p_hat=[1.0], target_probs=[[1.0], [1.0], [1.0]])
    assert cpm_solve(problem) == pytest.approx([1.0])


def test_solve_never_worse_than_start():
    rng = np.random.default_rng(7)
    for _ in range(20):
        problem = random_problem(rng)
        w = cpm_solve(problem)
        assert (cpm_objective(problem, w)
                <= cpm_objective(problem, np.ones(problem.num_classes)) + 1e-15)


def test_solve_monotone_iterates():
    rng = np.random.default_rng(8)
    problem = random_problem(rng, m=4, nq=15)
    from scipy.optimize import minimize
    from cpmkm.cpm import cpm_gradient as grad
    vals = []

    def fun(w):
        wc = np.maximum(w, 1e-12)
        return cpm_objective(problem, wc), grad(problem, wc)

    minimize(fun, np.ones(4), jac=True, method="L-BFGS-B",
             bounds=[(0, None)] * 4,
             callback=lambda w: vals.append(cpm_objective(problem, np.maximum(w, 1e-12))))
    assert np.all(np.diff(vals) <= 1e-12)


def test_problem_validation():
    with pytest.raises(ValueError):
        MatchProblem(p_hat=[0.6, 0.6], target_probs=[[0.5, 0.5]])
    with pytest.raises(ValueError):
        MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.9, 0.4]])
    problem = MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.5, 0.5]])
    for view in (cpm_objective, cpm_gradient):
        for w in ([-0.5, 1.0], [0.0, 0.0]):
            with pytest.raises(ValueError):
                view(problem, np.array(w))
