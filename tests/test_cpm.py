import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from cpmkm import baselines, cpm
from cpmkm.baselines import mlls_em
from cpmkm.cpm import (MatchProblem, cpm_gradient, cpm_objective, cpm_solve,
                       empirical_class_probs, reweighted_target_probs)
from cpmkm.selftest import _fd_match
from cpmkm.shiftlab import MIXTURE_MEANS
from mixture import gaussian_mixture_posterior


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

def test_gradient_zero_at_exact_match():
    rng = np.random.default_rng(4)
    problem = random_problem(rng, m=3, nq=8)
    r = reweighted_target_probs(problem, np.ones(3))
    matched = MatchProblem(p_hat=r, target_probs=problem.target_probs)
    assert cpm_gradient(matched, np.ones(3)) == pytest.approx(np.zeros(3), abs=1e-14)


def test_gradient_single_class():
    problem = MatchProblem(p_hat=[1.0], target_probs=[[1.0], [1.0]])
    w = np.array([1.7])
    analytic = cpm_gradient(problem, w)
    expected = 2 * (1 - 1 / w[0]) * (1 / w[0] ** 2)
    assert analytic[0] == pytest.approx(expected)
    assert _fd_match(lambda v: cpm_objective(problem, v), w, analytic, step=1e-6)


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


def row_major_loss_and_grad(problem, w):
    """Reference: the squared mismatch and its gradient on the row-major
    (n_q, M) posteriors, with the Jacobian formed explicitly."""
    tp = problem.target_probs
    s = np.maximum(tp @ w, 1e-12)
    diff = problem.p_hat - (tp / s[:, None]).mean(axis=0)
    jac = (tp / s[:, None] ** 2).T @ tp / len(tp)
    return float(np.sum(diff ** 2)), 2.0 * jac.T @ diff


def kkt_violation(problem, w):
    """Largest KKT violation of cpm_gradient at w >= 0: |g_k| where w_k > 0,
    and how far g_k falls below zero where w_k = 0."""
    g = cpm_gradient(problem, w)
    return float(np.max(np.where(w > 0, np.abs(g), np.maximum(-g, 0.0))))


def test_solve_minimizes_the_views():
    # cpm_solve ends at a KKT point of the objective that the cpm_objective /
    # cpm_gradient views evaluate, and the views match a row-major reference
    rng = np.random.default_rng(11)
    for m in range(2, 8):
        for _ in range(5):
            problem = random_problem(rng, m=m, nq=int(rng.integers(1, 40)))
            assert kkt_violation(problem, cpm_solve(problem)) <= 1e-9
        for _ in range(5):
            w = rng.random(m) * 3 + 1e-3
            value, grad = cpm_objective(problem, w), cpm_gradient(problem, w)
            ref_value, ref_grad = row_major_loss_and_grad(problem, w)
            np.testing.assert_allclose(value, ref_value, rtol=1e-12, atol=1e-15)
            np.testing.assert_allclose(grad, ref_grad, rtol=1e-12, atol=1e-15)


def lbfgsb_objective(problem, w0):
    """Reference: the objective L-BFGS-B reaches from w0 on w >= 0, run on the
    cpm_objective / cpm_gradient views."""
    m = problem.num_classes
    res = minimize(lambda w: (cpm_objective(problem, w), cpm_gradient(problem, w)), w0,
                   jac=True, method="L-BFGS-B", bounds=[(0.0, None)] * m,
                   options={"maxiter": 1000, "gtol": 1e-8, "ftol": 1e-12})
    return res.fun


@st.composite
def match_problems(draw, zeros):
    """M in 2..10 and n_q from 1, with duplicate rows; with zeros, posterior
    entries may be zero, and so may p_hat's in some draws."""
    m = draw(st.integers(2, 10))
    entry = st.floats(1e-3, 1.0)
    if zeros:
        entry = st.one_of(st.just(0.0), entry)
    row = arrays(float, m, elements=entry).filter(lambda v: v.sum() > 0)
    rows = draw(st.lists(row, min_size=1, max_size=8))
    picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=30))
    probs = np.array([rows[i] / rows[i].sum() for i in picks])
    p = draw(arrays(float, m, elements=st.floats(1e-3, 1.0)))
    if zeros and draw(st.integers(0, 3)) == 0:
        p[draw(st.lists(st.integers(0, m - 1), max_size=m - 1))] = 0.0
    return MatchProblem(p_hat=p / p.sum(), target_probs=probs)


@settings(deadline=None, max_examples=100)
@given(match_problems(zeros=True))
def test_solve_robust(problem):
    w = cpm_solve(problem)
    assert np.all(np.isfinite(w)) and np.all(w >= 0) and np.any(w > 0)
    assert cpm_objective(problem, w) <= cpm_objective(problem, np.ones(problem.num_classes))


@settings(deadline=None, max_examples=150)
@given(match_problems(zeros=False))
def test_solve_ends_at_a_local_minimum(problem):
    # The objective is not convex: from w0 = 1, L-BFGS-B and cpm_solve can end
    # at different KKT points, either one lower.  So the reference starts at
    # cpm_solve's answer and must not improve it.  With zero posterior entries
    # the infimum can lie at w_k = infinity, where no stop is final;
    # klr_predict floors every posterior at t > 0.
    w = cpm_solve(problem)
    assert cpm_objective(problem, w) <= lbfgsb_objective(problem, w) + 1e-15
    assert kkt_violation(problem, w) <= 1e-8


# Near-degenerate problems that hypothesis drew: nearly equal target rows
# leave J singular values 1e-9 to 1e-4 times the largest.  Unmodified Newton
# and Gauss-Newton steps stall on the first three (KKT violations 2e-8 to
# 5e-7, L-BFGS-B from the answer lower by up to 8e-14), a Gauss-Newton step
# without J's smallest singular value on the fourth, and a sqrt(eps)
# eigenvalue floor on the last two.
NEAR_DEGENERATE = {
    "rows-a": ((0.96969697, 0.01515152, 0.01515152),
               [(0.16, 0.64, 0.2), (0.15151515, 0.64646465, 0.2020202),
                (0.43243243, 0.00540541, 0.56216216)]),
    "rows-b": ((0.98084291, 0.00957854, 0.00957854),
               [(0.16, 0.64, 0.2), (0.15151515, 0.64646465, 0.2020202),
                (0.43357614, 0.00277489, 0.56364898)]),
    "rows-c": ((0.97709924, 0.01145038, 0.01145038),
               [(0.22920518, 0.47319778, 0.29759704)] * 2
               + [(0.17950266, 0.54699823, 0.27349911), (0.42736916, 0.00280529, 0.56982555)]),
    "rows-d": ((0.97709924, 0.01145038, 0.01145038),
               [(0.22920518, 0.47319778, 0.29759704)] * 2
               + [(0.15, 0.64, 0.21), (0.42736916, 0.00280529, 0.56982555)]),
    "valley-a": ((0.49902534, 0.00194932, 0.49902534),
                 [(0.4995122, 0.00097561, 0.4995122)] * 2 + [(0.30769231, 0.34615385, 0.34615385)]),
    "valley-b": ((0.49902534, 0.00194932, 0.49902534),
                 [(0.30769231, 0.34615385, 0.34615385), (0.4995122, 0.00097561, 0.4995122)]),
}


@pytest.mark.parametrize("p_hat, rows", NEAR_DEGENERATE.values(), ids=NEAR_DEGENERATE.keys())
def test_solve_ends_at_a_local_minimum_on_near_degenerate_rows(p_hat, rows):
    rows = np.array(rows)
    problem = MatchProblem(p_hat=np.divide(p_hat, sum(p_hat)),
                           target_probs=rows / rows.sum(axis=1, keepdims=True))
    w = cpm_solve(problem)
    assert cpm_objective(problem, w) <= lbfgsb_objective(problem, w) + 1e-15
    assert kkt_violation(problem, w) <= 1e-8


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
    from cpmkm.cpm import cpm_gradient as grad
    vals = []

    def fun(w):
        wc = np.maximum(w, 1e-12)
        return cpm_objective(problem, wc), grad(problem, wc)

    minimize(fun, np.ones(4), jac=True, method="L-BFGS-B",
             bounds=[(0, None)] * 4,
             callback=lambda w: vals.append(cpm_objective(problem, np.maximum(w, 1e-12))))
    assert np.all(np.diff(vals) <= 1e-12)


def test_solve_near_singular_hessian():
    # two distinct rows in M = 9: from w0 = 1 an unmodified Newton or
    # Gauss-Newton step is of order 1e16 and fails the line search
    a = np.array([0.169216, 0.110899, 0.109188, 0.090747, 0.113213, 0.185973,
                  0.009689, 0.185971, 0.025105])
    b = np.array([0.17084, 0.111963, 0.110235, 0.091618, 0.114299, 0.187757,
                  0.000188, 0.187755, 0.025346])
    p = np.array([0.136872, 0.089702, 0.136872, 0.073401, 0.091573, 0.150426,
                  0.150424, 0.150424, 0.020306])
    rows = [a / a.sum() if i in (0, 1, 11) else b / b.sum() for i in range(17)]
    problem = MatchProblem(p_hat=p / p.sum(), target_probs=rows)
    w = cpm_solve(problem)
    assert kkt_violation(problem, w) <= 1e-7
    assert cpm_objective(problem, w) <= lbfgsb_objective(problem, w) + 1e-15


def test_solve_returns_start_when_both_arcs_fail(monkeypatch):
    # no step passes an Armijo test of this size, neither along the Newton
    # arc nor along the projected gradient: the solve returns w0 silently
    monkeypatch.setattr(cpm, "ARMIJO", 1e300)
    problem = random_problem(np.random.default_rng(9), m=3, nq=10)
    assert np.array_equal(cpm_solve(problem), np.ones(3))


# ------------------------------------- CPM and MLLS solve the same equations

def mixture_draw(q, seed, shrink=0.0, n=2000):
    """Exact posteriors under uniform source priors of n target points from
    the 2-d three-class mixture with class weights q, mixed by shrink toward
    uniform (as an under-confident model would give)."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(3, size=n, p=q)
    x = MIXTURE_MEANS[labels] + 0.35 * rng.standard_normal((n, 2))
    return (1 - shrink) * gaussian_mixture_posterior(x) + shrink / 3


UNIFORM = np.full(3, 1 / 3)


def test_cpm_matches_mlls_on_an_interior_draw(monkeypatch):
    # An MLLS fixed point with every q_m > 0 satisfies p(m) = mean_i a_im(w),
    # CPM's zero-residual equation for p_hat = the source priors
    probs = mixture_draw([0.5, 0.3, 0.2], seed=0)
    w = cpm_solve(MatchProblem(p_hat=UNIFORM, target_probs=probs))
    assert np.all(w > 0)
    monkeypatch.setattr(baselines, "EM_TOL", 1e-12)
    np.testing.assert_allclose(w, mlls_em(probs, UNIFORM), rtol=0, atol=1e-10)


def test_cpm_differs_from_mlls_on_a_boundary_draw():
    # under-confident posteriors and an absent class: CPM's minimum lies on
    # w_3 = 0 with a residual left, where MLLS zeroes the free classes' residuals
    probs = mixture_draw([0.7, 0.3, 0.0], seed=0, shrink=0.5)
    problem = MatchProblem(p_hat=UNIFORM, target_probs=probs)
    w = cpm_solve(problem)
    assert w[2] == 0.0
    assert np.linalg.norm(UNIFORM - reweighted_target_probs(problem, w)) > 0.1
    assert np.abs(w - mlls_em(probs, UNIFORM)).max() > 0.1


@pytest.mark.parametrize("q, shrink", [([0.5, 0.3, 0.2], 0.0), ([0.7, 0.3, 0.0], 0.5)],
                         ids=["interior", "boundary"])
def test_solve_is_stable_to_row_order(q, shrink):
    probs = mixture_draw(q, seed=1, shrink=shrink)
    w = cpm_solve(MatchProblem(p_hat=UNIFORM, target_probs=probs))
    order = np.random.default_rng(2).permutation(len(probs))
    w_reordered = cpm_solve(MatchProblem(p_hat=UNIFORM, target_probs=probs[order]))
    np.testing.assert_allclose(w_reordered, w, rtol=0, atol=1e-10)


def test_problem_validation():
    with pytest.raises(ValueError):
        MatchProblem(p_hat=[0.6, 0.6], target_probs=[[0.5, 0.5]])
    with pytest.raises(ValueError):
        MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.9, 0.4]])
    with pytest.raises(ValueError):
        MatchProblem(p_hat=[np.nan, 0.5], target_probs=[[0.5, 0.5]])
    with pytest.raises(ValueError):
        MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.5, 0.5], [np.nan, 0.5]])
    problem = MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.5, 0.5]])
    for view in (cpm_objective, cpm_gradient):
        for w in ([-0.5, 1.0], [0.0, 0.0]):
            with pytest.raises(ValueError):
                view(problem, np.array(w))


REJECTED = {
    "column-count": (lambda: MatchProblem(p_hat=[0.5, 0.5], target_probs=[[0.2, 0.3, 0.5]]),
                     r"^target_probs column count must match len\(p_hat\)$"),
    "w-length": (lambda: cpm_objective(MatchProblem(p_hat=[0.5, 0.5],
                                                    target_probs=[[0.5, 0.5]]), np.ones(3)),
                 r"^w must have length 2$"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_input_rejected_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_problem_holds_read_only_copies():
    p_hat, probs = np.array([0.5, 0.5]), np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
    problem = MatchProblem(p_hat=p_hat, target_probs=probs)
    for array in (problem.p_hat, problem.target_probs):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.5
    p_hat[:] = [1.0, 0.0]
    probs[:] = [1.0, 0.0]
    assert problem.p_hat.tolist() == [0.5, 0.5]
    assert problem.target_probs.tolist() == [[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]]
    # the class-major array the objective reads is the transpose, without a copy
    assert problem.target_probs.shape == (3, 2) and problem.target_probs.T.flags.c_contiguous


def test_views_and_solve_read_the_problem_posteriors_in_place(monkeypatch):
    problem = random_problem(np.random.default_rng(3), m=3, nq=12)
    seen = []
    state = cpm._state

    def spy(w, p_hat, tt):
        seen.append(tt)
        return state(w, p_hat, tt)

    monkeypatch.setattr(cpm, "_state", spy)
    w = np.array([0.5, 1.0, 2.0])
    cpm_objective(problem, w)
    cpm_gradient(problem, w)
    cpm_solve(problem)
    assert len(seen) > 3
    assert all(np.shares_memory(tt, problem.target_probs) for tt in seen)
