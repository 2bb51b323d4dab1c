import json
import re
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg.lapack
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs
from scipy.optimize import minimize
from scipy.special import logsumexp

from cpmkm import klr
from cpmkm.data import Dataset, shuffled_class_indices
from cpmkm.kernel import GramMatrix, KernelParams, gram
from cpmkm.klr import (PREDICT_BLOCK, CvGrid, CvSelection, KlrModel, cv_select,
                       klr_fit, klr_gradient, klr_objective, klr_predict,
                       pivoted_factor, softmax_scores, truncate_simplex)
from cpmkm.shiftlab import gaussian_mixture_pool, sample_source


def random_simplex(rng, m):
    v = rng.random(m) + 1e-6
    return v / v.sum()


# ---------------------------------------------------------------- softmax

def test_softmax_symmetry():
    assert softmax_scores([0.0, 0.0]) == pytest.approx([0.5, 0.5])


def test_softmax_direct():
    assert softmax_scores([np.log(2), 0.0]) == pytest.approx([2 / 3, 1 / 3])


def test_softmax_shift_invariance():
    for c in (-100.0, 0.0, 7.3, 1000.0):
        assert softmax_scores([c, c, c]) == pytest.approx([1 / 3] * 3)


def test_softmax_overflow_safe():
    out = softmax_scores([1e4, 0.0])
    assert np.isfinite(out).all() and out.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_rejects_nonfinite():
    with pytest.raises(ValueError):
        softmax_scores([np.nan, 0.0])


# ------------------------------------------------------------- truncation

def test_truncate_noop_above_threshold():
    p = np.array([0.6, 0.4])
    assert np.array_equal(truncate_simplex(p, 0.1), p)


def test_truncate_hand_case():
    out = truncate_simplex(np.array([0.5, 0.4, 0.1]), 0.2)
    assert out == pytest.approx([0.44, 0.36, 0.2], abs=1e-12)


def test_truncate_extreme_case():
    out = truncate_simplex(np.array([1.0, 0.0]), 1e-8)
    assert out == pytest.approx([1 - 1e-8, 1e-8], abs=1e-15)


def test_truncate_invalid_threshold():
    p = np.array([0.5, 0.5])
    for t in (0.0, -0.1, 0.5, 0.7):
        with pytest.raises(ValueError):
            truncate_simplex(p, t)


def test_truncate_off_simplex_rejected():
    with pytest.raises(ValueError):
        truncate_simplex(np.array([0.5, 0.6]), 0.01)
    with pytest.raises(ValueError):
        truncate_simplex(np.array([np.nan, 0.5]), 0.01)


def test_truncate_matrix_rows():
    rng = np.random.default_rng(1)
    p = np.array([random_simplex(rng, 4) for _ in range(6)])
    out = truncate_simplex(p, 0.05)
    assert out.shape == p.shape
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-10)
    assert out.min() >= 0.05 - 1e-15


# -------------------------------------------------- objective and gradient

def test_objective_zero_alpha_binary():
    k = gram(np.zeros((4, 1)), np.zeros((4, 1)), KernelParams(1.0))
    alpha = np.zeros((4, 1))
    obj = klr_objective(alpha, k, [1, 1, 2, 2], 0.3)
    assert obj == pytest.approx(np.log(2))


def test_objective_zero_alpha_three_classes():
    rng = np.random.default_rng(0)
    k = gram(rng.standard_normal((6, 2)), rng.standard_normal((6, 2)), KernelParams(1.0))
    # not self-gram in general; use a proper self-gram
    x = rng.standard_normal((6, 2))
    k = gram(x, x, KernelParams(1.0))
    obj = klr_objective(np.zeros((6, 2)), k, [1, 2, 3, 1, 2, 3], 1.0)
    assert obj == pytest.approx(np.log(3))


def test_objective_single_class_lambda_zero():
    x = np.random.default_rng(2).standard_normal((5, 1))
    k = gram(x, x, KernelParams(1.0))
    assert klr_objective(np.zeros((5, 1)), k, [1] * 5, 0.0) == pytest.approx(np.log(2))


@pytest.mark.parametrize("view", [klr_objective, klr_gradient],
                         ids=["klr_objective", "klr_gradient"])
def test_objective_bad_label(view):
    k = gram(np.zeros((2, 1)), np.zeros((2, 1)), KernelParams(1.0))
    with pytest.raises(ValueError):
        view(np.zeros((2, 1)), k, [1, 3], 0.1)


def test_gradient_hand_case():
    k = GramMatrix(values=np.eye(2))
    g = klr_gradient(np.zeros((2, 1)), k, [1, 2], 0.77)
    assert g.ravel() == pytest.approx([-0.25, 0.25])


def scores_and_picked(f, labels):
    """_ce_and_resid's inputs for the class-major free scores f, (M-1, n):
    the C-ordered scores with a zero last row and the flat index of each label."""
    n = f.shape[1]
    scores = np.zeros((f.shape[0] + 1, n))
    scores[:-1] = f
    return scores, (labels - 1) * n + np.arange(n)


@settings(deadline=None)
@given(st.sampled_from([2, 3, 10]).flatmap(lambda m: st.tuples(
    arrays(float, st.tuples(st.just(m - 1), st.integers(1, 20)),
           elements=st.floats(-1e3, 1e3)),
    st.lists(st.integers(1, m), min_size=20, max_size=20))))
@example((np.array([[0.0, 2.5, -700.0, 1e3]]), [1, 2, 2, 1] * 5))  # M = 2: one free row
def test_ce_and_resid_matches_logsumexp_softmax(case):
    f, labels = case  # class-major: one row per free class, one column per point
    labels = np.array(labels[:f.shape[1]])
    scores = np.hstack([f.T, np.zeros((f.shape[1], 1))])
    rows = np.arange(f.shape[1])
    ce_ref = float(np.mean(logsumexp(scores, axis=1) - scores[rows, labels - 1]))
    resid_ref = softmax_scores(scores)
    resid_ref[rows, labels - 1] -= 1.0
    ce, resid = klr._ce_and_resid(*scores_and_picked(f, labels))
    # log(total) cannot resolve a total within one ulp of 1, where logsumexp's
    # log1p keeps the excess, so near-zero CE is compared on the ulp scale
    np.testing.assert_allclose(ce, ce_ref, rtol=1e-14, atol=np.finfo(float).eps)
    np.testing.assert_allclose(resid, resid_ref[:, :-1].T, rtol=1e-14, atol=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ce_and_resid_rejects_nonfinite(bad):
    # class-major; at M = 3 the bad score sits where label 1 does not look,
    # at M = 2 in the one free row
    for f, labels in (([[0.5, 0.1], [bad, 0.2]], [1, 3]), ([[0.5, bad, 0.1]], [1, 2, 2])):
        with pytest.raises(ValueError, match="non-finite score"):
            klr._ce_and_resid(*scores_and_picked(np.array(f), np.array(labels)))


def reference_ce_and_resid(f: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """The reference that _ce_and_resid must match bit for bit: the version
    that took the free scores f, (M-1, n), and the labels, and built the
    zero-padded scores and label index on every call."""
    if not np.isfinite(f).all():
        raise ValueError("non-finite score")
    n = f.shape[1]
    picked = (labels - 1) * n + np.arange(n)  # flat index of each column's label
    scores = np.zeros((f.shape[0] + 1, n))
    scores[:-1] = f
    shift = scores.max(axis=0)
    e = np.exp(scores - shift)
    total = e.sum(axis=0)
    ce = float(np.sum(np.log(total) + shift - scores.take(picked))) / n
    e /= total
    e.ravel()[picked] -= 1.0
    return ce, e[:-1]


@settings(deadline=None)
@given(st.sampled_from([2, 3, 10]).flatmap(lambda m: st.tuples(
    arrays(float, st.tuples(st.just(m - 1), st.integers(1, 20)),
           elements=st.floats(-1e3, 1e3)),
    st.lists(st.integers(1, m), min_size=20, max_size=20))))
@example((np.array([[0.0, 2.5, -700.0, 1e3]]), [1, 2, 2, 1] * 5))
def test_ce_and_resid_matches_reference_bit_for_bit(case):
    f, labels = case
    labels = np.array(labels[:f.shape[1]])
    ce, resid = klr._ce_and_resid(*scores_and_picked(f, labels))
    ce_ref, resid_ref = reference_ce_and_resid(f, labels)
    assert ce == ce_ref
    assert np.array_equal(resid, resid_ref)


@pytest.mark.parametrize("m", [2, 3, 10])
def test_ce_and_resid_residual_survives_buffer_reuse(m):
    # klr_fit writes every evaluation's scores into one buffer and keeps the
    # residual of the last accepted step; a later evaluation must not move it
    rng = np.random.default_rng(m)
    n = 9
    labels = np.r_[np.arange(1, m + 1), rng.integers(1, m + 1, n)][:n]
    scores, picked = scores_and_picked(rng.standard_normal((m - 1, n)), labels)
    ce, resid = klr._ce_and_resid(scores, picked)
    kept = resid.copy()
    assert not np.shares_memory(resid, scores)
    scores[:-1] = 5.0 * rng.standard_normal((m - 1, n))
    ce_next, resid_next = klr._ce_and_resid(scores, picked)
    assert np.array_equal(resid, kept)
    assert ce_next != ce and not np.array_equal(resid_next, kept)
    assert np.array_equal(scores[-1], np.zeros(n))


@settings(deadline=None)
@given(st.integers(2, 10), st.integers(1, 500), st.booleans(), st.integers(0, 2 ** 32 - 1))
@example(2, 1, True, 0)
@example(3, 3, False, 0)
def test_uniform_start_matches_ce_and_resid_on_zero_scores(m, n, last_class_only, seed):
    # klr_fit starts at beta = 0 from _uniform_start instead of evaluating
    # the zero scores; both must give the same CE and residual bit for bit
    labels = (np.full(n, m) if last_class_only
              else np.random.default_rng(seed).integers(1, m + 1, n))
    onehot = (np.arange(1, m)[:, None] == labels).astype(float)
    ce, resid = klr._uniform_start(onehot)
    ce_ref, resid_ref = klr._ce_and_resid(*scores_and_picked(np.zeros((m - 1, n)), labels))
    assert ce == ce_ref
    assert np.array_equal(resid, resid_ref)


def test_objective_convex():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((6, 2))
    k = gram(x, x, KernelParams(1.0))
    labels = np.array([1, 2, 3, 1, 2, 3])
    for _ in range(20):
        a1 = rng.standard_normal((6, 2))
        a2 = rng.standard_normal((6, 2))
        th = rng.random()
        mix = klr_objective(th * a1 + (1 - th) * a2, k, labels, 0.05)
        bound = (th * klr_objective(a1, k, labels, 0.05)
                 + (1 - th) * klr_objective(a2, k, labels, 0.05))
        assert mix <= bound + 1e-9


# ------------------------------------------------------------------- fit

def test_fit_uninformative_features():
    labels = np.array([1] * 6 + [2] * 4)
    data = Dataset(features=np.zeros((10, 1)), labels=labels, num_classes=2)
    model = klr_fit(data, KernelParams(1.0), 1e-6, 1e-8)
    probs = klr_predict(model, [[0.0]])
    assert probs[0] == pytest.approx([0.6, 0.4], abs=0.02)


def test_fit_separable_margin():
    rng = np.random.default_rng(4)
    x = np.r_[rng.normal(-5, 0.1, 10), rng.normal(5, 0.1, 10)].reshape(-1, 1)
    labels = np.array([1] * 10 + [2] * 10)
    data = Dataset(features=x, labels=labels, num_classes=2)
    model = klr_fit(data, KernelParams(1.0), 1e-6, 1e-8)
    pred = np.argmax(klr_predict(model, x), axis=1) + 1
    assert np.array_equal(pred, labels)


def small_draw():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((12, 2))
    labels = rng.integers(1, 3, 12)
    labels[:2] = [1, 2]
    return Dataset(features=x, labels=labels, num_classes=2)


def mixture_draw():
    pool = gaussian_mixture_pool(4000, seed=3, scale=0.35)
    return sample_source(pool, 200, seed=(4,))[0]


def duplicated_draw():
    # every row twice: the Gram has rank at most half its size
    data = small_draw()
    return Dataset(features=np.r_[data.features, data.features],
                   labels=np.r_[data.labels, data.labels], num_classes=2)


@pytest.mark.parametrize("draw, lam", [(small_draw, 0.01), (mixture_draw, 1 / 200),
                                       (duplicated_draw, 0.01)],
                         ids=["small", "mixture-200", "duplicated-rows"])
def test_fit_gradient_near_zero_at_optimum(draw, lam):
    data = draw()
    model = klr_fit(data, KernelParams(1.0), lam, 1e-8)
    k = gram(data.features, data.features, KernelParams(1.0))
    g = klr_gradient(model.alpha, k, data.labels, lam)
    assert np.abs(g).max() <= 1e-5
    # identical rows get identical predictions
    _, first, inverse = np.unique(data.features, axis=0, return_index=True,
                                  return_inverse=True)
    probs = klr_predict(model, data.features)
    assert np.array_equal(probs, probs[first][inverse.ravel()])


def test_fit_unconverged_warns(monkeypatch):
    data = small_draw()
    monkeypatch.setattr(klr, "MAX_ITER", 1)
    with pytest.warns(RuntimeWarning, match=r"Newton iterations 1, max \|beta-gradient\| "):
        klr_fit(data, KernelParams(1.0), 0.01, 1e-8)


def test_fit_backtracks_and_never_raises_the_objective(monkeypatch):
    # unstandardised mixture, C = 1e6 and g = 1: some full Newton steps fail
    # the Armijo test, so the line search halves them
    data = gaussian_mixture_pool(210, seed=1)
    lam = 1.0 / (1e6 * len(data.labels))
    ces, directions = [], []  # CE per evaluation; (evaluations so far, d) per iteration

    def spy_ce(scores, picked):
        ce, resid = ce_and_resid(scores, picked)
        ces.append(ce)
        return ce, resid

    def spy_direction(*args):
        d = newton_direction(*args)
        directions.append((len(ces), d.copy()))
        return d

    ce_and_resid, newton_direction = klr._ce_and_resid, klr._newton_direction
    monkeypatch.setattr(klr, "_ce_and_resid", spy_ce)
    monkeypatch.setattr(klr, "_newton_direction", spy_direction)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        klr_fit(data, KernelParams(1.0), lam, 1e-8)
    assert len(ces) > len(directions) > 1  # at least one halving
    # each iteration's last evaluation is the accepted step t = 2^-(tries - 1);
    # its objective is lam ||beta||^2 + CE, from CE = log M at beta = 0
    ends = [start for start, _ in directions[1:]] + [len(ces)]
    beta = np.zeros_like(directions[0][1])
    values = [np.log(data.num_classes)]
    for (start, d), end in zip(directions, ends):
        assert end > start
        beta = beta + 0.5 ** (end - start - 1) * d
        values.append(lam * float(np.vdot(beta, beta)) + ces[end - 1])
    assert np.all(np.diff(values) <= 0)


def factor_objective_and_gradient(data, kernel, lam, alpha):
    """klr_fit's factor-space objective and beta-gradient at beta = L11' alpha[p[:r]]."""
    chol, perm = pivoted_factor(data.features, kernel)
    rank = chol.shape[1]
    beta = chol[:rank].T @ alpha[perm[:rank]]
    labels = data.labels[perm]

    def fun(flat):
        b = flat.reshape(beta.shape)
        ce, resid = klr._ce_and_resid(*scores_and_picked((chol @ b).T, labels))
        grad = chol.T @ (resid.T / len(labels)) + 2.0 * lam * b
        return lam * float(np.sum(b * b)) + ce, grad.ravel()

    return fun, beta


@pytest.mark.parametrize("scale", [1.0, 1e-4, 1e-8])
@pytest.mark.parametrize("m, duplicated", [(2, False), (3, False), (3, True)],
                         ids=["M2", "M3", "M3-duplicate-points"])
def test_newton_direction_meets_forcing_term(m, duplicated, scale):
    data = class_draw(m, duplicated, n=12, seed=m)
    chol = pivoted_factor(data.features, KernelParams(0.5))[0]
    n, rank = chol.shape
    assert rank < n or not duplicated
    rng = np.random.default_rng(m)
    scores = np.hstack([rng.standard_normal((n, m - 1)), np.zeros((n, 1))])
    probs = np.ascontiguousarray(softmax_scores(scores)[:, :-1].T)
    lam = 0.01
    grad = scale * rng.standard_normal((m - 1, rank))
    # closed form L'(diag p - p p')L / n + 2 lam I, beta flattened class by class
    hess = np.block([[chol.T @ (((k == j) * probs[k] - probs[k] * probs[j])[:, None] * chol) / n
                      for j in range(m - 1)] for k in range(m - 1)])
    hess += 2.0 * lam * np.eye(hess.shape[0])
    d = klr._newton_direction(chol, probs, lam, grad)
    assert d.shape == grad.shape
    g = np.linalg.norm(grad)
    assert np.linalg.norm(hess @ d.ravel() + grad.ravel()) <= min(0.5, np.sqrt(g)) * g


def reference_newton_direction(chol, probs, lam, grad):
    """The reference that _newton_direction must match bit for bit: the
    version that built a new search direction p = r + (rr / rr_old) p on
    every CG step."""
    n = chol.shape[0]

    def hess_vec(v):
        pu = probs * (v @ chol.T)
        return ((pu - probs * pu.sum(axis=0)) / n) @ chol + 2.0 * lam * v

    d = np.zeros_like(grad)
    r = -grad
    p = r.copy()
    rr = float(np.vdot(r, r))
    stop = min(0.25, np.sqrt(rr)) * rr  # (min(0.5, |grad|^0.5) |grad|)^2
    for _ in range(grad.size):
        if rr <= stop:
            break
        hp = hess_vec(p)
        step = rr / float(np.vdot(p, hp))
        d += step * p
        r -= step * hp
        rr, rr_old = float(np.vdot(r, r)), rr
        p = r + (rr / rr_old) * p
    return d


@settings(deadline=None, max_examples=60)
@given(st.integers(2, 5), st.integers(2, 40), st.booleans(), st.floats(-6, 3),
       st.integers(0, 2 ** 32 - 1))
@example(3, 30, False, -6.0, 0)
@example(3, 30, True, 3.0, 1)
def test_newton_direction_matches_reference_bit_for_bit(m, n, duplicated, log_lam, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    if duplicated:
        x = np.r_[x, x[:n // 2 + 1]]
    chol = pivoted_factor(x, KernelParams(2.0 ** rng.uniform(-6, 0)))[0]
    scores = np.hstack([3.0 * rng.standard_normal((len(x), m - 1)), np.zeros((len(x), 1))])
    probs = np.ascontiguousarray(softmax_scores(scores)[:, :-1].T)
    grad = 10.0 ** rng.uniform(-8, 0) * rng.standard_normal((m - 1, chol.shape[1]))
    lam = 10.0 ** log_lam
    d = klr._newton_direction(chol, probs, lam, grad)
    assert np.array_equal(d, reference_newton_direction(chol, probs, lam, grad))


@pytest.mark.parametrize("c", [1e-6, 1e-3, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("m", [2, 3, 5])
def test_fit_converges_to_the_minimum(m, c):
    data = class_draw(m, duplicated=True, n=20, seed=m)
    kernel, lam = KernelParams(0.5), 1.0 / (c * len(data.labels))
    model = klr_fit(data, kernel, lam, 1e-8)  # a RuntimeWarning fails the test
    fun, beta = factor_objective_and_gradient(data, kernel, lam, model.alpha)
    assert beta.shape[0] < len(data.labels)
    value, grad = fun(beta.ravel())
    assert np.abs(grad).max() <= klr.GTOL
    ref = minimize(fun, np.zeros(beta.size), jac=True, method="L-BFGS-B",
                   options={"maxiter": 100000, "maxfun": 100000, "gtol": 1e-12,
                            "ftol": 1e-16})
    # the objective is 2 lam-strongly convex, so |grad|^2 / (4 lam) bounds its
    # distance to the minimum: at C = 1e4 the GTOL stop allows more than 1e-9
    assert value <= ref.fun + 1e-9 + np.sum(grad * grad) / (4 * lam)


def test_fit_heavy_regularization():
    # lambda -> inf drives all scores to the pinned zero, so predictions
    # collapse to the uniform vector (no unpenalized intercept in this space)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((20, 2))
    labels = np.array([1] * 12 + [2] * 8)
    data = Dataset(features=x, labels=labels, num_classes=2)
    model = klr_fit(data, KernelParams(1.0), 1e6, 1e-8)
    assert np.abs(model.alpha).max() <= 1e-3
    probs = klr_predict(model, x)
    assert np.allclose(probs, 0.5, atol=0.01)


def test_fit_missing_class_rejected():
    data = Dataset(features=np.zeros((4, 1)), labels=np.array([1, 1, 1, 1]),
                   num_classes=2)
    with pytest.raises(ValueError, match="class 2"):
        klr_fit(data, KernelParams(1.0), 0.1, 1e-8)


def test_fit_missing_class_named_by_file_value():
    data = Dataset(features=np.zeros((4, 1)), labels=np.array([1, 1, 1, 1]),
                   num_classes=2, classes=np.array([3.0, 4.0]))
    with pytest.raises(ValueError, match="class 4 has no"):
        klr_fit(data, KernelParams(1.0), 0.1, 1e-8)


def test_fit_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((15, 2))
    labels = rng.integers(1, 4, 15)
    labels[:3] = [1, 2, 3]
    data = Dataset(features=x, labels=labels, num_classes=3)
    m1 = klr_fit(data, KernelParams(0.5), 0.01, 1e-8)
    m2 = klr_fit(data, KernelParams(0.5), 0.01, 1e-8)
    assert np.array_equal(m1.alpha, m2.alpha)


def class_draw(m, duplicated, n=15, seed=12):
    """n random points in d=2, every one of m classes present; with
    `duplicated` every row twice, so the Gram has rank at most n."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 2))
    labels = np.r_[np.arange(1, m + 1), rng.integers(1, m + 1, n - m)]
    if duplicated:
        x, labels = np.r_[x, x], np.r_[labels, labels]
    return Dataset(features=x, labels=labels, num_classes=m)


@pytest.mark.parametrize("duplicated", [False, True], ids=["full-rank", "duplicate-points"])
@pytest.mark.parametrize("m", [2, 3])
def test_fit_on_given_factor_bit_equal(m, duplicated):
    data = class_draw(m, duplicated)
    kernel = KernelParams(0.5)
    chol, perm = pivoted_factor(data.features, kernel)
    k = gram(data.features, data.features, kernel).values
    np.testing.assert_allclose(chol @ chol.T, k[perm][:, perm], rtol=0, atol=1e-12)
    assert (chol.shape[1] < len(data.labels)) is duplicated
    given = klr_fit(data, kernel, 0.01, 1e-8, factor=(chol, perm))
    assert np.array_equal(given.alpha, klr_fit(data, kernel, 0.01, 1e-8).alpha)


@pytest.mark.parametrize("c", [1e-6, 1e-2, 1.0, 1e2, 1e4])
@pytest.mark.parametrize("m, duplicated", [(2, False), (3, False), (5, False), (3, True)],
                         ids=["M2", "M3", "M5", "M3-duplicate-points"])
def test_back_solve_matches_solve_triangular(monkeypatch, m, duplicated, c):
    # the alpha of klr_fit equals the one scipy.linalg.solve_triangular gives
    # for the same factor and beta, bit for bit
    calls = []

    def spy(a, b, **kwargs):
        calls.append((a.copy(), b.copy()))
        return dtrtrs(a, b, **kwargs)

    data = class_draw(m, duplicated, n=20, seed=m)
    n = len(data.labels)
    chol, perm = pivoted_factor(data.features, KernelParams(0.5))
    rank = chol.shape[1]
    assert (rank < n) is duplicated
    monkeypatch.setattr(klr, "dtrtrs", spy)
    model = klr_fit(data, KernelParams(0.5), 1.0 / (c * n), 1e-8)
    (upper, beta_t), = calls
    assert np.array_equal(upper.T, chol[:rank])
    ref = solve_triangular(chol[:rank], beta_t, lower=True, trans="T")
    assert np.array_equal(model.alpha[perm[:rank]], ref)
    assert not model.alpha[np.setdiff1d(np.arange(n), perm[:rank])].any()


def test_fit_on_singular_factor_raises():
    # a caller-supplied factor with an exactly zero diagonal entry in L11
    # cannot be back-solved: LAPACK reports it and the fit raises, as
    # solve_triangular did
    data = class_draw(3, False)
    chol, perm = pivoted_factor(data.features, KernelParams(0.5))
    chol[4, 4] = 0.0
    with pytest.raises(np.linalg.LinAlgError, match="singular at diagonal 4"):
        klr_fit(data, KernelParams(0.5), 0.01, 1e-8, factor=(chol, perm))


def test_fit_back_solve_illegal_argument_raises(monkeypatch):
    monkeypatch.setattr(klr, "dtrtrs", lambda a, b, **kwargs: (b, -2))
    with pytest.raises(np.linalg.LinAlgError, match="illegal value in argument 2"):
        klr_fit(class_draw(2, False), KernelParams(0.5), 0.01, 1e-8)


def test_factor_illegal_argument_raises(monkeypatch):
    monkeypatch.setattr(klr, "dpstrf", lambda a, **kwargs: (a, np.arange(1, len(a) + 1),
                                                            len(a), -3))
    with pytest.raises(np.linalg.LinAlgError, match="^dpstrf: illegal value in argument 3$"):
        pivoted_factor(class_draw(2, False).features, KernelParams(0.5))


def test_fit_stalled_line_search_warns_and_keeps_start(monkeypatch):
    # an ascent direction fails the Armijo test down to T_MIN: the fit stops
    # at its first iteration, warns, and returns the start alpha = 0
    monkeypatch.setattr(klr, "_newton_direction", lambda chol, probs, lam, grad: grad.copy())
    data = class_draw(3, False)
    with pytest.warns(RuntimeWarning, match=r"^klr_fit did not converge \(Newton iterations 0, "):
        model = klr_fit(data, KernelParams(0.5), 0.01, 1e-8)
    assert not model.alpha.any()


def test_lapack_routines_are_scipys():
    # klr.py loads the extension scipy.linalg.lapack exports them from
    assert klr.dpstrf is scipy.linalg.lapack.dpstrf
    assert klr.dtrtrs is scipy.linalg.lapack.dtrtrs
    assert klr._load_flapack() is sys.modules["scipy.linalg._flapack"]


def test_flapack_loader_names_missing_directory(monkeypatch, tmp_path):
    monkeypatch.setattr(scipy, "__path__", [str(tmp_path)])
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        klr._load_flapack()


def test_fit_rejects_factor_of_other_rows():
    data = class_draw(2, False)
    factor = pivoted_factor(data.features[:-1], KernelParams(0.5))
    with pytest.raises(ValueError, match="factor has 14 rows, data has 15"):
        klr_fit(data, KernelParams(0.5), 0.01, 1e-8, factor=factor)


# --------------------------------------------------------------- predict

def test_predict_zero_alpha_uniform():
    model = KlrModel(support=np.zeros((3, 2)), alpha=np.zeros((3, 2)),
                     kernel=KernelParams(1.0), lam=0.1, trunc_t=1e-8, num_classes=3)
    probs = klr_predict(model, np.random.default_rng(0).standard_normal((5, 2)))
    assert np.allclose(probs, 1 / 3)


def test_predict_rows_on_simplex_and_floored():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((10, 2))
    labels = rng.integers(1, 3, 10)
    labels[:2] = [1, 2]
    model = klr_fit(Dataset(features=x, labels=labels, num_classes=2),
                    KernelParams(1.0), 1e-4, 0.01)
    probs = klr_predict(model, rng.standard_normal((20, 2)))
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-10)
    assert probs.min() >= 0.01 - 1e-15
    # CE of truncated predictions is bounded by -log t
    assert (-np.log(probs)).max() <= -np.log(0.01) + 1e-12


def test_predict_support_point_label():
    rng = np.random.default_rng(2)
    x = np.r_[rng.normal(-3, 0.2, 10), rng.normal(3, 0.2, 10)].reshape(-1, 1)
    labels = np.array([1] * 10 + [2] * 10)
    model = klr_fit(Dataset(features=x, labels=labels, num_classes=2),
                    KernelParams(1.0), 1e-6, 1e-8)
    pred = np.argmax(klr_predict(model, x), axis=1) + 1
    assert np.array_equal(pred, labels)


def test_predict_dimension_mismatch():
    model = KlrModel(support=np.zeros((3, 2)), alpha=np.zeros((3, 1)),
                     kernel=KernelParams(1.0), lam=0.1, trunc_t=1e-8, num_classes=2)
    with pytest.raises(ValueError):
        klr_predict(model, np.zeros((2, 3)))


def test_predict_zero_rows_skips_gram(monkeypatch):
    # the shift benchmark's posterior memo passes zero rows once a cell
    # draws no row its source draw has not predicted
    def no_gram(*args, **kwargs):
        raise AssertionError("gram called for an empty point set")

    model = KlrModel(support=np.zeros((3, 2)), alpha=np.ones((3, 2)),
                     kernel=KernelParams(1.0), lam=0.1, trunc_t=1e-8, num_classes=3)
    monkeypatch.setattr(klr, "gram", no_gram)
    probs = klr_predict(model, np.empty((0, 2)))
    assert probs.shape == (0, 3) and probs.dtype == np.float64


# ------------------------------------------------------------------- CV

def two_blob_dataset(n=40, seed=0):
    rng = np.random.default_rng(seed)
    x = np.r_[rng.normal(-2, 0.5, n // 2), rng.normal(2, 0.5, n // 2)].reshape(-1, 1)
    labels = np.array([1] * (n // 2) + [2] * (n // 2))
    return Dataset(features=x, labels=labels, num_classes=2)


def test_cv_single_pair_returned():
    data = two_blob_dataset()
    grid = CvGrid(c_values=(0.5,), g_values=(0.25,), folds=4)
    sel = cv_select(data, grid, seed=1)
    assert sel.kernel.gamma_sq_inv == 0.25
    assert sel.lam == pytest.approx(1.0 / (0.5 * len(data)))


def test_cv_duplicate_entries_same_selection():
    data = two_blob_dataset()
    g1 = CvGrid(c_values=(0.1, 1.0), g_values=(0.5,), folds=4)
    g2 = CvGrid(c_values=(0.1, 1.0, 0.1, 1.0), g_values=(0.5, 0.5), folds=4)
    s1 = cv_select(data, g1, seed=3)
    s2 = cv_select(data, g2, seed=3)
    assert s1.kernel == s2.kernel and s1.lam == s2.lam


def test_cv_beats_most_regularized_corner():
    data = two_blob_dataset(n=60, seed=5)
    grid = CvGrid(c_values=(1e-6, 1e-2, 1.0), g_values=(0.25, 1.0), folds=5)
    sel = cv_select(data, grid, seed=2)
    table = {(c, g): ce for c, g, ce in sel.table}
    best_ce = min(table.values())
    corner_ce = table[(1e-6, 0.25)]
    assert best_ce <= corner_ce


@pytest.mark.parametrize("c_axis, g_axis, c, g, edge", [
    ((1e-6, 1e-3, 1.0), (0.25, 0.5, 1.0), 1e-3, 0.5, False),
    ((1e-6, 1e-3, 1.0), (0.25, 0.5, 1.0), 1e-6, 0.5, True),
    ((1e-6, 1e-3, 1.0), (0.25, 0.5, 1.0), 1.0, 0.5, True),
    ((1e-6, 1e-3, 1.0), (0.25, 0.5, 1.0), 1e-3, 0.25, True),
    ((1e-6, 1e-3, 1.0), (0.25, 0.5, 1.0), 1e-3, 1.0, True),
    ((1.0,), (0.25, 0.5, 1.0), 1.0, 0.5, False),   # a one-value axis has no edge
    ((1e-3,), (0.5,), 1e-3, 0.5, False),
], ids=["interior", "c-low", "c-high", "g-low", "g-high", "one-c", "one-cell"])
def test_cv_on_boundary(c_axis, g_axis, c, g, edge):
    table = tuple((ci, gi, 0.0) for ci in c_axis for gi in g_axis)
    sel = CvSelection(kernel=KernelParams(g), c=c, lam=1.0, model=None, table=table)
    assert sel.on_boundary is edge


def test_cv_pick_reported_on_boundary():
    data = two_blob_dataset(n=60, seed=5)
    sel = cv_select(data, CvGrid(c_values=(1e-6, 1.0), g_values=(1.0,), folds=5), seed=2)
    assert sel.c == 1.0 and sel.lam == 1.0 / len(data)
    assert sel.on_boundary


def per_cell_cv_select(data, cv_grid, seed):
    """cv_select as one klr_fit per (C, g, fold) cell, each fit building its
    own factor; the fold CEs are kept per grid row, so duplicated grid values
    stay separate rows."""
    labels = data.labels
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    assignment = np.empty(len(labels), dtype=int)
    for idx in shuffled_class_indices(labels, rng):
        assignment[idx] = np.arange(len(idx)) % cv_grid.folds
    table = []
    for c, g in [(c, g) for c in cv_grid.c_values for g in cv_grid.g_values]:
        fold_ce = []
        for fold in range(cv_grid.folds):
            val = assignment == fold
            tr = ~val
            sub = Dataset(features=data.features[tr], labels=labels[tr],
                          num_classes=data.num_classes)
            model = klr_fit(sub, KernelParams(g), 1.0 / (c * tr.sum()), cv_grid.trunc_t)
            probs = klr_predict(model, data.features[val])
            fold_ce.append(float(np.mean(-np.log(probs[np.arange(val.sum()),
                                                       labels[val] - 1]))))
        table.append((c, g, float(np.mean(fold_ce))))
    c_star, g_star, _ = min(table, key=lambda row: (row[2], row[0], row[1]))
    model = klr_fit(data, KernelParams(g_star), 1.0 / (c_star * len(labels)),
                    cv_grid.trunc_t)
    return tuple(table), c_star, g_star, model


def cluster_draw(m, seed):
    """Six points around each of m centres in d=2, the first ten rows repeated."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(1, m + 1), 6)
    x = 1.5 * rng.standard_normal((m, 2))[labels - 1] + rng.standard_normal((6 * m, 2))
    return Dataset(features=np.r_[x, x[:10]], labels=np.r_[labels, labels[:10]],
                   num_classes=m)


@pytest.mark.parametrize("m", [2, 4])
def test_cv_matches_per_cell_fits(m):
    data = cluster_draw(m, seed=m)
    # unsorted axes with repeated values: the table keeps the grid's own rows
    grid = CvGrid(c_values=(1.0, 1e-3, 1.0, 1e-6), g_values=(1.0, 0.125, 1.0), folds=3)
    table, c_star, g_star, model = per_cell_cv_select(data, grid, seed=7)
    sel = cv_select(data, grid, seed=7)
    assert sel.table == table
    assert (sel.c, sel.kernel.gamma_sq_inv) == (c_star, g_star)
    assert np.array_equal(sel.model.alpha, model.alpha)


def reference_cv_select(data, cv_grid, seed):
    """The reference that cv_select must match bit for bit: the version that
    built the fold's training size, validation rows and (row, label) index
    once per C, inside the loop over C.  Returns the table, C*, g* and model."""
    labels = np.asarray(data.labels, dtype=int)
    n = len(labels)
    rng = np.random.default_rng(seed)
    assignment = np.empty(n, dtype=int)
    for idx in shuffled_class_indices(labels, rng):
        assignment[idx] = np.arange(len(idx)) % cv_grid.folds

    ce = np.empty((len(cv_grid.c_values), len(cv_grid.g_values), cv_grid.folds))
    for j, g in enumerate(cv_grid.g_values):
        kernel = KernelParams(g)
        for fold in range(cv_grid.folds):
            val = assignment == fold
            tr = ~val
            sub = data.subset(tr)
            factor = pivoted_factor(sub.features, kernel)
            for i, c in enumerate(cv_grid.c_values):
                lam = 1.0 / (c * tr.sum())
                model = klr_fit(sub, kernel, lam, cv_grid.trunc_t, factor=factor)
                probs = klr_predict(model, data.features[val])
                picked = probs[np.arange(val.sum()), labels[val] - 1]
                ce[i, j, fold] = np.mean(-np.log(picked))
    table = [(c, g, float(np.mean(ce[i, j])))
             for i, c in enumerate(cv_grid.c_values) for j, g in enumerate(cv_grid.g_values)]

    best = min(table, key=lambda row: (row[2], row[0], row[1]))
    c_star, g_star = best[0], best[1]
    model = klr_fit(data, KernelParams(g_star), 1.0 / (c_star * n), cv_grid.trunc_t)
    return tuple(table), c_star, g_star, model


@pytest.mark.parametrize("seed", [0, 5])
def test_cv_matches_reference_loop(seed):
    data = cluster_draw(3, seed=seed + 3)
    grid = CvGrid(c_values=(1e-6, 1e-2, 1.0), g_values=(0.125, 1.0), folds=4)
    table, c_star, g_star, model = reference_cv_select(data, grid, seed)
    sel = cv_select(data, grid, seed)
    assert sel.table == table
    assert (sel.c, sel.kernel.gamma_sq_inv, sel.lam) == (c_star, g_star,
                                                        1.0 / (c_star * len(data.labels)))
    assert np.array_equal(sel.model.alpha, model.alpha)


def test_cv_empty_validation_fold_rejected():
    # 3 classes x 2 points fill folds 0 and 1 only; every training fold has all classes
    data = Dataset(features=np.arange(6, dtype=float).reshape(-1, 1),
                   labels=np.array([1, 1, 2, 2, 3, 3]), num_classes=3)
    with pytest.raises(ValueError, match="validation fold would be empty"):
        cv_select(data, CvGrid(c_values=(1.0,), g_values=(1.0,), folds=5), seed=0)


def test_cv_singleton_class_rejected():
    data = Dataset(features=np.arange(6, dtype=float).reshape(-1, 1),
                   labels=np.array([1, 1, 1, 1, 1, 2]), num_classes=2)
    with pytest.raises(ValueError):
        cv_select(data, CvGrid(c_values=(1.0,), g_values=(1.0,), folds=3), seed=0)


# --------------------------------------------------------- serialization

def test_model_json_roundtrip():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((8, 2))
    labels = rng.integers(1, 3, 8)
    labels[:2] = [1, 2]
    model = klr_fit(Dataset(features=x, labels=labels, num_classes=2),
                    KernelParams(0.7), 0.05, 1e-8)
    back = KlrModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(back.alpha, model.alpha)
    assert np.array_equal(back.support, model.support)
    assert back.kernel == model.kernel
    assert back.fingerprint() == model.fingerprint()


def test_predict_prunes_zero_coefficient_rows():
    # at g = 1/64 the 200-point 2-d Gram is far from full rank, so the factor
    # fit leaves most alpha rows at zero
    data = mixture_draw()
    model = klr_fit(data, KernelParams(1 / 64), 1 / 200, 1e-8)
    live = np.any(model.alpha != 0, axis=1)
    assert 0 < live.sum() < len(live) // 2
    points = np.random.default_rng(9).standard_normal((50, 2))
    k = gram(points, model.support, model.kernel).values
    f = np.hstack([k @ model.alpha, np.zeros((50, 1))])
    ref = truncate_simplex(softmax_scores(f), model.trunc_t)
    assert np.abs(klr_predict(model, points) - ref).max() <= 1e-12


@pytest.mark.parametrize("g", [1 / 64, 1.0])
def test_predict_blocks_match_dense(g):
    # at g = 1/64 the fit is rank-deficient and prediction prunes dead rows
    model = klr_fit(mixture_draw(), KernelParams(g), 1 / 200, 1e-8)
    live = np.any(model.alpha != 0, axis=1)
    assert g == 1 or live.sum() < len(live)
    support, alpha = model.support[live], model.alpha[live]
    step = PREDICT_BLOCK // len(support)
    rng = np.random.default_rng(11)
    for n in (1, step - 1, step, step + 1, 3 * step + 7):
        points = rng.standard_normal((n, 2))
        f = gram(points, support, model.kernel).values @ alpha
        ref = truncate_simplex(softmax_scores(np.hstack([f, np.zeros((n, 1))])), model.trunc_t)
        assert np.abs(klr_predict(model, points) - ref).max() <= 1e-14
    a, b = rng.standard_normal((step + 3, 2)), rng.standard_normal((2 * step - 5, 2))
    stacked = np.vstack([klr_predict(model, a), klr_predict(model, b)])
    assert np.abs(klr_predict(model, np.vstack([a, b])) - stacked).max() <= 1e-14


# -------------------------------------------------------------- validation

def _model(**changes):
    args = dict(support=np.zeros((2, 1)), alpha=np.zeros((2, 1)), kernel=KernelParams(1.0),
                lam=1.0, trunc_t=1e-8, num_classes=2)
    return KlrModel(**{**args, **changes})


REJECTED = {
    "alpha-shape": (lambda: _model(alpha=np.zeros((2, 2))),
                    r"^alpha shape \(2, 2\) inconsistent with 2 support points, M=2$"),
    "trunc-t": (lambda: _model(trunc_t=0.25), r"^trunc_t must lie in \(0, 1/\(2M\)\), got 0.25$"),
    "lambda-zero": (lambda: _model(lam=0.0), r"^lambda must be positive, got 0.0$"),
    "lambda-nan": (lambda: _model(lam=np.nan), r"^lambda must be positive, got nan$"),
    "model-version": (lambda: KlrModel.from_dict({"format_version": 2}),
                      r"^unsupported model format version 2$"),
    # checked before any fold is factored or fitted
    "cv-trunc-t": (lambda: cv_select(Dataset(features=np.zeros((4, 1)), labels=[1, 2, 1, 2],
                                             num_classes=2), CvGrid(trunc_t=0.3), seed=0),
                   r"^trunc_t must lie in \(0, 1/\(2M\)\), got 0.3$"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_input_rejected_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
