import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmkm import baselines
from cpmkm.baselines import (ConfusionMatrix, _class_major_ratio, _em_map,
                             _mean_log_lik, _squarem, bbse_solve, confusion_estimate,
                             mlls_em, rlls_solve)
from cpmkm.data import Dataset
from cpmkm.kernel import KernelParams
from cpmkm.klr import klr_fit
from cpmkm.shiftlab import MIXTURE_MEANS
from mixture import gaussian_mixture_posterior


def separable_model_and_holdout(seed=0, n=40):
    rng = np.random.default_rng(seed)
    x = np.r_[rng.normal(-3, 0.3, n // 2), rng.normal(3, 0.3, n // 2)].reshape(-1, 1)
    labels = np.array([1] * (n // 2) + [2] * (n // 2))
    model = klr_fit(Dataset(features=x, labels=labels, num_classes=2),
                    KernelParams(1.0), 1e-5, 1e-8)
    hx = np.r_[rng.normal(-3, 0.3, 10), rng.normal(3, 0.3, 10)].reshape(-1, 1)
    holdout = Dataset(features=hx, labels=np.array([1] * 10 + [2] * 10),
                      num_classes=2)
    return model, holdout


# ------------------------------------------------------- confusion matrix

def test_confusion_perfect_predictor():
    model, holdout = separable_model_and_holdout()
    c = confusion_estimate(model, holdout)
    assert np.allclose(c.values, np.diag([0.5, 0.5]))


def test_confusion_column_sums_match_frequencies():
    model, holdout = separable_model_and_holdout(seed=1)
    c = confusion_estimate(model, holdout)
    assert np.allclose(c.values.sum(axis=0), [0.5, 0.5], atol=1e-10)
    assert c.values.sum() == pytest.approx(1.0, abs=1e-10)


def test_confusion_uninformative_hard():
    # flat model: uniform posteriors, whose argmax is class 1 for every point,
    # so row 1 (the prediction) holds both true classes of the balanced holdout
    model = klr_fit(Dataset(features=np.zeros((8, 1)),
                            labels=np.array([1, 2] * 4), num_classes=2),
                    KernelParams(1.0), 1e6, 1e-8)
    holdout = Dataset(features=np.zeros((8, 1)), labels=np.array([1, 2] * 4),
                      num_classes=2)
    c = confusion_estimate(model, holdout)
    assert np.array_equal(c.values, [[0.5, 0.5], [0.0, 0.0]])


def test_confusion_missing_class_rejected():
    model, _ = separable_model_and_holdout()
    holdout = Dataset(features=np.zeros((3, 1)), labels=np.array([1, 1, 1]),
                      num_classes=2)
    with pytest.raises(ValueError, match="class 2"):
        confusion_estimate(model, holdout)


def test_confusion_missing_class_named_by_file_value():
    model, _ = separable_model_and_holdout()
    holdout = Dataset(features=np.zeros((3, 1)), labels=np.array([1, 1, 1]),
                      num_classes=2, classes=np.array([3.0, 4.0]))
    with pytest.raises(ValueError, match="class 4 missing"):
        confusion_estimate(model, holdout)


def test_confusion_validation():
    with pytest.raises(ValueError):
        ConfusionMatrix(values=np.array([[0.5, 0.4], [0.05, 0.2]]))
    with pytest.raises(ValueError):
        ConfusionMatrix(values=np.array([[np.nan, 0.5], [0.25, 0.25]]))


# ------------------------------------------------------------------ BBSE

def test_bbse_diagonal():
    c = ConfusionMatrix(values=np.diag([0.5, 0.5]))
    assert bbse_solve(c, [0.6, 0.4]) == pytest.approx([1.2, 0.8])


def test_bbse_hand_2x2():
    c = ConfusionMatrix(values=np.array([[0.45, 0.05], [0.05, 0.45]]))
    assert bbse_solve(c, [0.6, 0.4]) == pytest.approx([1.25, 0.75])


def test_bbse_no_shift_fixed_point():
    c = ConfusionMatrix(values=np.array([[0.4, 0.1], [0.2, 0.3]]))
    mu = c.values.sum(axis=1)
    assert bbse_solve(c, mu) == pytest.approx([1.0, 1.0])


def test_bbse_clips_negatives():
    c = ConfusionMatrix(values=np.diag([0.5, 0.5]))
    w = bbse_solve(c, np.array([1.2, -0.2]))
    assert w[1] == 0.0


def test_bbse_ill_conditioned_warns():
    for values, mu in [
        ([[0.5, 0.5], [0.0, 0.0]], [0.6, 0.4]),
        # rank 2: column 3 is the sum of columns 1 and 2
        ([[0.2, 0.05, 0.25], [0.05, 0.1, 0.15], [0.0, 0.1, 0.1]], [0.45, 0.3, 0.25]),
    ]:
        c = ConfusionMatrix(values=np.array(values))
        with pytest.warns(RuntimeWarning, match="ill-conditioned; using the minimum-norm"):
            w = bbse_solve(c, mu)
        # the minimum-norm least-squares solution, as the pseudo-inverse gives it
        np.testing.assert_allclose(w, np.maximum(np.linalg.pinv(c.values) @ mu, 0.0),
                                   rtol=0, atol=1e-12)


def test_bbse_population_exact_recovery():
    # discrete toy domain: predictor with known confusion, exact mu at w*
    c_vals = np.array([[0.4, 0.1], [0.1, 0.4]])
    w_star = np.array([0.5, 1.5])
    mu = c_vals @ w_star
    w = bbse_solve(ConfusionMatrix(values=c_vals), mu)
    assert w == pytest.approx(w_star)


# ------------------------------------------------------------------ RLLS

def test_rlls_huge_regularization_gives_ones(monkeypatch):
    monkeypatch.setattr(baselines, "RLLS_REG", 2e12)  # reg = 1e12 at trace(C)/M = 0.5
    c = ConfusionMatrix(values=np.diag([0.5, 0.5]))
    assert rlls_solve(c, [0.9, 0.1]) == pytest.approx([1.0, 1.0], abs=1e-9)


def test_rlls_zero_reg_matches_bbse(monkeypatch):
    monkeypatch.setattr(baselines, "RLLS_REG", 0.0)
    c = ConfusionMatrix(values=np.array([[0.45, 0.05], [0.05, 0.45]]))
    assert rlls_solve(c, [0.6, 0.4]) == pytest.approx(bbse_solve(c, [0.6, 0.4]))


def test_rlls_diagonal_hand_case(monkeypatch):
    monkeypatch.setattr(baselines, "RLLS_REG", 0.0)
    c = ConfusionMatrix(values=np.diag([0.5, 0.5]))
    assert rlls_solve(c, [0.6, 0.4]) == pytest.approx([1.2, 0.8])


# ------------------------------------------------------------------ MLLS

def test_mlls_uninformative_posteriors_fixed_point():
    priors = np.array([0.3, 0.7])
    probs = np.tile(priors, (50, 1))
    assert mlls_em(probs, priors) == pytest.approx([1.0, 1.0])


def test_mlls_near_one_hot_counts():
    eps = 1e-9
    rows = np.array([[1 - eps, eps]] * 30 + [[eps, 1 - eps]] * 10)
    w = mlls_em(rows, np.array([0.5, 0.5]))
    q = w * 0.5
    assert q == pytest.approx([0.75, 0.25], abs=1e-6)


def test_mlls_symmetric_alternating_rows():
    rows = np.array([[0.9, 0.1], [0.1, 0.9]] * 25)
    w = mlls_em(rows, np.array([0.5, 0.5]))
    assert w == pytest.approx([1.0, 1.0], abs=1e-7)


def test_mlls_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        mlls_em(np.array([[1.0, 0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        mlls_em(np.array([[0.5, 0.5]]), np.array([1.0, 0.0]))


def plain_em(probs, priors, steps, q=None):
    """`steps` maps of plain prior-shift EM from q (default: the priors).

    Leading axes of probs (..., n, M) and priors (..., M) batch problems.
    """
    ratio = probs / priors[..., None, :]
    ratio_t = np.swapaxes(ratio, -1, -2).copy()
    q = priors.copy() if q is None else q
    for _ in range(steps):
        # q(m) <- q(m) mean_i ratio_im / sum_j q(j) ratio_ij
        q = q * (ratio_t @ (1.0 / (ratio @ q[..., None])))[..., 0] / ratio.shape[-2]
    return q


@pytest.mark.parametrize("m", [2, 5])
def test_mlls_matches_long_plain_em(m, monkeypatch):
    rng = np.random.default_rng(11 + m)
    probs = rng.random((5, 80, m)) + 1e-3
    probs /= probs.sum(axis=2, keepdims=True)
    priors = rng.random((5, m)) + 1e-3
    priors /= priors.sum(axis=1, keepdims=True)
    refs = plain_em(probs, priors, 50_000)
    monkeypatch.setattr(baselines, "EM_TOL", 1e-12)
    for p, pri, ref in zip(probs, priors, refs):
        q = mlls_em(p, pri) * pri
        # EM fixed point: one more map moves q by no more than the tolerance
        assert np.abs(plain_em(p, pri, 1, q) - q).sum() <= 1e-12
        ratio = _class_major_ratio(p, pri)
        assert _mean_log_lik(ratio, q) >= _mean_log_lik(ratio, ref) - 1e-12


def test_mlls_cap_warns(monkeypatch):
    rows = np.array([[0.9, 0.1], [0.2, 0.8]] * 10)
    monkeypatch.setattr(baselines, "EM_MAX_ITER", 3)
    with pytest.warns(RuntimeWarning, match="did not converge in 3 EM steps"):
        mlls_em(rows, np.array([0.5, 0.5]))


def boundary_case():
    """Target with no class 3, whose likelihood is flat in q3 at q3 = 0.

    The posteriors are those of a 3-class Gaussian mixture; column 3 is
    scaled so the derivative of the log-likelihood in q3 vanishes at the
    2-class optimum, where plain EM creeps toward q3 = 0.
    """
    rng = np.random.default_rng(0)
    x = MIXTURE_MEANS[rng.choice(2, size=200, p=[0.6, 0.4])] + rng.standard_normal((200, 2))
    probs = gaussian_mixture_posterior(x, scale=1.0)
    priors = np.full(3, 1 / 3)
    ratio = probs / priors
    two = probs[:, :2] / probs[:, :2].sum(axis=1, keepdims=True)
    q12 = mlls_em(two, np.array([0.5, 0.5])) * 0.5
    probs[:, 2] /= np.mean(ratio[:, 2] / (ratio[:, :2] @ q12))
    return probs / probs.sum(axis=1, keepdims=True), priors, q12


def test_mlls_boundary_maximum_converges():
    probs, priors, q12 = boundary_case()
    # plain EM still moves q by more than the tolerance after 10 000 maps
    q = plain_em(probs, priors, 10_000)
    assert np.abs(plain_em(probs, priors, 1, q) - q).sum() > 1e-8
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q = mlls_em(probs, priors) * priors
    assert q[2] <= 1e-3
    assert np.abs(q[:2] - q12).max() <= 1e-3


def test_mlls_boundary_maximum_one_dimensional(monkeypatch):
    # identical rows favour class 1, so the likelihood peaks at q = (1, 0);
    # SQUAREM's extrapolation overshoots q2 = 0 and must backtrack, where
    # plain EM creeps toward the boundary for some 12 000 maps
    rows = np.tile(np.array([0.5, 0.4995]) / 0.9995, (10, 1))
    monkeypatch.setattr(baselines, "EM_MAX_ITER", 100)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        w = mlls_em(rows, np.array([0.5, 0.5]))
    assert w == pytest.approx([2.0, 0.0], abs=1e-4)


def reference_mlls_em(probs, priors, max_iter):
    """The reference that mlls_em must match bit for bit, with the cap as a
    parameter: two counted EM maps with an exit after each, the SQUAREM point
    inline, then a stabilising map."""
    ratio = _class_major_ratio(probs, priors)
    steps = 0

    def em_step(q):
        nonlocal steps
        steps += 1
        q_next = _em_map(ratio, q)
        return q_next, np.abs(q_next - q).sum() <= baselines.EM_TOL

    q, done = priors.copy(), False
    while not done and steps < max_iter:
        q0 = q
        q1, done = em_step(q0)
        q = q1
        if done or steps == max_iter:
            break
        q, done = em_step(q1)
        if done or steps == max_iter:
            break
        r = q1 - q0
        v = q - q1 - r
        vv = v @ v
        s = -np.sqrt((r @ r) / vv) if vv > 0 else -1.0
        ll = _mean_log_lik(ratio, q) if s < -1 else None
        while s < -1:
            q_ext = q0 - 2.0 * s * r + s * s * v
            if np.all(q_ext > 0) and _mean_log_lik(ratio, q_ext) >= ll:
                q = q_ext
                break
            s = (s - 1.0) / 2.0
        q, done = em_step(q)
    if not done:
        warnings.warn(f"mlls_em did not converge in {steps} EM steps "
                      f"(tol {baselines.EM_TOL})", RuntimeWarning)
    return q / priors


@st.composite
def em_problems(draw):
    """Peaked posteriors of n_q target rows, most of them from one class."""
    m = draw(st.integers(2, 10))
    n = draw(st.integers(1, 200))
    peak = draw(st.floats(0.0, 30.0))
    share = draw(st.floats(0.5, 1.0))  # of rows drawn from the main class
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.where(rng.random(n) < share, rng.integers(m), rng.integers(m, size=n))
    scores = rng.standard_normal((n, m))
    scores[np.arange(n), labels] += peak
    probs = np.exp(scores - scores.max(axis=1, keepdims=True))
    priors = rng.random(m) + 1e-3
    return probs / probs.sum(axis=1, keepdims=True), priors / priors.sum()


def run_recording_warnings(fn, *args):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        out = fn(*args)
    return out, [(w.category, str(w.message)) for w in caught]


@settings(deadline=None, max_examples=300)
@given(em_problems(), st.one_of(st.just(baselines.EM_MAX_ITER), st.integers(1, 40)))
def test_mlls_matches_reference_loop(problem, cap):
    probs, priors = problem
    with mock.patch.object(baselines, "EM_MAX_ITER", cap):
        w, warned = run_recording_warnings(mlls_em, probs, priors)
    w_ref, warned_ref = run_recording_warnings(reference_mlls_em, probs, priors, cap)
    assert w.tobytes() == w_ref.tobytes()
    assert warned == warned_ref


def test_squarem_without_curvature_returns_q2():
    # q0, q1, q2 on a line at equal steps: v = 0 exactly
    ratio = _class_major_ratio(np.array([[0.9, 0.1], [0.2, 0.8]]), np.array([0.5, 0.5]))
    q0, q1, q2 = np.array([0.25, 0.75]), np.array([0.375, 0.625]), np.array([0.5, 0.5])
    assert np.array_equal(_squarem(ratio, q0, q1, q2), q2)


@settings(deadline=None, max_examples=100)
@given(em_problems())
def test_squarem_accepts_only_positive_no_less_likely_points(problem):
    probs, priors = problem
    ratio = _class_major_ratio(probs, priors)
    q0 = priors
    for _ in range(10):
        q1 = _em_map(ratio, q0)
        q2 = _em_map(ratio, q1)
        q = _squarem(ratio, q0, q1, q2)
        if q is not q2:
            assert np.all(q > 0)
            assert _mean_log_lik(ratio, q) >= _mean_log_lik(ratio, q2)
        q0 = _em_map(ratio, q)


def test_squarem_rejected_extrapolation_backtracks_to_q2():
    # rows favour class 1, so each point q0 - 2 s r + s^2 v that backtracking
    # tries (s = -2, -1.5, -1.25, ...) is more likely than q2 = (1, 0), but its
    # second entry, 0.25 (s+1)(s+3), is negative
    rows = np.tile(np.array([0.5, 0.4995]) / 0.9995, (10, 1))
    ratio = _class_major_ratio(rows, np.array([0.5, 0.5]))
    q0, q1, q2 = np.array([0.25, 0.75]), np.array([0.75, 0.25]), np.array([1.0, 0.0])
    assert np.array_equal(_squarem(ratio, q0, q1, q2), q2)


def test_all_estimators_return_ones_without_shift():
    from cpmkm.klr import klr_predict

    devs = {"bbse": [], "rlls": [], "mlls": []}
    for seed in range(4):
        rng = np.random.default_rng(seed)
        n = 3000
        labels = rng.integers(1, 3, n)
        x = np.where(labels[:, None] == 1, -2.0, 2.0) + rng.standard_normal((n, 1))
        ntr = 1000
        model = klr_fit(Dataset(features=x[:ntr], labels=labels[:ntr], num_classes=2),
                        KernelParams(1.0), 1e-4, 1e-8)
        holdout = Dataset(features=x[ntr:ntr + 400], labels=labels[ntr:ntr + 400],
                          num_classes=2)
        target = x[ntr + 400:]
        probs = klr_predict(model, target)
        priors = np.bincount(labels[:ntr] - 1, minlength=2) / ntr
        c = confusion_estimate(model, holdout)
        mu = np.bincount(np.argmax(probs, axis=1), minlength=2) / len(probs)
        devs["bbse"].append(np.abs(bbse_solve(c, mu) - 1.0).max())
        devs["rlls"].append(np.abs(rlls_solve(c, mu) - 1.0).max())
        devs["mlls"].append(np.abs(mlls_em(probs, priors) - 1.0).max())
    for name, vals in devs.items():
        assert np.mean(vals) <= 0.12, (name, vals)


# -------------------------------------------------------------- validation

REJECTED = {
    "confusion-not-square": (lambda: ConfusionMatrix(values=np.full((2, 3), 1 / 6)),
                             r"^confusion matrix must be square$"),
    # NaN passes the positivity checks and surfaces in the first EM map
    "mlls-nan-posterior": (lambda: mlls_em(np.array([[np.nan, 0.5], [0.5, 0.5]]),
                                           np.array([0.5, 0.5])),
                           r"^non-finite likelihood in EM iteration$"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_input_rejected_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_confusion_matrix_holds_a_read_only_copy():
    values = np.array([[0.4, 0.1], [0.1, 0.4]])
    confusion = ConfusionMatrix(values=values)
    with pytest.raises(ValueError, match="read-only"):
        confusion.values[0, 0] = 1.0
    values[0, 0] = 1.0
    assert confusion.values.tolist() == [[0.4, 0.1], [0.1, 0.4]]
