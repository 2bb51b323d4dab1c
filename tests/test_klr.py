import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpmkm.data import Dataset
from cpmkm.kernel import GramMatrix, KernelParams, gram
from cpmkm.klr import (CvGrid, KlrModel, cv_select, klr_fit, klr_gradient,
                       klr_objective, klr_predict, softmax_scores,
                       truncate_simplex)
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


@settings(max_examples=300, deadline=None)
@given(st.integers(2, 10), st.integers(0, 10**6), st.sampled_from([1e-8, 0.01, "edge"]))
def test_truncate_properties(m, seed, t_kind):
    rng = np.random.default_rng(seed)
    p = random_simplex(rng, m)
    t = 1 / (2 * m) - 1e-6 if t_kind == "edge" else t_kind
    out = truncate_simplex(p, t)
    assert abs(out.sum() - 1.0) <= 1e-10
    assert out.min() >= t - 1e-15
    order = np.argsort(p)
    assert np.all(np.diff(out[order]) >= -1e-18)
    assert np.array_equal(truncate_simplex(out, t), out)  # idempotent


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


def finite_difference(fun, point, step=1e-5):
    flat = point.ravel()
    out = np.empty_like(flat)
    for i in range(flat.size):
        hi, lo = flat.copy(), flat.copy()
        hi[i] += step
        lo[i] -= step
        out[i] = (fun(hi.reshape(point.shape)) - fun(lo.reshape(point.shape))) / (2 * step)
    return out.reshape(point.shape)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n, m = 5, 3
        x = rng.standard_normal((n, 2))
        k = gram(x, x, KernelParams(0.6))
        labels = np.r_[np.arange(1, m + 1), rng.integers(1, m + 1, n - m)]
        alpha = 0.5 * rng.standard_normal((n, m - 1))
        lam = 0.1
        analytic = klr_gradient(alpha, k, labels, lam)
        fd = finite_difference(lambda a: klr_objective(a, k, labels, lam), alpha)
        assert np.abs(analytic - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-5


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
    return sample_source(pool, 200, seed=4)[0]


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


def test_fit_unconverged_warns():
    data = small_draw()
    with pytest.warns(RuntimeWarning, match="L-BFGS status 1"):
        klr_fit(data, KernelParams(1.0), 0.01, 1e-8, max_iter=1)


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


def test_fit_deterministic():
    rng = np.random.default_rng(8)
    x = rng.standard_normal((15, 2))
    labels = rng.integers(1, 4, 15)
    labels[:3] = [1, 2, 3]
    data = Dataset(features=x, labels=labels, num_classes=3)
    m1 = klr_fit(data, KernelParams(0.5), 0.01, 1e-8)
    m2 = klr_fit(data, KernelParams(0.5), 0.01, 1e-8)
    assert np.array_equal(m1.alpha, m2.alpha)


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
    back = KlrModel.from_json(model.to_json())
    assert np.array_equal(back.alpha, model.alpha)
    assert np.array_equal(back.support, model.support)
    assert back.kernel == model.kernel
    assert back.fingerprint() == model.fingerprint()
