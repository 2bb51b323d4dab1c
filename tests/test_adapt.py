import json

import numpy as np
import pytest

from cpmkm.adapt import (AdaptedModel, adapt_pipeline, predict_target,
                         reweight_posterior, target_class_probs)
from cpmkm.data import Dataset
from cpmkm.klr import CvGrid, KlrModel, klr_fit, klr_predict
from cpmkm.kernel import KernelParams


def make_adapted(weights, seed=0, n=30):
    rng = np.random.default_rng(seed)
    x = np.r_[rng.normal(-2, 0.5, n // 2), rng.normal(2, 0.5, n // 2)].reshape(-1, 1)
    labels = np.array([1] * (n // 2) + [2] * (n // 2))
    model = klr_fit(Dataset(features=x, labels=labels, num_classes=2),
                    KernelParams(1.0), 1e-3, 1e-8)
    return AdaptedModel(source_model=model, weights=np.asarray(weights, dtype=float),
                        source_priors=np.array([0.5, 0.5]))


# ------------------------------------------------------ reweight_posterior

def test_reweight_identity():
    p = np.array([0.3, 0.5, 0.2])
    assert reweight_posterior(p, np.ones(3)) == pytest.approx(p)


def test_reweight_direct():
    assert reweight_posterior(np.array([0.5, 0.5]), np.array([2.0, 1.0])) \
        == pytest.approx([2 / 3, 1 / 3])


def test_reweight_zero_weight_class():
    assert reweight_posterior(np.array([0.5, 0.5]), np.array([0.0, 1.0])) \
        == pytest.approx([0.0, 1.0])


def test_reweight_zero_denominator():
    with pytest.raises(ValueError):
        reweight_posterior(np.array([1.0, 0.0]), np.array([0.0, 1.0]))


def test_reweight_row_sums():
    rng = np.random.default_rng(0)
    p = rng.random((10, 4)) + 0.01
    p /= p.sum(axis=1, keepdims=True)
    out = reweight_posterior(p, rng.random(4) + 0.1)
    assert np.allclose(out.sum(axis=1), 1.0, atol=1e-10)


def test_consistency_chain_exact_rationals():
    # with the true posterior and w*, the reweighted posterior is the true
    # target posterior: algebraic identity on a two-atom domain
    from fractions import Fraction as F

    p_y = [F(1, 2), F(1, 2)]
    pxy = [[F(4, 5), F(1, 5)], [F(3, 10), F(7, 10)]]   # p(x|y)
    q_y = [F(1, 5), F(4, 5)]
    w = [q_y[i] / p_y[i] for i in range(2)]
    for xi in range(2):
        p_x = sum(p_y[y] * pxy[y][xi] for y in range(2))
        post_p = [p_y[y] * pxy[y][xi] / p_x for y in range(2)]
        q_x = sum(q_y[y] * pxy[y][xi] for y in range(2))
        post_q = [q_y[y] * pxy[y][xi] / q_x for y in range(2)]
        den = sum(w[m] * post_p[m] for m in range(2))
        reweighted = [w[y] * post_p[y] / den for y in range(2)]
        assert reweighted == post_q


# ---------------------------------------------------------- predict_target

def test_predict_uniform_posterior_weight_dominates():
    model = make_adapted([3.0, 1.0])
    # far from the data every kernel value is ~0, so the posterior is ~uniform
    _, labels = predict_target(model, np.array([[1000.0]]))
    assert labels[0] == 1


def test_predict_tie_breaks_to_smallest_class():
    model = make_adapted([1.0, 1.0])
    _, labels = predict_target(model, np.array([[1000.0]]))
    assert labels[0] == 1


def test_predict_argmax_scale_invariant():
    rng = np.random.default_rng(3)
    model = make_adapted([0.7, 1.9])
    pts = rng.uniform(-3, 3, (25, 1))
    _, base = predict_target(model, pts)
    for c in (0.1, 5.0, 300.0):
        scaled = AdaptedModel(source_model=model.source_model,
                              weights=c * model.weights,
                              source_priors=model.source_priors)
        _, lab = predict_target(scaled, pts)
        assert np.array_equal(lab, base)


def test_all_ones_weights_match_source_model():
    model = make_adapted([1.0, 1.0])
    pts = np.linspace(-3, 3, 11).reshape(-1, 1)
    q, _ = predict_target(model, pts)
    p = klr_predict(model.source_model, pts)
    assert np.allclose(q, p, atol=1e-12)


# ------------------------------------------------------ target_class_probs

def test_target_probs_identity_weights():
    assert target_class_probs([1.0, 1.0], [0.5, 0.5]) == pytest.approx([0.5, 0.5])


def test_target_probs_direct():
    assert target_class_probs([2.0, 1.0], [0.5, 0.5]) == pytest.approx([2 / 3, 1 / 3])


def test_target_probs_normalized():
    rng = np.random.default_rng(4)
    for _ in range(20):
        q = target_class_probs(rng.random(2) + 0.1, [0.5, 0.5])
        assert q.sum() == pytest.approx(1.0, abs=1e-12)


def test_target_probs_with_true_quantities_recovers_q():
    p_y = np.array([0.5, 0.5])
    q_y = np.array([0.15, 0.85])
    assert target_class_probs(q_y / p_y, p_y) == pytest.approx(q_y)


# ----------------------------------------------------------- the pipeline

def small_grid():
    return CvGrid(c_values=(1.0,), g_values=(1.0,), folds=3)


def test_pipeline_no_shift_small():
    rng = np.random.default_rng(5)
    n = 400
    labels = rng.integers(1, 3, n)
    labels[:2] = [1, 2]
    x = (labels[:, None] * 4.0 - 6.0) + rng.standard_normal((n, 1))
    source = Dataset(features=x, labels=labels, num_classes=2)
    tlabels = rng.integers(1, 3, n)
    tx = (tlabels[:, None] * 4.0 - 6.0) + rng.standard_normal((n, 1))
    model, _ = adapt_pipeline(source, tx, small_grid(), seed=1)
    assert np.abs(model.weights - 1.0).max() <= 0.15


def test_pipeline_single_target_class():
    rng = np.random.default_rng(6)
    n = 300
    labels = rng.integers(1, 3, n)
    labels[:2] = [1, 2]
    x = (labels[:, None] * 4.0 - 6.0) + rng.standard_normal((n, 1))
    source = Dataset(features=x, labels=labels, num_classes=2)
    tx = 2.0 + rng.standard_normal((200, 1))     # all drawn from class 2
    model, _ = adapt_pipeline(source, tx, small_grid(), seed=2)
    _, pred = predict_target(model, tx)
    assert np.mean(pred == 2) >= 0.95


def test_pipeline_rejects_an_empty_source_class():
    # cv_select rejects a class with fewer than 2 rows, an empty one included
    rng = np.random.default_rng(9)
    source = Dataset(features=rng.standard_normal((20, 2)),
                     labels=np.r_[[1] * 10, [2] * 10], num_classes=3)
    with pytest.raises(ValueError, match="too few examples"):
        adapt_pipeline(source, rng.standard_normal((5, 2)), CvGrid(), seed=0)


def test_pipeline_deterministic():
    rng = np.random.default_rng(7)
    labels = np.array([1] * 30 + [2] * 30)
    x = (labels[:, None] - 1.5) * 4 + rng.standard_normal((60, 1))
    source = Dataset(features=x, labels=labels, num_classes=2)
    tx = rng.standard_normal((20, 1))
    m1, _ = adapt_pipeline(source, tx, small_grid(), seed=3)
    m2, _ = adapt_pipeline(source, tx, small_grid(), seed=3)
    assert np.array_equal(m1.weights, m2.weights)
    assert m1.source_model.fingerprint() == m2.source_model.fingerprint()


def test_pipeline_exposes_audit_artifacts():
    rng = np.random.default_rng(8)
    labels = np.array([1] * 20 + [2] * 20)
    x = (labels[:, None] - 1.5) * 4 + rng.standard_normal((40, 1))
    source = Dataset(features=x, labels=labels, num_classes=2)
    model, selection = adapt_pipeline(source, rng.standard_normal((10, 1)), small_grid(),
                                      seed=0)
    assert model.source_priors == pytest.approx([0.5, 0.5])
    assert len(selection.table) == 1
    assert selection.model is model.source_model


def test_adapted_model_json_roundtrip():
    model = make_adapted([0.4, 1.6])
    back = AdaptedModel.from_dict(json.loads(json.dumps(model.to_dict())))
    assert np.array_equal(back.weights, model.weights)
    assert np.array_equal(back.source_priors, model.source_priors)
    assert back.source_model.fingerprint() == model.source_model.fingerprint()


# ------------------------------------------------ edge cases, end to end

def _mixture(seed, counts, d=2, n_q=40, target_class=None):
    """Source rows, labels and target rows of unit Gaussian blobs centred on a
    circle of radius 3 in the first two coordinates: counts[y - 1] source rows
    of class y, and n_q target rows drawn from every class alike or from
    target_class alone."""
    rng = np.random.default_rng(seed)
    m = len(counts)
    angles = 2 * np.pi * np.arange(m) / m
    centres = np.zeros((m, d))
    centres[:, :2] = 3.0 * np.c_[np.cos(angles), np.sin(angles)]
    labels = np.repeat(np.arange(1, m + 1), counts)
    target_labels = (rng.integers(1, m + 1, n_q) if target_class is None
                     else np.full(n_q, target_class))
    x, tx = (centres[y - 1] + rng.standard_normal((len(y), d))
             for y in (labels, target_labels))
    return x, labels, tx


def _duplicated(x, labels, tx):
    return np.repeat(x, 2, axis=0), np.repeat(labels, 2), tx


def _collinear(x, labels, tx):
    return x[:, :1] * [1.0, 2.0], labels, tx[:, :1] * [1.0, 2.0]


def _unscaled(x, labels, tx):
    return x * 1e3 + 1e4, labels, tx * 1e3 + 1e4


EDGE_CASES = {
    "m2": _mixture(1, (20, 20)),
    "m10": _mixture(2, (12,) * 10),
    "d50": _mixture(3, (20, 20, 20), d=50),
    "duplicated-rows": _duplicated(*_mixture(4, (15, 15, 15))),
    "collinear-rows": _collinear(*_mixture(5, (20, 20, 20))),
    "two-sample-class": _mixture(6, (20, 20, 2)),
    "one-class-target": _mixture(7, (20, 20, 20), target_class=3),
    "nq-1": _mixture(8, (20, 20, 20), n_q=1),
    "unscaled": _unscaled(*_mixture(9, (20, 20, 20))),
}


@pytest.mark.parametrize("name", EDGE_CASES)
def test_pipeline_edge_cases_give_valid_estimates(name):
    x, labels, tx = EDGE_CASES[name]
    m = int(labels.max())
    source = Dataset(features=x, labels=labels, num_classes=m)
    grid = CvGrid(c_values=(1.0,), g_values=(0.0625, 1.0), folds=2)
    model, _ = adapt_pipeline(source, tx, grid, seed=0)
    w = model.weights
    assert w.shape == (m,) and np.all(np.isfinite(w)) and np.all(w >= 0) and np.any(w > 0)
    q = target_class_probs(w, model.source_priors)
    assert np.all(q >= 0) and q.sum() == pytest.approx(1.0, abs=1e-12)
    _, pred = predict_target(model, tx)
    assert pred.shape == (len(tx),) and np.all((pred >= 1) & (pred <= m))
    if name == "one-class-target":  # every target row is of class 3
        assert np.argmax(q) == 2


# -------------------------------------------------------------- validation

def _two_class_model():
    return KlrModel(support=np.zeros((2, 1)), alpha=np.zeros((2, 1)),
                    kernel=KernelParams(1.0), lam=1.0, trunc_t=1e-8, num_classes=2)


REJECTED = {
    "adapted-length": (lambda: AdaptedModel(source_model=_two_class_model(),
                                            weights=np.ones(3),
                                            source_priors=np.array([0.5, 0.5])),
                       r"^weights/source_priors length must equal the class count$"),
    "adapted-version": (lambda: AdaptedModel.from_dict({"format_version": 2}),
                        r"^unsupported format version 2$"),
    "pipeline-empty-target": (lambda: adapt_pipeline(
        Dataset(features=np.arange(10.0)[:, None], labels=np.r_[[1] * 5, [2] * 5],
                num_classes=2), np.zeros((0, 1)), CvGrid(), seed=0),
                              r"^target set must be non-empty$"),
    "q-all-zero-w": (lambda: target_class_probs(np.zeros(2), np.array([0.5, 0.5])),
                     r"^zero denominator in target class probability$"),
}


@pytest.mark.parametrize("call, message", REJECTED.values(), ids=REJECTED.keys())
def test_invalid_input_rejected_with_its_message(call, message):
    with pytest.raises(ValueError, match=message):
        call()
