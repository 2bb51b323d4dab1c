"""Acceptance criteria, one test per criterion, each printing PASS/FAIL."""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from cpmkm.baselines import bbse_solve, confusion_estimate, mlls_em
from cpmkm.cli import main as cli_main
from cpmkm.cpm import MatchProblem, cpm_solve, empirical_class_probs
from cpmkm.kernel import KernelParams
from cpmkm.klr import klr_fit, klr_predict
from cpmkm.selftest import (check_cpm_gradient, check_klr_gradient,
                            check_mlls_monotone, check_truncation)
from cpmkm.shiftlab import (MIXTURE_MEANS, ShiftSpec, _draw_by_class, _rng,
                            _stratified_split, gaussian_mixture_pool,
                            sample_source, sample_target_test)
from mixture import gaussian_mixture_posterior

N_SEEDS = 20
N_P = 2000
POOL_SEED = 101
SCALE = 0.35
NQ_SWEEP = (125, 250, 500, 1000, 2000, 4000)


def report(num, name, ok, detail=""):
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def pool():
    return gaussian_mixture_pool(24000, seed=POOL_SEED, scale=SCALE)


@pytest.fixture(scope="module")
def fitted(pool):
    """Per seed: model fit on 75% of a 2000-point uniform source draw,
    confusion matrix on the held-out 25%, and the source class frequencies.
    All methods in a cell consume the same model."""
    out = []
    for s in range(N_SEEDS):
        source, used = sample_source(pool, N_P, (POOL_SEED, s))
        priors = empirical_class_probs(source.labels, 3)
        keep, held = _stratified_split(source.labels, 0.25, _rng((POOL_SEED, s), 6))
        train = source.subset(keep)
        model = klr_fit(train, KernelParams(1.0), 1.0 / keep.sum(), 1e-8)
        confusion = confusion_estimate(model, source.subset(held))
        out.append((model, confusion, priors, used))
    return out


@pytest.fixture(scope="module")
def shift_runs(pool, fitted):
    """Dirichlet(alpha=1) shift over all 3 classes, per seed and per n_q:
    CPMKM and BBSE weight estimates plus the MSE of normalized w*p."""
    runs = {nq: [] for nq in NQ_SWEEP}
    for s, (model, confusion, priors, used) in enumerate(fitted):
        for nq in NQ_SWEEP:
            spec = ShiftSpec(alpha=1.0, m_q=3, n_p=N_P, n_q=nq, n_t=30, seed=0)
            q_true, target_idx, _ = sample_target_test(pool, spec, (POOL_SEED, s), used)
            probs = klr_predict(model, pool.features[target_idx])
            w_cpm = cpm_solve(MatchProblem(p_hat=priors, target_probs=probs))
            mu = np.bincount(np.argmax(probs, axis=1), minlength=3) / len(probs)
            w_bbse = bbse_solve(confusion, mu)
            runs[nq].append({"q_true": q_true, "w_cpm": w_cpm, "w_bbse": w_bbse,
                             "priors": priors})
    return runs


def norm_q(w, priors):
    v = np.asarray(w) * priors
    if v.sum() <= 0:
        return np.full_like(v, 1 / len(v))
    return v / v.sum()


def test_criterion_1_truncation_suite():
    start = time.time()
    ok = check_truncation(np.random.default_rng(0))
    elapsed = time.time() - start
    ok &= elapsed < 5.0
    report(1, "truncation-suite", ok, f"({elapsed:.2f}s)")


def test_criterion_2_gradient_suite():
    rng = np.random.default_rng(1)
    start = time.time()
    ok = check_klr_gradient(rng)
    ok &= check_cpm_gradient(rng)
    elapsed = time.time() - start
    ok &= elapsed < 30.0
    report(2, "gradient-suite", ok, f"({elapsed:.2f}s)")


def test_criterion_3_identifiability_oracle():
    pxy = np.array([[0.8, 0.2], [0.3, 0.7]])       # p(x|y)
    p_y = np.array([0.5, 0.5])
    q_y = np.array([0.2, 0.8])
    w_star = q_y / p_y
    p_x = p_y @ pxy
    posterior = (pxy * p_y[:, None]).T / p_x[:, None]
    # q(x) = (0.4, 0.6): exact expectations via 2:3 row replication
    rows = np.vstack([np.tile(posterior[0], (2, 1)), np.tile(posterior[1], (3, 1))])
    w = cpm_solve(MatchProblem(p_hat=p_y, target_probs=rows))
    err = float(np.linalg.norm(w - w_star))
    report(3, "identifiability-oracle", err <= 1e-6, f"(l2 err {err:.2e})")


def test_criterion_4_no_shift_sanity(pool, fitted):
    devs = {"cpmkm": [], "bbse": [], "mlls": []}
    q_uniform = np.full(3, 1 / 3)
    for s, (model, confusion, priors, used) in enumerate(fitted):
        rng = _rng((POOL_SEED, 500 + s), 3)
        available = np.ones(len(pool), dtype=bool)
        available[used] = False
        counts = rng.multinomial(N_P, q_uniform)
        idx = _draw_by_class(pool, counts, rng, available)
        probs = klr_predict(model, pool.features[idx])
        w = cpm_solve(MatchProblem(p_hat=priors, target_probs=probs))
        devs["cpmkm"].append(np.abs(w - 1.0).max())
        mu = np.bincount(np.argmax(probs, axis=1), minlength=3) / len(probs)
        devs["bbse"].append(np.abs(bbse_solve(confusion, mu) - 1.0).max())
        devs["mlls"].append(np.abs(mlls_em(probs, priors) - 1.0).max())
    means = {k: float(np.mean(v)) for k, v in devs.items()}
    ok = all(v <= 0.1 for v in means.values())
    report(4, "no-shift-sanity", ok,
           "(" + ", ".join(f"{k} {v:.3f}" for k, v in means.items()) + ")")


def test_criterion_5_shift_recovery(shift_runs):
    mses, werrs = [], []
    for run in shift_runs[2000]:
        w_star = run["q_true"] * 3.0     # population source prior is uniform
        mses.append(np.mean((norm_q(run["w_cpm"], run["priors"]) - run["q_true"]) ** 2))
        werrs.append(np.linalg.norm(run["w_cpm"] - w_star))
    mse, werr = float(np.mean(mses)), float(np.mean(werrs))
    ok = mse <= 5e-3 and werr <= 0.15
    report(5, "shift-recovery", ok, f"(mse {mse:.2e}, w err {werr:.3f})")


def test_criterion_6_comparative_trend(shift_runs):
    cpm_mse = np.mean([
        np.mean((norm_q(r["w_cpm"], r["priors"]) - r["q_true"]) ** 2)
        for r in shift_runs[2000]])
    bbse_mse = np.mean([
        np.mean((norm_q(r["w_bbse"], r["priors"]) - r["q_true"]) ** 2)
        for r in shift_runs[2000]])
    report(6, "cpmkm-vs-bbse", cpm_mse <= bbse_mse,
           f"(cpmkm {cpm_mse:.2e} vs bbse {bbse_mse:.2e})")


def test_criterion_7_sample_size_plateau(shift_runs):
    means = []
    for nq in NQ_SWEEP:
        means.append(float(np.mean([
            np.mean((norm_q(r["w_cpm"], r["priors"]) - r["q_true"]) ** 2)
            for r in shift_runs[nq]])))
    inversions = sum(1 for a, b in zip(means, means[1:]) if b > a * (1 + 1e-12))
    ratio = means[-1] / means[-2]
    ok = inversions <= 1 and ratio >= 0.5
    report(7, "sample-size-plateau", ok,
           f"(mse by n_q {['%.1e' % v for v in means]}, "
           f"inversions {inversions}, ratio {ratio:.2f})")


def test_criterion_8_excess_risk_bound(fitted):
    model = fitted[0][0]
    rng = np.random.default_rng(42)
    n_mc = 4000
    labels = rng.integers(0, 3, n_mc)
    x = MIXTURE_MEANS[labels] + SCALE * rng.standard_normal((n_mc, 2))
    p_true = gaussian_mixture_posterior(x, scale=SCALE)
    p_hat = klr_predict(model, x)
    l2_terms = ((p_hat - p_true) ** 2).sum(axis=1)
    kl_terms = np.sum(p_true * (np.log(np.maximum(p_true, 1e-300)) - np.log(p_hat)),
                      axis=1)
    l2 = float(l2_terms.mean())
    excess = float(kl_terms.mean())
    se = float(kl_terms.std(ddof=1) / np.sqrt(n_mc))
    ok = l2 <= excess + 3 * se
    report(8, "excess-risk-bound", ok,
           f"(l2 {l2:.2e} vs excess CE {excess:.2e} + 3se {3 * se:.2e})")


def test_criterion_9_benchmark_determinism(tmp_path):
    pool_small = gaussian_mixture_pool(1000, seed=9)
    csv = tmp_path / "pool.csv"
    lines = ["x0,x1,label"]
    for row, lab in zip(pool_small.features, pool_small.labels):
        lines.append(f"{float(row[0])!r},{float(row[1])!r},{int(lab)}")
    csv.write_text("\n".join(lines) + "\n")
    docs = []
    for name in ("a.json", "b.json"):
        res = CliRunner().invoke(cli_main, [
            "benchmark", "--pool", str(csv), "--np", "120", "--nq", "90",
            "--nt", "90", "--source-reps", "1", "--target-reps", "2",
            "--seed", "5", "--c-grid", "1.0", "--g-grid", "1.0", "--folds", "3",
            "--out", str(tmp_path / name)])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / name).read_text())
        doc.pop("timestamp")
        docs.append(doc)
    report(9, "benchmark-determinism", docs[0] == docs[1])


def test_criterion_10_mlls_monotonicity():
    report(10, "mlls-monotonicity", check_mlls_monotone(np.random.default_rng(3)))
