"""Label-shift experiment harness.

Generates Dirichlet shift scenarios from a labeled pool (uniform-prior
source, target/test resampled by the drawn class probabilities, all without
replacement), runs the adaptation methods on shared splits and a shared
fitted model, and records ACC/MSE per repetition.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .adapt import reweight_posterior
from .baselines import bbse_solve, confusion_estimate, mlls_em, rlls_solve
from .cpm import MatchProblem, cpm_solve, empirical_class_probs
from .data import Dataset
from .klr import CvGrid, cv_select, klr_predict

METHODS = ("cpmkm", "bbse", "rlls", "mlls")

# Named RNG streams: one per logical purpose, so scenarios replay exactly.
_STREAM_CLASS_CHOICE = 0
_STREAM_DIRICHLET = 1
_STREAM_SOURCE = 2
_STREAM_TARGET = 3
_STREAM_TEST = 4
_STREAM_CV = 5
_STREAM_HOLDOUT = 6


def _rng(seed, stream: int) -> np.random.Generator:
    if isinstance(seed, tuple):
        key = (*seed, stream)
    else:
        key = (seed, stream)
    return np.random.default_rng(np.random.SeedSequence(0, spawn_key=key))


@dataclass(frozen=True)
class ShiftSpec:
    alpha: float               # Dirichlet concentration; smaller = harsher shift
    m_q: int                   # number of supported target classes
    n_p: int
    n_q: int
    n_t: int
    seed: int = 0

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("alpha must be positive")
        if self.m_q < 1:
            raise ValueError("m_q must be at least 1")
        if min(self.n_p, self.n_q, self.n_t) < 1:
            raise ValueError("sample sizes must be at least 1")


@dataclass(frozen=True)
class EvalReport:
    method: str
    acc: float
    mse: float
    w_hat: tuple
    q_hat: tuple
    q_true: tuple
    seed_pair: tuple
    model_fingerprint: str = ""

    def to_dict(self):
        return asdict(self)


def dirichlet_sample(alpha: float, size: int, rng: np.random.Generator) -> np.ndarray:
    """Dirichlet(alpha * 1) via normalized independent Gamma(alpha, 1) draws."""
    g = rng.gamma(alpha, 1.0, size=size)
    while g.sum() <= 0:  # all-zero draw is possible for tiny alpha
        g = rng.gamma(alpha, 1.0, size=size)
    return g / g.sum()


def _uniform_source_counts(n_p: int, m: int) -> np.ndarray:
    counts = np.full(m, n_p // m)
    counts[: n_p % m] += 1  # remainder to the lowest class indices
    return counts


def _draw_by_class(pool: Dataset, counts, rng: np.random.Generator,
                   available: np.ndarray) -> np.ndarray:
    """Pick `counts[y]` indices per class from `available`, without replacement."""
    chosen = []
    for cls in range(1, pool.num_classes + 1):
        want = int(counts[cls - 1])
        if want == 0:
            continue
        idx = np.flatnonzero(available & (pool.labels == cls))
        if len(idx) < want:
            raise ValueError(
                f"pool exhausted for class {cls}: need {want}, have {len(idx)}")
        chosen.append(rng.choice(idx, size=want, replace=False))
    return np.concatenate(chosen) if chosen else np.array([], dtype=int)


def sample_source(pool: Dataset, n_p: int, seed) -> tuple[Dataset, np.ndarray]:
    """Uniform-prior source draw; returns the Dataset and the used indices."""
    counts = _uniform_source_counts(n_p, pool.num_classes)
    idx = _draw_by_class(pool, counts, _rng(seed, _STREAM_SOURCE),
                         np.ones(len(pool), dtype=bool))
    return pool.subset(idx), idx


def sample_target_test(pool: Dataset, spec: ShiftSpec, seed,
                       exclude: np.ndarray):
    """Draw q_true, target features, and a disjoint labeled test set."""
    m = pool.num_classes
    if spec.m_q > m:
        raise ValueError(f"m_q={spec.m_q} exceeds class count {m}")
    support = _rng(seed, _STREAM_CLASS_CHOICE).choice(m, size=spec.m_q, replace=False)
    q_true = np.zeros(m)
    q_true[np.sort(support)] = dirichlet_sample(
        spec.alpha, spec.m_q, _rng(seed, _STREAM_DIRICHLET))

    available = np.ones(len(pool), dtype=bool)
    available[exclude] = False
    rng_t = _rng(seed, _STREAM_TARGET)
    target_counts = rng_t.multinomial(spec.n_q, q_true)
    target_idx = _draw_by_class(pool, target_counts, rng_t, available)
    available[target_idx] = False
    rng_e = _rng(seed, _STREAM_TEST)
    test_counts = rng_e.multinomial(spec.n_t, q_true)
    test_idx = _draw_by_class(pool, test_counts, rng_e, available)
    return q_true, pool.features[target_idx], pool.subset(test_idx)


def sample_shift_scenario(pool: Dataset, spec: ShiftSpec):
    """One full scenario: (source, target features, test, q_true)."""
    source, used = sample_source(pool, spec.n_p, spec.seed)
    q_true, target_x, test = sample_target_test(pool, spec, spec.seed, used)
    return source, target_x, test, q_true


def metric_acc(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("prediction and truth must have equal nonzero length")
    return float(np.mean(predicted == truth))


def metric_mse(q_hat, q_true) -> float:
    q_hat = np.asarray(q_hat, dtype=float)
    q_true = np.asarray(q_true, dtype=float)
    for v in (q_hat, q_true):
        if abs(v.sum() - 1.0) > 1e-8 or np.any(v < -1e-12):
            raise ValueError("input not on the probability simplex")
    return float(np.mean((q_hat - q_true) ** 2))


def _stratified_split(labels: np.ndarray, frac: float, rng: np.random.Generator):
    """Per-class split; returns (kept_mask, held_mask) with `frac` held out."""
    held = np.zeros(len(labels), dtype=bool)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        k = max(1, int(round(frac * len(idx))))
        if k >= len(idx):
            k = len(idx) - 1
        held[idx[:k]] = True
    return ~held, held


def estimate_weights(method: str, model, confusion, holdout_free_priors,
                     target_probs) -> np.ndarray:
    """Ratio estimate for one method from the shared model and splits."""
    if method == "cpmkm":
        return cpm_solve(MatchProblem(p_hat=holdout_free_priors,
                                      target_probs=target_probs))
    if method in ("bbse", "rlls"):
        pred = np.argmax(target_probs, axis=1)
        mu = np.bincount(pred, minlength=model.num_classes) / len(pred)
        solve = bbse_solve if method == "bbse" else rlls_solve
        return solve(confusion, mu)
    if method == "mlls":
        return mlls_em(target_probs, holdout_free_priors)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def run_benchmark(pool: Dataset, spec: ShiftSpec, methods=METHODS,
                  source_reps: int = 10, target_reps: int = 10,
                  cv_grid: CvGrid | None = None) -> list[EvalReport]:
    """Repeated-trial protocol: fit once per source draw, resample targets.

    Every method in a cell consumes the same fitted model and the same
    target/test split; reports come out ordered by (source rep, target rep,
    method).
    """
    for name in methods:
        if name not in METHODS:
            raise ValueError(f"unknown method {name!r}; expected one of {METHODS}")
    if cv_grid is None:
        cv_grid = CvGrid()
    reports = []
    for s in range(source_reps):
        source, used = sample_source(pool, spec.n_p, (spec.seed, s))
        priors = empirical_class_probs(source.labels, source.num_classes)
        # shared predictor: fit on 75% so the confusion holdout stays disjoint
        keep, held = _stratified_split(source.labels, 0.25,
                                       _rng((spec.seed, s), _STREAM_HOLDOUT))
        train = source.subset(keep)
        seed_cv = int(np.random.SeedSequence(0, spawn_key=(spec.seed, s, _STREAM_CV))
                      .generate_state(1)[0])
        selection = cv_select(train, cv_grid, seed_cv)
        model = selection.model
        confusion = confusion_estimate(model, source.subset(held))
        for t in range(target_reps):
            q_true, target_x, test = sample_target_test(
                pool, spec, (spec.seed, s, t), used)
            target_probs = klr_predict(model, target_x)
            test_probs = klr_predict(model, test.features)
            for name in methods:
                w = estimate_weights(name, model, confusion, priors, target_probs)
                if not np.any(w > 0):
                    w = np.ones_like(w)
                q_hat = w * priors
                q_hat = q_hat / q_hat.sum()
                pred = np.argmax(reweight_posterior(test_probs, w), axis=1) + 1
                reports.append(EvalReport(
                    method=name,
                    acc=metric_acc(pred, test.labels),
                    mse=metric_mse(q_hat, q_true),
                    w_hat=tuple(float(v) for v in w),
                    q_hat=tuple(float(v) for v in q_hat),
                    q_true=tuple(float(v) for v in q_true),
                    seed_pair=(s, t),
                    model_fingerprint=model.fingerprint(),
                ))
    return reports


def aggregate(reports) -> dict:
    """Per-method mean and standard deviation of ACC and MSE."""
    out = {}
    for name in sorted({r.method for r in reports}):
        accs = np.array([r.acc for r in reports if r.method == name])
        mses = np.array([r.mse for r in reports if r.method == name])
        out[name] = {
            "acc_mean": float(accs.mean()), "acc_std": float(accs.std()),
            "mse_mean": float(mses.mean()), "mse_std": float(mses.std()),
            "n_cells": int(len(accs)),
        }
    return out


def gaussian_mixture_pool(n: int, seed: int, num_classes: int = 3,
                          scale: float = 0.35, priors=None) -> Dataset:
    """Synthetic 2-d pool: class means on an equilateral triangle of unit side."""
    means = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])[:num_classes]
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    if priors is None:
        priors = np.full(num_classes, 1.0 / num_classes)
    labels = rng.choice(num_classes, size=n, p=priors) + 1
    features = means[labels - 1] + scale * rng.standard_normal((n, 2))
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def gaussian_mixture_posterior(x, num_classes: int = 3, scale: float = 0.35,
                               priors=None) -> np.ndarray:
    """Exact p(y|x) for the gaussian_mixture_pool generative model."""
    means = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])[:num_classes]
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if priors is None:
        priors = np.full(num_classes, 1.0 / num_classes)
    d2 = ((x[:, None, :] - means[None, :, :]) ** 2).sum(axis=2)
    logp = -d2 / (2 * scale ** 2) + np.log(np.asarray(priors))
    logp -= logp.max(axis=1, keepdims=True)
    p = np.exp(logp)
    return p / p.sum(axis=1, keepdims=True)
