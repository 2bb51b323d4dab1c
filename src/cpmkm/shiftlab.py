"""Label-shift experiment harness.

Generates Dirichlet shift scenarios from a labeled pool (uniform-prior
source, target/test resampled by the drawn class probabilities, all without
replacement), runs the adaptation methods on shared splits and a shared
fitted model, and records ACC/MSE per repetition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapt import reweight_posterior, target_class_probs
from .baselines import bbse_solve, confusion_estimate, mlls_em, rlls_solve
from .cpm import MatchProblem, cpm_solve, empirical_class_probs
from .data import Dataset, shuffled_class_indices
from .klr import CvGrid, check_simplex, check_trunc_t, cv_select, klr_predict

METHODS = ("cpmkm", "bbse", "rlls", "mlls")

# class means of the synthetic mixture: an equilateral triangle of unit side
MIXTURE_MEANS = np.array([[0.0, 0.0], [1.0, 0.0], [0.5, np.sqrt(3) / 2]])

# Named RNG streams: one per logical purpose, so scenarios replay exactly.
_STREAM_CLASS_CHOICE = 0
_STREAM_DIRICHLET = 1
_STREAM_SOURCE = 2
_STREAM_TARGET = 3
_STREAM_TEST = 4
_STREAM_CV = 5
_STREAM_HOLDOUT = 6


def _rng(seed: tuple, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(0, spawn_key=(*seed, stream)))


@dataclass(frozen=True)
class ShiftSpec:
    alpha: float               # Dirichlet concentration; smaller = harsher shift
    m_q: int                   # number of supported target classes
    n_p: int
    n_q: int
    n_t: int
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.m_q < 1:
            raise ValueError("m_q must be at least 1")
        if min(self.n_p, self.n_q, self.n_t) < 1:
            raise ValueError("sample sizes must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")


def _exhausted(pool: Dataset, cls: int, need: int, have: int) -> ValueError:
    return ValueError(f"pool exhausted for class {int(pool.classes[cls - 1])}: "
                      f"need {need}, have {have}")


def _draw_by_class(pool: Dataset, counts, rng: np.random.Generator,
                   available: np.ndarray) -> np.ndarray:
    """Pick `counts[y]` indices per class from `available`, without replacement."""
    chosen = []
    for cls in range(1, pool.num_classes + 1):
        want = int(counts[cls - 1])
        idx = np.flatnonzero(available & (pool.labels == cls))
        if len(idx) < want:
            raise _exhausted(pool, cls, want, len(idx))
        chosen.append(rng.choice(idx, size=want, replace=False))
    return np.concatenate(chosen)


def _source_counts(num_classes: int, n_p: int) -> np.ndarray:
    """Rows per class of the uniform-prior source draw."""
    counts = np.full(num_classes, n_p // num_classes)
    counts[: n_p % num_classes] += 1  # remainder to the lowest class indices
    return counts


def sample_source(pool: Dataset, n_p: int, seed: tuple) -> tuple[Dataset, np.ndarray]:
    """Uniform-prior source draw; returns the Dataset and the used indices."""
    idx = _draw_by_class(pool, _source_counts(pool.num_classes, n_p),
                         _rng(seed, _STREAM_SOURCE), np.ones(len(pool), dtype=bool))
    return pool.subset(idx), idx


def _support(num_classes: int, m_q: int, seed: tuple) -> np.ndarray:
    """The m_q classes (0-based) that a cell's target and test sets draw from."""
    return _rng(seed, _STREAM_CLASS_CHOICE).choice(num_classes, size=m_q, replace=False)


def check_support(pool: Dataset, spec: ShiftSpec):
    """Raise ValueError unless the pool has m_q classes and n_p + n_q + n_t rows."""
    if spec.m_q > pool.num_classes:
        raise ValueError(f"m_q={spec.m_q} exceeds class count {pool.num_classes}")
    if spec.n_p + spec.n_q + spec.n_t > len(pool):
        raise ValueError(f"n_p + n_q + n_t = {spec.n_p} + {spec.n_q} + {spec.n_t} "
                         f"exceeds the pool's {len(pool)} rows")


def _check_one_class(pool: Dataset, spec: ShiftSpec, seeds):
    """With m_q = 1 each cell's n_q target and n_t test rows come from its one class:
    raise, before any draw, the error of the first cell at `seeds` whose class runs
    out after the source draw (a source draw that runs out raises its own)."""
    if spec.m_q > 1:
        return
    left = (np.bincount(pool.labels - 1, minlength=pool.num_classes)
            - _source_counts(pool.num_classes, spec.n_p))
    if left.min() < 0:
        return
    for seed in seeds:
        cls = int(_support(pool.num_classes, 1, seed)[0])
        for need, have in ((spec.n_q, left[cls]), (spec.n_t, left[cls] - spec.n_q)):
            if have < need:
                raise _exhausted(pool, cls + 1, need, have)


def sample_target_test(pool: Dataset, spec: ShiftSpec, seed: tuple,
                       exclude: np.ndarray):
    """Draw q_true and the pool indices of a target and a disjoint test set."""
    check_support(pool, spec)
    m = pool.num_classes
    support = _support(m, spec.m_q, seed)
    q_true = np.zeros(m)
    q_true[np.sort(support)] = _rng(seed, _STREAM_DIRICHLET).dirichlet(
        np.full(spec.m_q, spec.alpha))

    available = np.ones(len(pool), dtype=bool)
    available[exclude] = False
    rng_t = _rng(seed, _STREAM_TARGET)
    target_counts = rng_t.multinomial(spec.n_q, q_true)
    target_idx = _draw_by_class(pool, target_counts, rng_t, available)
    available[target_idx] = False
    rng_e = _rng(seed, _STREAM_TEST)
    test_counts = rng_e.multinomial(spec.n_t, q_true)
    test_idx = _draw_by_class(pool, test_counts, rng_e, available)
    return q_true, target_idx, test_idx


def sample_shift_scenario(pool: Dataset, spec: ShiftSpec):
    """One full scenario: (source, target features, test, q_true)."""
    check_support(pool, spec)
    _check_one_class(pool, spec, [(spec.seed,)])
    source, used = sample_source(pool, spec.n_p, (spec.seed,))
    q_true, target_idx, test_idx = sample_target_test(pool, spec, (spec.seed,), used)
    return source, pool.features[target_idx], pool.subset(test_idx), q_true


def metric_acc(predicted, truth) -> float:
    predicted = np.asarray(predicted)
    truth = np.asarray(truth)
    if predicted.shape != truth.shape or predicted.size == 0:
        raise ValueError("prediction and truth must have equal nonzero length")
    return float(np.mean(predicted == truth))


def metric_mse(q_hat, q_true) -> float:
    q_hat = np.asarray(q_hat, dtype=float)
    q_true = np.asarray(q_true, dtype=float)
    if q_hat.shape != q_true.shape:
        raise ValueError(f"q_hat has shape {q_hat.shape}, q_true {q_true.shape}")
    check_simplex(q_hat, 1e-8, -1e-12, "q_hat")
    check_simplex(q_true, 1e-8, -1e-12, "q_true")
    return float(np.mean((q_hat - q_true) ** 2))


def _stratified_split(labels: np.ndarray, frac: float, rng: np.random.Generator):
    """Per-class split; returns (kept_mask, held_mask) with `frac` held out."""
    held = np.zeros(len(labels), dtype=bool)
    for idx in shuffled_class_indices(labels, rng):
        k = min(max(1, int(round(frac * len(idx)))), len(idx) - 1)
        held[idx[:k]] = True
    return ~held, held


def estimate_weights(method: str, confusion, source_priors,
                     target_probs) -> np.ndarray:
    """Ratio estimate for one method from the shared model's outputs."""
    if method == "cpmkm":
        return cpm_solve(MatchProblem(p_hat=source_priors,
                                      target_probs=target_probs))
    if method in ("bbse", "rlls"):
        mu = empirical_class_probs(np.argmax(target_probs, axis=1) + 1, target_probs.shape[1])
        solve = bbse_solve if method == "bbse" else rlls_solve
        return solve(confusion, mu)
    if method == "mlls":
        return mlls_em(target_probs, source_priors)
    raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")


def run_benchmark(pool: Dataset, spec: ShiftSpec, methods, source_reps: int,
                  target_reps: int, cv_grid: CvGrid) -> list[dict]:
    """Repeated-trial protocol: fit once per source draw, resample targets.

    Every method in a cell consumes the same fitted model and the same
    target/test split; reports come out ordered by (source rep, target rep,
    method).
    """
    if not methods or not set(methods) <= set(METHODS) or len(set(methods)) < len(methods):
        raise ValueError(f"no method, an unknown method or a repeated method in "
                         f"{list(methods)}; expected distinct ones of {METHODS}")
    if min(source_reps, target_reps) < 1:
        raise ValueError(f"source_reps and target_reps must be at least 1, "
                         f"got {source_reps} and {target_reps}")
    check_trunc_t(cv_grid.trunc_t, pool.num_classes)
    check_support(pool, spec)
    _check_one_class(pool, spec, [(spec.seed, s, t) for s in range(source_reps)
                                  for t in range(target_reps)])
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
        fingerprint = model.fingerprint()
        confusion = confusion_estimate(model, source.subset(held))
        # each pool row's posterior under this draw's model, filled on first use
        posterior = np.full((len(pool), pool.num_classes), np.nan)
        for t in range(target_reps):
            q_true, target_idx, test_idx = sample_target_test(
                pool, spec, (spec.seed, s, t), used)
            for idx in (target_idx, test_idx):
                new = idx[np.isnan(posterior[idx, 0])]
                posterior[new] = klr_predict(model, pool.features[new])
            target_probs, test_probs = posterior[target_idx], posterior[test_idx]
            for name in methods:
                w = estimate_weights(name, confusion, priors, target_probs)
                if not np.any(w > 0):
                    w = np.ones_like(w)
                q_hat = target_class_probs(w, priors)
                pred = np.argmax(reweight_posterior(test_probs, w), axis=1) + 1
                reports.append({
                    "method": name,
                    "acc": metric_acc(pred, pool.labels[test_idx]),
                    "mse": metric_mse(q_hat, q_true),
                    "w_hat": tuple(float(v) for v in w),
                    "q_hat": tuple(float(v) for v in q_hat),
                    "q_true": tuple(float(v) for v in q_true),
                    "seed_pair": (s, t),
                    "model_fingerprint": fingerprint,
                })
    return reports


def aggregate(reports) -> dict:
    """Per-method mean and standard deviation of ACC and MSE over report rows."""
    out = {}
    for name in sorted({r["method"] for r in reports}):
        accs = np.array([r["acc"] for r in reports if r["method"] == name])
        mses = np.array([r["mse"] for r in reports if r["method"] == name])
        out[name] = {
            "acc_mean": float(accs.mean()), "acc_std": float(accs.std()),
            "mse_mean": float(mses.mean()), "mse_std": float(mses.std()),
            "n_cells": int(len(accs)),
        }
    return out


def gaussian_mixture_pool(n: int, seed: int, scale: float = 0.35) -> Dataset:
    """Synthetic 2-d pool: three equally likely classes at MIXTURE_MEANS."""
    rng = np.random.default_rng(seed)
    labels = rng.choice(3, size=n, p=np.full(3, 1 / 3)) + 1
    features = MIXTURE_MEANS[labels - 1] + scale * rng.standard_normal((n, 2))
    return Dataset(features=features, labels=labels, num_classes=3)
