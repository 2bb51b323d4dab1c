"""Truncated kernel logistic regression.

Fits a multinomial logistic regression in the RKHS of a Gaussian kernel,
with the last class pinned to a zero score.  Predictions are floored at a
threshold t and renormalized so the cross-entropy loss never exceeds -log t.
The fit runs on the pivoted Cholesky factor of the training Gram
(K[p][:, p] = L L', rank r <= n), where the problem is well conditioned, and
maps the factor coefficients back to one coefficient per support point; the
fit's gtol bounds the gradient in the factor coefficients.
Hyperparameters (inverse regularization C and kernel coefficient g) are
selected by stratified k-fold cross-validation on the truncated CE loss.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpstrf
from scipy.optimize import minimize
from scipy.special import logsumexp

from .kernel import GramMatrix, KernelParams, gram

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class KlrModel:
    """Fitted truncated kernel logistic regressor.

    alpha has M-1 columns; the score of the last class is identically zero.
    """

    support: np.ndarray          # (n_p, d)
    alpha: np.ndarray            # (n_p, M-1)
    kernel: KernelParams
    lam: float
    trunc_t: float
    num_classes: int

    def __post_init__(self):
        if self.alpha.shape != (self.support.shape[0], self.num_classes - 1):
            raise ValueError(
                f"alpha shape {self.alpha.shape} inconsistent with "
                f"{self.support.shape[0]} support points, M={self.num_classes}"
            )
        if not (0 < self.trunc_t < 1 / (2 * self.num_classes)):
            raise ValueError(f"trunc_t must lie in (0, 1/(2M)), got {self.trunc_t}")
        if not (np.isfinite(self.lam) and self.lam > 0):
            raise ValueError(f"lambda must be positive, got {self.lam}")

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(self.support.tobytes())
        h.update(self.alpha.tobytes())
        h.update(np.array([self.kernel.gamma_sq_inv, self.lam, self.trunc_t]).tobytes())
        h.update(str(self.num_classes).encode())
        return h.hexdigest()[:16]

    def to_json(self) -> str:
        doc = {
            "format_version": MODEL_FORMAT_VERSION,
            "num_classes": self.num_classes,
            "dim": int(self.support.shape[1]),
            "n_support": int(self.support.shape[0]),
            "gamma_sq_inv": self.kernel.gamma_sq_inv,
            "lambda": self.lam,
            "trunc_t": self.trunc_t,
            "support": self.support.ravel().tolist(),
            "alpha": self.alpha.ravel().tolist(),
        }
        return json.dumps(doc)

    @classmethod
    def from_json(cls, text: str) -> "KlrModel":
        doc = json.loads(text)
        if doc.get("format_version") != MODEL_FORMAT_VERSION:
            raise ValueError(f"unsupported model format version {doc.get('format_version')}")
        n, d, m = doc["n_support"], doc["dim"], doc["num_classes"]
        return cls(
            support=np.array(doc["support"], dtype=float).reshape(n, d),
            alpha=np.array(doc["alpha"], dtype=float).reshape(n, m - 1),
            kernel=KernelParams(doc["gamma_sq_inv"]),
            lam=doc["lambda"],
            trunc_t=doc["trunc_t"],
            num_classes=m,
        )


@dataclass(frozen=True)
class CvGrid:
    """Hyperparameter grid: 7-point log grids for C in [1e-6, 1] and g in [2^-6, 1]."""

    c_values: tuple = tuple(np.logspace(-6, 0, 7))
    g_values: tuple = tuple(np.logspace(-6, 0, 7, base=2.0))
    folds: int = 5
    trunc_t: float = 1e-8

    def __post_init__(self):
        if any(c <= 0 for c in self.c_values) or any(g <= 0 for g in self.g_values):
            raise ValueError("grid values must be positive")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass(frozen=True)
class CvSelection:
    kernel: KernelParams
    lam: float
    model: KlrModel
    # rows of (C, g, mean validation CE), one per grid cell
    table: tuple = field(repr=False, default=())


def softmax_scores(scores) -> np.ndarray:
    """Softmax with max-subtraction; accepts a vector or a row-wise matrix."""
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite score")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def truncate_simplex(p, t: float) -> np.ndarray:
    """Floor entries of a probability vector at t and renormalize.

    Entries below t are raised to t; the surplus is removed from the entries
    at or above t in proportion to their headroom (p_m - t), so the result
    stays on the simplex with every entry >= t and ranking preserved.
    Requires t < 1/M so the adjustment factor stays below one.
    """
    p = np.asarray(p, dtype=float)
    m = p.shape[-1]
    if not (0 < t < 1 / m):
        raise ValueError(f"truncation threshold must lie in (0, 1/M), got t={t}, M={m}")
    sums = p.sum(axis=-1)
    if np.any(np.abs(sums - 1.0) > 1e-9) or np.any(p < -1e-12):
        raise ValueError("input not on the probability simplex")
    below = p < t
    if not below.any():
        return p.copy()
    # written as t + (p - t)(1 - D/E) so floored entries never round below t
    deficit = np.where(below, t - p, 0.0).sum(axis=-1, keepdims=p.ndim > 1)
    headroom = np.where(below, 0.0, p - t).sum(axis=-1, keepdims=p.ndim > 1)
    return np.where(below, t, t + (p - t) * (1.0 - deficit / headroom))


def _scores(f: np.ndarray) -> np.ndarray:
    """Full M-column score matrix from M-1 columns, the last class pinned to zero."""
    return np.hstack([f, np.zeros((f.shape[0], 1))])


def _check_labels(labels: np.ndarray, num_classes: int):
    if labels.min() < 1 or labels.max() > num_classes:
        raise ValueError(f"labels must lie in 1..{num_classes}")


def _ce_and_resid(f: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE of the M-1 score columns f and the residual softmax - one-hot,
    which is n times the CE gradient in f."""
    n = f.shape[0]
    scores = _scores(f)
    rows = np.arange(n)
    ce = float(np.mean(logsumexp(scores, axis=1) - scores[rows, labels - 1]))
    resid = softmax_scores(scores)
    resid[rows, labels - 1] -= 1.0
    return ce, resid[:, :-1]


def _loss_and_grad(alpha: np.ndarray, k: np.ndarray, labels: np.ndarray,
                   lam: float) -> tuple[float, np.ndarray]:
    """Objective and gradient of the regularized CE from one score matrix."""
    _check_labels(labels, alpha.shape[1] + 1)
    f = k @ alpha
    ce, resid = _ce_and_resid(f, labels)
    value = lam * float(np.sum(alpha * f)) + ce
    return value, k @ (2.0 * lam * alpha + resid / k.shape[0])


def klr_objective(alpha, gram_self: GramMatrix, labels, lam: float) -> float:
    """Regularized CE objective: lam * sum_m alpha_m' K alpha_m + mean CE."""
    return _loss_and_grad(np.asarray(alpha, dtype=float), gram_self.values,
                          np.asarray(labels, dtype=int), lam)[0]


def klr_gradient(alpha, gram_self: GramMatrix, labels, lam: float) -> np.ndarray:
    """Analytic gradient of klr_objective w.r.t. alpha."""
    return _loss_and_grad(np.asarray(alpha, dtype=float), gram_self.values,
                          np.asarray(labels, dtype=int), lam)[1]


def klr_fit(data, kernel: KernelParams, lam: float, trunc_t: float,
            max_iter: int = 500, gtol: float = 1e-6) -> KlrModel:
    """Fit KLR by L-BFGS on the pivoted Cholesky factor of the Gram.

    LAPACK's pivoted Cholesky gives K[p][:, p] = L L' with L of rank r <= n.
    With scores f = L beta and penalty lam * ||beta||^2 the objective equals
    the alpha-space one, but its Hessian is well conditioned, so L-BFGS from
    beta = 0 converges in tens of iterations; gtol bounds the beta-gradient.
    The fit maps back by alpha[p[:r]] = L11^-T beta, alpha = 0 elsewhere, so
    K alpha = L beta.  Truncation only affects prediction; at t = 1e-8 it is
    essentially inactive on training data, so the smooth objective is
    optimized.  An unconverged fit is returned with a RuntimeWarning.
    """
    x = np.asarray(data.features, dtype=float)
    labels = np.asarray(data.labels, dtype=int)
    m = data.num_classes
    n = x.shape[0]
    if n < m:
        raise ValueError(f"need at least {m} samples for {m} classes, got {n}")
    _check_labels(labels, m)
    counts = np.bincount(labels - 1, minlength=m)
    if (counts == 0).any():
        missing = int(np.argmin(counts)) + 1
        raise ValueError(f"class {missing} has no source examples")
    # the Gram is symmetric, so its transpose is the Fortran-ordered array
    # LAPACK factors in place; info > 0 only reports rank < n
    factor, piv, rank, info = dpstrf(gram(x, x, kernel).values.T, lower=1,
                                     overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpstrf: illegal value in argument {-info}")
    chol = np.tril(factor[:, :rank])
    del factor  # frees the n x n Gram before the solve
    perm = piv - 1
    pivot_labels = labels[perm]
    shape = (rank, m - 1)

    def fun(flat):
        beta = flat.reshape(shape)
        ce, resid = _ce_and_resid(chol @ beta, pivot_labels)
        grad = chol.T @ (resid / n) + 2.0 * lam * beta
        return lam * float(np.sum(beta * beta)) + ce, grad.ravel()

    res = minimize(fun, np.zeros(rank * (m - 1)), jac=True, method="L-BFGS-B",
                   options={"maxiter": max_iter, "gtol": gtol, "ftol": 1e-15})
    if not res.success:
        warnings.warn(f"klr_fit did not converge (L-BFGS status {res.status}: "
                      f"{res.message})", RuntimeWarning, stacklevel=2)
    alpha = np.zeros((n, m - 1))
    alpha[perm[:rank]] = solve_triangular(chol[:rank], res.x.reshape(shape),
                                          lower=True, trans="T")
    return KlrModel(support=x, alpha=alpha, kernel=kernel,
                    lam=lam, trunc_t=trunc_t, num_classes=m)


def klr_predict(model: KlrModel, points) -> np.ndarray:
    """Truncated conditional probabilities, one row per query point."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    if points.shape[1] != model.support.shape[1]:
        raise ValueError(
            f"dimension mismatch: model expects d={model.support.shape[1]}, "
            f"got d={points.shape[1]}"
        )
    k = gram(points, model.support, model.kernel).values
    probs = softmax_scores(_scores(k @ model.alpha))
    return truncate_simplex(probs, model.trunc_t)


def _stratified_folds(labels: np.ndarray, folds: int, rng: np.random.Generator):
    """Assign each index a fold so every class spreads across folds."""
    n = len(labels)
    assignment = np.empty(n, dtype=int)
    for cls in np.unique(labels):
        idx = np.flatnonzero(labels == cls)
        rng.shuffle(idx)
        assignment[idx] = np.arange(len(idx)) % folds
    return assignment


def cv_select(data, cv_grid: CvGrid, seed: int) -> CvSelection:
    """Grid search (C, g) by stratified k-fold CV on the truncated CE loss.

    lambda = 1 / (C * n_train).  Ties break toward larger lambda (smaller C),
    then smaller g; the score table is fully materialized so the selection is
    independent of evaluation order.
    """
    from .data import Dataset

    labels = np.asarray(data.labels, dtype=int)
    n = len(labels)
    if n < cv_grid.folds:
        raise ValueError(f"need at least {cv_grid.folds} samples for {cv_grid.folds} folds")
    counts = np.bincount(labels - 1, minlength=data.num_classes)
    # a singleton class cannot appear in every training fold
    if counts.min() < 2:
        raise ValueError("a class has too few examples to stratify across folds")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    assignment = _stratified_folds(labels, cv_grid.folds, rng)

    pairs = [(c, g) for c in cv_grid.c_values for g in cv_grid.g_values]
    table = []
    for c, g in pairs:
        fold_ce = []
        for fold in range(cv_grid.folds):
            val = assignment == fold
            tr = ~val
            tr_labels = labels[tr]
            if len(np.unique(tr_labels)) < data.num_classes or not val.any():
                raise ValueError(f"fold {fold} is missing a class; cannot stratify")
            lam = 1.0 / (c * tr.sum())
            sub = Dataset(features=data.features[tr], labels=tr_labels,
                          num_classes=data.num_classes)
            model = klr_fit(sub, KernelParams(g), lam, cv_grid.trunc_t)
            probs = klr_predict(model, data.features[val])
            picked = probs[np.arange(val.sum()), labels[val] - 1]
            fold_ce.append(float(np.mean(-np.log(picked))))
        table.append((c, g, float(np.mean(fold_ce))))

    best = min(table, key=lambda row: (row[2], row[0], row[1]))
    c_star, g_star = best[0], best[1]
    lam_star = 1.0 / (c_star * n)
    model = klr_fit(data, KernelParams(g_star), lam_star, cv_grid.trunc_t)
    return CvSelection(kernel=KernelParams(g_star), lam=lam_star, model=model,
                       table=tuple(table))
