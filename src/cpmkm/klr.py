"""Truncated kernel logistic regression.

Fits a multinomial logistic regression in the RKHS of a Gaussian kernel,
with the last class pinned to a zero score.  Predictions are floored at a
threshold t and renormalized so the cross-entropy loss never exceeds -log t.
The fit is truncated Newton (Newton-CG) on the pivoted Cholesky factor of
the training Gram (K[p][:, p] = L L', rank r <= n), where the problem is well
conditioned, and maps the factor coefficients back to one coefficient per
support point; the fit's GTOL bounds the gradient in the factor coefficients.
Inside the fit every per-point array is class-major, one contiguous row per
free class: scores, posteriors, residual and one-hot are (M-1, n), the factor
coefficients and their gradient (M-1, r).  The sums over the classes then add
a few rows, not a 2- or 3-wide inner axis; the model's alpha stays (n, M-1).
Hyperparameters (inverse regularization C and kernel coefficient g) are
selected by stratified k-fold cross-validation on the truncated CE loss.
"""

from __future__ import annotations

import os
import sys
import warnings
from dataclasses import dataclass, field
from importlib.machinery import EXTENSION_SUFFIXES, ExtensionFileLoader, FileFinder
from importlib.util import module_from_spec

import numpy as np
import scipy

from .data import check_labels, shuffled_class_indices
from .kernel import GramMatrix, KernelParams, gram


def _load_flapack():
    """scipy's LAPACK extension, loaded without running `scipy.linalg/__init__`.

    That package init (array-API shims, numpy.testing, numpy.ma) is most of the
    start-up cost of the CLI, and the fit needs only two routines from the
    extension.  It is registered under its own name, so a later
    `import scipy.linalg` reuses it and exports the very same routines.
    """
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name]
    directory = os.path.join(scipy.__path__[0], "linalg")
    finder = FileFinder(directory, (ExtensionFileLoader, EXTENSION_SUFFIXES))
    spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension _flapack not found in {directory}",
                          name=name)
    module = module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dpstrf = _flapack.dpstrf  # pivoted Cholesky of the Gram
dtrtrs = _flapack.dtrtrs  # triangular back-solve of the factor coefficients

MODEL_FORMAT_VERSION = 1
GTOL = 1e-6  # klr_fit stops once the factor-coefficient gradient is this small
MAX_ITER = 500  # klr_fit's cap on Newton iterations
ARMIJO = 1e-4  # sufficient-decrease fraction of the klr_fit and cpm_solve line searches
T_MIN = 2.0 ** -40  # shortest step of those line searches
PREDICT_BLOCK = 2 ** 17  # Gram entries per klr_predict block, 1 MB of doubles


def check_trunc_t(trunc_t: float, num_classes: int):
    """Raise ValueError unless the prediction floor trunc_t lies in (0, 1/(2M))."""
    if not (0 < trunc_t < 1 / (2 * num_classes)):
        raise ValueError(f"trunc_t must lie in (0, 1/(2M)), got {trunc_t}")


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
        check_trunc_t(self.trunc_t, self.num_classes)
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

    def to_dict(self) -> dict:
        return {
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

    @classmethod
    def from_dict(cls, doc: dict) -> "KlrModel":
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
        if not all(np.isfinite(v) and v > 0 for v in (*self.c_values, *self.g_values)):
            raise ValueError("grid values must be positive and finite")
        if self.folds < 2:
            raise ValueError("folds must be >= 2")


@dataclass(frozen=True)
class CvSelection:
    kernel: KernelParams
    c: float                   # the picked C; lam = 1 / (c * n)
    lam: float
    model: KlrModel
    # rows of (C, g, mean validation CE), one per grid cell
    table: tuple = field(repr=False, default=())

    @property
    def on_boundary(self) -> bool:
        """C* or g* sits at an end of a grid axis that has more than one value."""
        c_axis, g_axis = list(zip(*self.table))[:2]
        g = self.kernel.gamma_sq_inv
        return any(len(set(axis)) > 1 and v in (min(axis), max(axis))
                   for v, axis in ((self.c, c_axis), (g, g_axis)))


def softmax_scores(scores) -> np.ndarray:
    """Softmax with max-subtraction; accepts a vector or a row-wise matrix."""
    scores = np.asarray(scores, dtype=float)
    if not np.all(np.isfinite(scores)):
        raise ValueError("non-finite score")
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def check_simplex(p, tol: float, floor: float, what: str):
    """Raise ValueError unless each row of p sums to 1 within tol and has no
    entry below floor; NaN fails both tests."""
    if not (np.all(np.abs(p @ np.ones(p.shape[-1]) - 1.0) <= tol) and np.all(p >= floor)):
        raise ValueError(f"{what} not on the probability simplex")


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
    check_simplex(p, 1e-9, -1e-12, "input")
    below = p < t
    if not below.any():
        return p.copy()
    # written as t + (p - t)(1 - D/E) so floored entries never round below t
    deficit = np.where(below, t - p, 0.0).sum(axis=-1, keepdims=p.ndim > 1)
    headroom = np.where(below, 0.0, p - t).sum(axis=-1, keepdims=p.ndim > 1)
    return np.where(below, t, t + (p - t) * (1.0 - deficit / headroom))


def _ce_and_resid(scores: np.ndarray, picked: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean CE of the class-major scores, a C-ordered (M, n) array with a zero
    last row, and the residual softmax - one-hot over the M-1 free rows, which
    is n times the CE gradient in those rows; picked is the flat index
    (label - 1) n + i of each column's label.  One exp serves both: the CE's
    log-sum-exp and the softmax share the column maxima and column sums, each
    a pass over M contiguous rows.  The residual is a view of that fresh exp,
    never of scores, so a caller may overwrite scores once this returns."""
    if not np.isfinite(scores).all():
        raise ValueError("non-finite score")
    n = scores.shape[1]
    shift = scores.max(axis=0)
    e = np.exp(scores - shift)
    total = e.sum(axis=0)
    ce = float(np.sum(np.log(total) + shift - scores.take(picked))) / n
    e /= total
    e.ravel()[picked] -= 1.0
    return ce, e[:-1]


def _uniform_start(onehot: np.ndarray) -> tuple[float, np.ndarray]:
    """_ce_and_resid at zero scores, bit for bit, in closed form: every
    posterior is 1/M, so the CE is log M, summed pairwise over the n columns
    as _ce_and_resid sums it, and the residual is 1/M - one-hot."""
    m, n = onehot.shape[0] + 1, onehot.shape[1]
    return float(np.sum(np.full(n, np.log(float(m))))) / n, 1.0 / m - onehot


def _loss_and_grad(alpha: np.ndarray, k: np.ndarray, labels: np.ndarray,
                   lam: float) -> tuple[float, np.ndarray]:
    """Objective and gradient of the regularized CE from one score matrix."""
    m, n = alpha.shape[1] + 1, k.shape[0]
    check_labels(labels, m)
    scores = np.zeros((m, n))
    # K is symmetric, so these are the class-major free scores
    f = np.matmul(alpha.T, k, out=scores[:-1])
    ce, resid = _ce_and_resid(scores, (labels - 1) * n + np.arange(n))
    value = lam * float(np.sum(alpha.T * f)) + ce
    return value, k @ (2.0 * lam * alpha + resid.T / n)


def klr_objective(alpha, gram_self: GramMatrix, labels, lam: float) -> float:
    """Regularized CE objective: lam * sum_m alpha_m' K alpha_m + mean CE."""
    return _loss_and_grad(np.asarray(alpha, dtype=float), gram_self.values,
                          np.asarray(labels, dtype=int), lam)[0]


def klr_gradient(alpha, gram_self: GramMatrix, labels, lam: float) -> np.ndarray:
    """Analytic gradient of klr_objective w.r.t. alpha."""
    return _loss_and_grad(np.asarray(alpha, dtype=float), gram_self.values,
                          np.asarray(labels, dtype=int), lam)[1]


def pivoted_factor(x, kernel: KernelParams) -> tuple[np.ndarray, np.ndarray]:
    """(L, p) with K[p][:, p] = L L' for the self-Gram K of x, by LAPACK's pivoted
    Cholesky: L is n x r, r <= n the rank.  The n x n Gram is freed on return."""
    # the Gram is symmetric, so its transpose is the Fortran-ordered array
    # LAPACK factors in place; info > 0 only reports rank < n
    factor, piv, rank, info = dpstrf(gram(x, x, kernel).values.T, lower=1,
                                     overwrite_a=1)
    if info < 0:
        raise np.linalg.LinAlgError(f"dpstrf: illegal value in argument {-info}")
    return np.tril(factor[:, :rank]), piv - 1


def _newton_direction(chol: np.ndarray, probs: np.ndarray, lam: float,
                      grad: np.ndarray) -> np.ndarray:
    """Truncated Newton direction: CG on H d = -grad to relative residual
    min(0.5, sqrt(|grad|)), with the exact Hessian-vector product
    H V = (P*U - P colsum(P*U)) L / n + 2 lam V, U = V L', where P holds the
    M-1 free posterior rows.  Everything is class-major: probs is (M-1, n),
    grad and the direction (M-1, r), so the sum over classes adds M-1
    contiguous rows.  H is positive definite, so CG applies."""
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
        p *= rr / rr_old
        p += r
    return d


def klr_fit(data, kernel: KernelParams, lam: float, trunc_t: float,
            factor=None) -> KlrModel:
    """Fit KLR by truncated Newton on the pivoted Cholesky factor of the Gram.

    The factor K[p][:, p] = L L' (L of rank r <= n) is pivoted_factor's, or
    `factor` when given, which must be pivoted_factor(data.features, kernel).
    With class-major coefficients beta, (M-1, r), scores f = beta L' and
    penalty lam * ||beta||^2 the objective equals the alpha-space one, but
    its Hessian is well conditioned.  Scores, posteriors, residual, one-hot,
    beta and its gradient all keep one row per free class, so each reduction
    over the classes adds a few contiguous rows.  From beta = 0, where the CE
    and residual are known in closed form (_uniform_start), each Newton
    iteration solves for its direction by CG on the exact Hessian-vector
    product (_newton_direction) and backtracks until the Armijo condition
    holds; the fit stops once the beta-gradient is at most GTOL in every
    entry, or after MAX_ITER iterations.
    The fit maps back by alpha[p[:r]] = L11^-T beta', alpha = 0 elsewhere, so
    K alpha = L beta'; a given factor with a zero on the diagonal of L11
    raises LinAlgError there.  Truncation only affects prediction; at
    t = 1e-8 it is essentially inactive on training data, so the smooth
    objective is optimized.  An unconverged fit is returned with a
    RuntimeWarning.
    """
    x, labels, m = data.features, data.labels, data.num_classes
    n = x.shape[0]
    counts = np.bincount(labels - 1, minlength=m)
    if (counts == 0).any():
        missing = int(data.classes[np.argmin(counts)])
        raise ValueError(f"class {missing} has no source examples")
    chol, perm = pivoted_factor(x, kernel) if factor is None else factor
    if chol.shape[0] != n:
        raise ValueError(f"factor has {chol.shape[0]} rows, data has {n}")
    rank = chol.shape[1]
    pivot_labels = labels[perm]
    # the residual plus this one-hot is the M-1 free posterior rows
    onehot = (np.arange(1, m)[:, None] == pivot_labels).astype(float)
    # every evaluation writes its free scores into one buffer; the last row
    # stays zero, and picked indexes each column's label in it
    scores = np.zeros((m, n))
    picked = (pivot_labels - 1) * n + np.arange(n)

    def objective(beta):
        np.matmul(beta, chol.T, out=scores[:-1])
        ce, resid = _ce_and_resid(scores, picked)
        return lam * float(np.vdot(beta, beta)) + ce, resid

    beta = np.zeros((m - 1, rank))
    value, resid = _uniform_start(onehot)
    for iters in range(MAX_ITER + 1):
        grad = (resid / n) @ chol + 2.0 * lam * beta
        grad_max = np.abs(grad).max()
        if grad_max <= GTOL or iters == MAX_ITER:
            break
        d = _newton_direction(chol, resid + onehot, lam, grad)
        slope = float(np.vdot(grad, d))
        t = 1.0
        while t >= T_MIN:
            trial_value, trial_resid = objective(beta + t * d)
            if trial_value <= value + ARMIJO * t * slope:
                break
            t *= 0.5
        if t < T_MIN:
            break  # no step decreases the objective: the search has stalled
        beta, value, resid = beta + t * d, trial_value, trial_resid
    if grad_max > GTOL:
        warnings.warn(f"klr_fit did not converge (Newton iterations {iters}, "
                      f"max |beta-gradient| {grad_max:.2e})", RuntimeWarning, stacklevel=2)
    # L11' is upper triangular, and chol[:rank].T holds it in the Fortran
    # order LAPACK reads without a copy
    sol, info = dtrtrs(chol[:rank].T, beta.T, lower=0, trans=0)
    if info > 0:
        raise np.linalg.LinAlgError(f"dtrtrs: factor is singular at diagonal {info - 1}")
    if info < 0:
        raise np.linalg.LinAlgError(f"dtrtrs: illegal value in argument {-info}")
    alpha = np.zeros((n, m - 1))
    alpha[perm[:rank]] = sol
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
    # alpha is zero off the factor's r pivot rows: their Gram columns add nothing
    live = np.any(model.alpha != 0, axis=1)
    live[0] |= not live.any()  # one column keeps the Gram nonempty
    support, alpha = model.support[live], model.alpha[live]
    # row blocks of PREDICT_BLOCK entries: each Gram block stays in cache
    # from its product through the exp to the product with alpha
    step = max(1, PREDICT_BLOCK // len(support))
    # the last class's score column stays pinned at zero
    f = np.zeros((len(points), model.num_classes))
    for start in range(0, len(points), step):
        block = points[start:start + step]
        f[start:start + step, :-1] = gram(block, support, model.kernel).values @ alpha
    return truncate_simplex(softmax_scores(f), model.trunc_t)


def cv_select(data, cv_grid: CvGrid, seed: int) -> CvSelection:
    """Grid search (C, g) by stratified k-fold CV on the truncated CE loss.

    lambda = 1 / (C * n_train).  Ties break toward larger lambda (smaller C),
    then smaller g; the score table is fully materialized so the selection is
    independent of evaluation order.
    """
    check_trunc_t(cv_grid.trunc_t, data.num_classes)
    labels = data.labels
    n = len(labels)
    counts = np.bincount(labels - 1, minlength=data.num_classes)
    # a singleton class cannot appear in every training fold
    if counts.min() < 2:
        raise ValueError("a class has too few examples to stratify across folds")
    # fold f validates on the (f+1)-th example of each class
    if counts.max() < cv_grid.folds:
        raise ValueError(f"no class has {cv_grid.folds} examples: "
                         f"a validation fold would be empty")
    rng = np.random.default_rng(seed)
    # every class spreads across the folds
    assignment = np.empty(n, dtype=int)
    for idx in shuffled_class_indices(labels, rng):
        assignment[idx] = np.arange(len(idx)) % cv_grid.folds

    # per fold: the training rows and their count, the validation rows and
    # the (row, label) index of their posteriors, shared by every (C, g)
    splits = []
    for fold in range(cv_grid.folds):
        val = assignment == fold
        tr = ~val
        splits.append((data.subset(tr), tr.sum(), data.features[val],
                       (np.arange(val.sum()), labels[val] - 1)))
    # the training Gram and its factor depend on g and the fold, not on C
    ce = np.empty((len(cv_grid.c_values), len(cv_grid.g_values), cv_grid.folds))
    for j, g in enumerate(cv_grid.g_values):
        kernel = KernelParams(g)
        for fold, (sub, n_tr, x_val, picked) in enumerate(splits):
            factor = pivoted_factor(sub.features, kernel)
            for i, c in enumerate(cv_grid.c_values):
                model = klr_fit(sub, kernel, 1.0 / (c * n_tr), cv_grid.trunc_t,
                                factor=factor)
                ce[i, j, fold] = np.mean(-np.log(klr_predict(model, x_val)[picked]))
    table = [(c, g, float(np.mean(ce[i, j])))
             for i, c in enumerate(cv_grid.c_values) for j, g in enumerate(cv_grid.g_values)]

    c_star, g_star, _ = min(table, key=lambda row: (row[2], row[0], row[1]))
    model = klr_fit(data, KernelParams(g_star), 1.0 / (c_star * n), cv_grid.trunc_t)
    return CvSelection(kernel=model.kernel, c=c_star, lam=model.lam, model=model,
                       table=tuple(table))
