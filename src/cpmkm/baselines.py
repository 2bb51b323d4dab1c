"""Baseline estimators of the class probability ratio: BBSE, RLLS-style, MLLS.

All three consume the same fitted KLR as the black-box predictor.  BBSE
solves confusion-matrix moment equations; RLLS-style shrinks the solution
toward no shift with ridge regularization; MLLS runs EM on the target class
priors through the fixed source posteriors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .klr import KlrModel, check_simplex, klr_predict

EM_TOL = 1e-8        # mlls_em stops once an EM map moves q by at most this in L1
EM_MAX_ITER = 10000  # mlls_em's cap on EM maps
RLLS_REG = 1e-3      # rlls_solve's ridge, as a multiple of trace(C) / M


@dataclass(frozen=True)
class ConfusionMatrix:
    """values[i][j] = joint probability of predicted class i and true class j."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if v.ndim != 2 or v.shape[0] != v.shape[1]:
            raise ValueError("confusion matrix must be square")
        check_simplex(v.ravel(), 1e-10, 0.0, "confusion matrix")


def confusion_estimate(model: KlrModel, holdout) -> ConfusionMatrix:
    """Joint (prediction, truth) distribution of the predictor on held-out data."""
    labels, m = holdout.labels, model.num_classes
    counts = np.bincount(labels - 1, minlength=m)
    if (counts == 0).any():
        missing = holdout.class_value(int(np.argmin(counts)) + 1)
        raise ValueError(f"class {missing} missing from the holdout set")
    pred = np.argmax(klr_predict(model, holdout.features), axis=1)
    joint = np.bincount(pred * m + labels - 1, minlength=m * m)
    return ConfusionMatrix(values=joint.reshape(m, m) / len(labels))


def bbse_solve(confusion: ConfusionMatrix, target_pred_dist) -> np.ndarray:
    """Solve C w = mu by least squares; negative components clipped to zero.

    A singular value of C below 1e-10 warns; lstsq then returns the
    minimum-norm solution.
    """
    w, _, _, sv = np.linalg.lstsq(confusion.values,
                                  np.asarray(target_pred_dist, dtype=float), rcond=None)
    if sv.min() < 1e-10:
        warnings.warn("confusion matrix is ill-conditioned; "
                      "using the minimum-norm least-squares solution", RuntimeWarning)
    return np.maximum(w, 0.0)


def rlls_solve(confusion: ConfusionMatrix, target_pred_dist) -> np.ndarray:
    """Ridge-regularized solve of C (1 + theta) = mu, shrinking toward w = 1."""
    c = confusion.values
    m = c.shape[0]
    mu = np.asarray(target_pred_dist, dtype=float)
    reg = RLLS_REG * np.trace(c) / m
    b = mu - c @ np.ones(m)
    theta = np.linalg.solve(c.T @ c + reg * np.eye(m), c.T @ b)
    return np.maximum(1.0 + theta, 0.0)


def _class_major_ratio(probs: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """The (M, n) contiguous ratio p(m|x_i) / p(m) that the EM helpers take."""
    return np.ascontiguousarray(probs.T) / priors[:, None]


def _em_map(ratio: np.ndarray, q: np.ndarray) -> np.ndarray:
    """One prior-shift EM map, q(m) <- q(m) mean_i ratio_mi / sum_j q(j) ratio_ji,
    on the class-major ratio_mi = p(m|x_i) / p(m)."""
    denom = q @ ratio
    if not denom.min() > 0:
        raise ValueError("non-finite likelihood in EM iteration")
    return q * (ratio @ (1.0 / denom)) / ratio.shape[1]


def _mean_log_lik(ratio: np.ndarray, q: np.ndarray):
    """Mean target log-likelihood of priors q, up to a constant in q."""
    return np.log(q @ ratio).sum() / ratio.shape[1]


def _squarem(ratio: np.ndarray, q0: np.ndarray, q1: np.ndarray,
             q2: np.ndarray) -> np.ndarray:
    """SQUAREM's extrapolated point (Varadhan & Roland 2008) from two EM maps
    q0 -> q1 -> q2.

    With r = q1 - q0 and v = q2 - q1 - r, the point q0 - 2 s r + s^2 v with
    s = -|r|/|v| replaces q2 when it is strictly positive and no less likely;
    otherwise s backtracks, s <- (s - 1)/2, toward s = -1, where the point is
    q2, so extrapolation also reaches a maximum on the simplex boundary.
    """
    r = q1 - q0
    v = q2 - q1 - r
    vv = v @ v
    s = -np.sqrt((r @ r) / vv) if vv > 0 else -1.0
    ll = _mean_log_lik(ratio, q2) if s < -1 else None
    while s < -1:
        q_ext = q0 - 2.0 * s * r + s * s * v
        if np.all(q_ext > 0) and _mean_log_lik(ratio, q_ext) >= ll:
            return q_ext
        s = (s - 1.0) / 2.0  # backtrack toward s = -1, where q_ext = q2
    return q2


def mlls_em(target_probs, source_priors) -> np.ndarray:
    """EM on the target class priors; returns the ratio w_m = q(m)/p(m).

    The EM map q(m) <- mean_i of the posterior responsibility
    q(m) p(m|x_i)/p(m) / sum_j q(j) p(j|x_i)/p(j) is the standard prior-shift
    EM.  It converges linearly, and slowly where the maximum lies on the
    simplex boundary, so every third map starts from the `_squarem` point of
    the two maps before it.  The target log-likelihood stays non-decreasing.
    EM stops once a map moves q by at most EM_TOL in L1; EM_MAX_ITER counts
    EM maps, and stopping there issues a RuntimeWarning.
    """
    probs = np.atleast_2d(np.asarray(target_probs, dtype=float))
    priors = np.asarray(source_priors, dtype=float)
    if np.any(probs <= 0):
        raise ValueError("posterior entries must be strictly positive")
    if np.any(priors <= 0):
        raise ValueError("source priors must be strictly positive")
    ratio = _class_major_ratio(probs, priors)
    q0 = q1 = q = priors.copy()
    for step in range(1, EM_MAX_ITER + 1):
        if step % 3 == 0:
            q = _squarem(ratio, q0, q1, q)
        q0, q1, q = q1, q, _em_map(ratio, q)
        if np.abs(q - q1).sum() <= EM_TOL:
            break
    else:
        warnings.warn(f"mlls_em did not converge in {EM_MAX_ITER} EM steps "
                      f"(tol {EM_TOL})", RuntimeWarning, stacklevel=2)
    return q / priors
