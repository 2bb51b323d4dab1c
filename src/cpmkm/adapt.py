"""End-to-end pipeline: fit source KLR, match class probabilities, predict.

The target posterior is the source posterior reweighted by the estimated
class probability ratio, and the plug-in classifier is its argmax.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cpm import MatchProblem, cpm_solve, empirical_class_probs
from .data import Dataset
from .klr import CvGrid, CvSelection, KlrModel, cv_select, klr_predict

ADAPTED_FORMAT_VERSION = 1


@dataclass(frozen=True)
class AdaptedModel:
    source_model: KlrModel
    weights: np.ndarray        # (M,) estimated q(y)/p(y)
    source_priors: np.ndarray  # (M,) empirical source class frequencies

    def __post_init__(self):
        m = self.source_model.num_classes
        if len(self.weights) != m or len(self.source_priors) != m:
            raise ValueError("weights/source_priors length must equal the class count")

    def to_dict(self) -> dict:
        return {
            "format_version": ADAPTED_FORMAT_VERSION,
            "source_model": self.source_model.to_dict(),
            "weights": np.asarray(self.weights).tolist(),
            "source_priors": np.asarray(self.source_priors).tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "AdaptedModel":
        if doc.get("format_version") != ADAPTED_FORMAT_VERSION:
            raise ValueError(f"unsupported format version {doc.get('format_version')}")
        return cls(
            source_model=KlrModel.from_dict(doc["source_model"]),
            weights=np.array(doc["weights"], dtype=float),
            source_priors=np.array(doc["source_priors"], dtype=float),
        )


def reweight_posterior(p_row, w) -> np.ndarray:
    """q(y|x) = w_y p(y|x) / sum_m w_m p(m|x); also accepts row-wise matrices."""
    p = np.asarray(p_row, dtype=float)
    w = np.asarray(w, dtype=float)
    num = p * w
    den = (num @ np.ones(num.shape[-1]))[..., None]
    if np.any(den <= 0):
        raise ValueError("zero denominator: w eliminates all probability mass")
    return num / den


def adapt_pipeline(source: Dataset, target_unlabeled, cv_grid: CvGrid,
                   seed: int) -> tuple[AdaptedModel, CvSelection]:
    """Full adaptation: source priors, CV-fitted KLR, CPM weights.

    Returns the adapted model and the CV search that picked its source model.
    """
    target_unlabeled = np.atleast_2d(np.asarray(target_unlabeled, dtype=float))
    if target_unlabeled.shape[0] < 1:
        raise ValueError("target set must be non-empty")
    priors = empirical_class_probs(source.labels, source.num_classes)
    selection = cv_select(source, cv_grid, seed)
    target_probs = klr_predict(selection.model, target_unlabeled)
    w = cpm_solve(MatchProblem(p_hat=priors, target_probs=target_probs))
    return AdaptedModel(source_model=selection.model, weights=w,
                        source_priors=priors), selection


def predict_target(model: AdaptedModel, points):
    """Reweighted posteriors and argmax labels (ties to the smallest class)."""
    probs = klr_predict(model.source_model, points)
    q = reweight_posterior(probs, model.weights)
    labels = np.argmax(q, axis=1) + 1
    return q, labels


def target_class_probs(weights, source_priors) -> np.ndarray:
    """Normalized w(y) p(y): the estimate of the target class probability q(y)."""
    num = np.asarray(weights) * np.asarray(source_priors)
    den = num.sum()
    if den <= 0:
        raise ValueError("zero denominator in target class probability")
    return num / den
