"""Exact posteriors of the synthetic mixture that `gaussian_mixture_pool` draws."""

import numpy as np

from cpmkm.klr import softmax_scores
from cpmkm.shiftlab import MIXTURE_MEANS


def gaussian_mixture_posterior(x, scale: float = 0.35) -> np.ndarray:
    """Exact p(y|x) for the gaussian_mixture_pool generative model."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d2 = ((x[:, None, :] - MIXTURE_MEANS[None, :, :]) ** 2).sum(axis=2)
    return softmax_scores(-d2 / (2 * scale ** 2))
