"""Label shift adaptation via class probability matching on kernel methods."""

from .adapt import (AdaptedModel, adapt_pipeline, predict_target,
                    reweight_posterior, target_class_probs)
from .baselines import (ConfusionMatrix, bbse_solve, confusion_estimate,
                        mlls_em, rlls_solve)
from .cpm import (MatchProblem, cpm_gradient, cpm_objective, cpm_solve,
                  empirical_class_probs, reweighted_target_probs)
from .data import Dataset, load_csv
from .kernel import GramMatrix, KernelParams, gram
from .klr import (CvGrid, CvSelection, KlrModel, cv_select, klr_fit,
                  klr_gradient, klr_objective, klr_predict, softmax_scores,
                  truncate_simplex)
from .shiftlab import (EvalReport, ShiftSpec, aggregate, metric_acc,
                       metric_mse, run_benchmark, sample_shift_scenario)

__version__ = "0.1.0"
