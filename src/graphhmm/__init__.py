"""Sparse mixtures of Gaussian HMMs for sequences from graph-connected nodes.

A shared dictionary of M hidden Markov models is mixed per node of a K-node
weighted graph. Training runs EM; an optional graph-driven penalty rewards
overlap between the mixing rows of well-connected nodes and drives
coefficients exactly to zero, so each node ends up using a small,
interpretable subset of the dictionary. On top of the trained model the
package offers likelihood scoring with ROC/AUC, posterior-predictive
forecasting, and node clustering, plus a CLI over JSON/JSON-Lines files.
"""

from .evaluation import (ScoredSequence, cluster_assignments, relative_sparsity,
                         roc_auc, score_dataset)
from .forecast import PosteriorModel, condition, forecast_mean, predictive_log_likelihood
from .hmm import (VARIANCE_FLOOR, GaussianHmm, StatePosteriors, gaussian_log_densities,
                  log_likelihood, posteriors, sample)
from .io import (load_dataset, load_graph, load_model, load_stats, save_dataset,
                 save_graph, save_model, save_stats)
from .mixture import (AffinityGraph, MixtureSufficientStats, PairBlock, SequenceDataset,
                      SequenceItem, SparseMixtureModel, coefficient_gradient,
                      mixture_log_likelihood, mixture_log_likelihoods, mixture_posteriors,
                      regularizer_value, reparameterize_rows, sample_from_node)
from .training import (AdamState, EmStep, FitResult, InitSpec, TrainConfig,
                       baseline_state_counts, em_step_mhmm, em_step_spamhmm, fit,
                       fit_per_node, fit_single_hmm, initialize_model)

__version__ = "0.1.0"

__all__ = [
    "AdamState", "AffinityGraph", "EmStep", "FitResult", "GaussianHmm", "InitSpec",
    "MixtureSufficientStats", "PairBlock", "PosteriorModel", "ScoredSequence",
    "SequenceDataset", "SequenceItem", "SparseMixtureModel", "StatePosteriors", "TrainConfig",
    "VARIANCE_FLOOR", "baseline_state_counts", "cluster_assignments",
    "coefficient_gradient", "condition", "em_step_mhmm", "em_step_spamhmm", "fit",
    "fit_per_node", "fit_single_hmm", "forecast_mean", "gaussian_log_densities",
    "initialize_model", "load_dataset", "load_graph", "load_model", "load_stats",
    "log_likelihood", "mixture_log_likelihood", "mixture_log_likelihoods",
    "mixture_posteriors", "posteriors",
    "predictive_log_likelihood", "regularizer_value", "relative_sparsity",
    "reparameterize_rows", "roc_auc", "sample", "sample_from_node",
    "save_dataset", "save_graph", "save_model", "save_stats", "score_dataset",
]
