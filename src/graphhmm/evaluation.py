"""Scoring, anomaly-detection metrics, sparsity, and node clustering."""

import numbers
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hmm import _shown, check_real
from .mixture import LABELS, SequenceDataset, SparseMixtureModel, mixture_log_likelihoods

NORMAL, ANOMALOUS = LABELS

# trapezoid landed in numpy 2.0; trapz is its deprecated spelling
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


@dataclass
class ScoredSequence:
    """Per-sequence score: average log-likelihood per timestep, so sequences
    of different lengths are comparable. Lower scores are more anomalous."""

    node: int
    length: int
    avg_log_likelihood: float
    label: Optional[str] = None


def score_dataset(model: SparseMixtureModel, dataset: SequenceDataset) -> list:
    """Score every sequence under its own node's mixture."""
    lls = mixture_log_likelihoods(model, dataset)
    return [ScoredSequence(node=item.node, length=item.seq.shape[0],
                           avg_log_likelihood=float(ll) / item.seq.shape[0], label=item.label)
            for item, ll in zip(dataset.items, lls)]


def roc_auc(scores: list):
    """ROC curve and area for score-below-threshold anomaly detection.

    ``scores`` is a list of (score, label) pairs with labels "normal" or
    "anomalous". The curve sweeps a threshold over the unique score values,
    classifying scores at or below the threshold as anomalous; tied scores
    move as one step, so ties across classes produce diagonal segments and
    the trapezoidal area counts them at half weight. Both classes must be
    present. A score of -inf (a record with zero likelihood) ranks as the
    most anomalous; tied -inf scores move as one step like any other tie.
    NaN, +inf and a score that is not a real number (a bool is not one)
    raise. Returns (curve, auc) where curve is a list of (fpr, tpr) points
    from (0, 0) to (1, 1). One sort and two running counts give every
    point, so the cost is O(N log N).
    """
    values = np.array([score if type(score) is float else _real(score) for score, _ in scores],
                      dtype=np.float64)
    known = np.array([label in LABELS for _, label in scores], dtype=bool)
    bad = np.flatnonzero(~known | ~(np.isfinite(values) | (values == -np.inf)))
    if bad.size:  # the first bad item, its label before its score
        i = int(bad[0])
        score, label = scores[i]
        if not known[i]:
            raise ValueError(f"scores[{i}]: label must be 'normal' or 'anomalous', "
                             f"got {label!r}")
        raise ValueError(f"scores[{i}]: score must be finite or -inf, got {_shown(score)}")
    anom = np.array([label == ANOMALOUS for _, label in scores], dtype=bool)
    n_anom = int(anom.sum())
    n_norm = values.size - n_anom
    if n_anom == 0 or n_norm == 0:
        raise ValueError("roc_auc needs at least one normal and one anomalous score")
    order = np.argsort(values, kind="stable")
    ranked = values[order]
    flagged_anom = np.cumsum(anom[order])
    flagged_norm = np.arange(1, ranked.size + 1) - flagged_anom
    # the last position of each run of tied scores is one threshold
    ends = np.flatnonzero(np.append(ranked[1:] != ranked[:-1], True))
    fprs = np.concatenate([[0.0], flagged_norm[ends] / n_norm])
    tprs = np.concatenate([[0.0], flagged_anom[ends] / n_anom])
    curve = list(zip(fprs.tolist(), tprs.tolist()))
    auc = float(_trapezoid(tprs, fprs))
    return curve, auc


def _real(score) -> float:
    """score as a float, or nan, which roc_auc refuses, for a bool or a non-real."""
    if isinstance(score, bool) or not isinstance(score, numbers.Real):
        return np.nan
    try:
        return float(score)
    except OverflowError:  # an int beyond float range is not finite
        return np.nan


def relative_sparsity(model: SparseMixtureModel, threshold: float = 0.0) -> float:
    """Fraction of mixing coefficients at or below the threshold.

    The default counts exact zeros, which only the score-parameterized
    training mode produces; for closed-form-trained models pass a small
    threshold (e.g. 1e-6) and report it as the thresholded variant.
    """
    threshold = check_real(threshold, "threshold")
    return float(np.count_nonzero(model.alpha <= threshold) / model.alpha.size)


def cluster_assignments(model: SparseMixtureModel) -> np.ndarray:
    """Dominant component per node, 1-based; ties resolve to the lowest index."""
    return np.argmax(model.alpha, axis=1) + 1
