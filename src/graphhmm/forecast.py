"""Conditioning a trained mixture on an observed prefix.

Given a prefix observed at a node, only two things change relative to the
prior model: the component weights become the posterior responsibilities of
the prefix, and each component's initial-state distribution becomes its
smoothed state posterior at the prefix's final timestep. Transition and
emission parameters are untouched, so the conditioned model is a one-node
mixture of the same dictionary. This module computes that conditioning with
the mixture's live-pair driver; a continuation's score is the conditioned
mixture's own likelihood, and sampling runs the HMM's ancestral sampler.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .hmm import GaussianHmm, _cdf, _chains, _draw, check_count, validate_sequence
from .mixture import SparseMixtureModel, _end_rows, _live_pairs, check_node, mixture_log_likelihood


@dataclass
class PosteriorModel:
    """A mixture conditioned on one prefix.

    components is the model's stack, shared. weights[m] = P(component m |
    prefix, node); conditional_initials[m] is that component's state
    distribution at the prefix end. Components with weight exactly zero carry
    a uniform placeholder row and are flagged in ``inert``; they are skipped
    by scoring and never sampled.
    """

    components: GaussianHmm
    weights: np.ndarray
    conditional_initials: np.ndarray
    inert: np.ndarray

    @property
    def dim(self) -> int:
        return self.components.dim


def condition(model: SparseMixtureModel, prefix: np.ndarray, node: int) -> PosteriorModel:
    """Compute the prefix posterior over components and end states.

    The last forward row of each live component gives both: the end state
    posterior is exp(log_alpha[T] - log_like), as the backward table is
    exactly zero at t = T. The weights are the live-pair driver's M-wide
    log-weight row, the initials read from its blocks. The node's live
    components form one kernels.forward_ends block, so a short prefix costs
    about ceil(log2 T) stacked matrix products, not T forward steps.
    """
    node = check_node(node, model.num_nodes)
    prefix = validate_sequence(prefix, model.dim)
    log_w, blocks = _live_pairs(model.components, model.alpha[node - 1:node], [prefix],
                                _end_rows)
    total = float(kernels.logsumexp(log_w[0]))
    if total == -np.inf:
        raise ValueError("prefix has zero likelihood under every component")
    weights = np.exp(log_w[0] - total)
    inert = weights == 0.0
    initials = np.full((model.num_components, model.num_states), 1.0 / model.num_states)
    for _, comp, (end, ll) in blocks:
        live = ~inert[comp]
        initials[comp[live]] = np.exp(end[live] - ll[live, None])
    return PosteriorModel(components=model.components, weights=weights,
                          conditional_initials=initials, inert=inert)


def predictive_log_likelihood(posterior: PosteriorModel, continuation: np.ndarray) -> float:
    """log p(continuation | prefix, node): the conditioned mixture's own likelihood.

    Its initial rows are the conditional initials and its one row the weights.
    """
    comps = posterior.components
    conditioned = GaussianHmm(posterior.conditional_initials, comps.transition, comps.means,
                              comps.variances)
    return mixture_log_likelihood(SparseMixtureModel(conditioned, posterior.weights[None]),
                                  continuation, 1)


def forecast_mean(model: SparseMixtureModel, prefix: np.ndarray, node: int,
                  horizon: int, num_samples: int, rng) -> np.ndarray:
    """Monte Carlo posterior-predictive mean, shape (horizon, D).

    Each sample draws a component from the posterior weights and an initial
    state from that component's conditioned initial distribution; all
    num_samples chains are then rolled forward together by the HMM sampler,
    and each step's emissions are averaged. A closed-form propagation of the
    state posterior would avoid the sampling noise; the sampled estimator is
    kept for now because it matches the evaluation protocol used downstream.
    """
    horizon = check_count(horizon, "horizon")
    num_samples = check_count(num_samples, "num_samples")
    post = condition(model, prefix, node)
    rng = np.random.default_rng(rng)
    z = _draw(_cdf(post.weights)[None, :], rng.random(num_samples))
    state = _draw(_cdf(post.conditional_initials)[z], rng.random(num_samples))
    emissions = _chains(post.components, z, state, horizon, rng)
    return np.add.reduce(emissions, axis=1) / num_samples
