"""Conditioning a trained mixture on an observed prefix.

Given a prefix observed at a node, only two things change relative to the
prior model: the component weights become the posterior responsibilities of
the prefix, and each component's initial-state distribution becomes its
smoothed state posterior at the prefix's final timestep. Transition and
emission parameters are untouched. A continuation is then scored or sampled
by treating the conditioned initial distribution exactly like the usual
non-emitting initial state.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .hmm import GaussianHmm, _cdf, _draw, log_params, validate_sequence
from .mixture import SparseMixtureModel, check_node, pair_log_densities


@dataclass
class PosteriorModel:
    """A mixture conditioned on one prefix.

    components is the model's stack, shared. weights[m] = P(component m |
    prefix, node); conditional_initials[m] is that component's state
    distribution at the prefix end. Components with
    weight exactly zero carry a uniform placeholder row and are flagged in
    ``inert``; they are skipped by scoring and never sampled.
    """

    components: GaussianHmm
    weights: np.ndarray
    conditional_initials: np.ndarray
    inert: np.ndarray

    @property
    def num_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.components.dim


def _end_forward(components: GaussianHmm, comps: np.ndarray, log_init: np.ndarray,
                 seq: np.ndarray) -> np.ndarray:
    """Last forward row (L, S) of seq under each of the components comps.

    log_init is the (L, S) log initial distribution of each component.
    """
    log_obs = pair_log_densities(components, [seq], np.zeros_like(comps), comps)
    return kernels.forward_pairs(log_init, log_params(components[comps])[1], log_obs)[:, -1]


def condition(model: SparseMixtureModel, prefix: np.ndarray, node: int) -> PosteriorModel:
    """Compute the prefix posterior over components and end states.

    One forward pass, batched over the live components, gives both: the end
    state posterior is exp(log_alpha[T] - log_like), as the backward table is
    exactly zero at t = T.
    """
    node = check_node(model, node)
    prefix = validate_sequence(prefix, model.dim)
    m_count = model.num_components
    s_count = model.num_states
    row = model.alpha[node - 1]
    comps = np.flatnonzero(row > 0.0)
    end = np.full((m_count, s_count), -np.inf)
    log_init = log_params(model.components[comps])[0]
    end[comps] = _end_forward(model.components, comps, log_init, prefix)
    comp_ll = kernels.logsumexp(end, axis=1)
    log_w = np.full(m_count, -np.inf)
    log_w[comps] = np.log(row[comps]) + comp_ll[comps]
    total = float(kernels.logsumexp(log_w))
    if total == -np.inf:
        raise ValueError("prefix has zero likelihood under every component")
    weights = np.exp(log_w - total)
    inert = weights == 0.0
    initials = np.full((m_count, s_count), 1.0 / s_count)
    initials[~inert] = np.exp(end[~inert] - comp_ll[~inert, None])
    return PosteriorModel(components=model.components, weights=weights,
                          conditional_initials=initials, inert=inert)


def predictive_log_likelihood(posterior: PosteriorModel, continuation: np.ndarray) -> float:
    """log p(continuation | prefix, node) under the conditioned mixture."""
    continuation = validate_sequence(continuation, posterior.dim)
    comps = np.flatnonzero(posterior.weights != 0.0)
    with np.errstate(divide="ignore"):
        log_init = np.log(posterior.conditional_initials[comps])
    end = _end_forward(posterior.components, comps, log_init, continuation)
    terms = np.log(posterior.weights[comps]) + kernels.logsumexp(end, axis=1)
    return float(kernels.logsumexp(terms))


def forecast_mean(model: SparseMixtureModel, prefix: np.ndarray, node: int,
                  horizon: int, num_samples: int, rng) -> np.ndarray:
    """Monte Carlo posterior-predictive mean, shape (horizon, D).

    Each sample draws a component from the posterior weights, an initial
    state from that component's conditioned initial distribution, and then
    rolls the component forward: per step a transition, then an emission.
    All num_samples trajectories are drawn as one batch, one array step per
    timestep. A closed-form propagation of the state posterior would avoid
    the sampling noise; the sampled estimator is kept for now because it
    matches the evaluation protocol used downstream.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if num_samples < 1:
        raise ValueError("num_samples must be >= 1")
    post = condition(model, prefix, node)
    rng = np.random.default_rng(rng)
    transition_cdf = _cdf(post.components.transition)
    means = post.components.means
    std = np.sqrt(post.components.variances)
    z = _draw(_cdf(post.weights)[None, :], rng.random(num_samples))
    state = _draw(_cdf(post.conditional_initials)[z], rng.random(num_samples))
    out = np.empty((horizon, post.dim))
    for t in range(horizon):
        state = _draw(transition_cdf[z, state], rng.random(num_samples))
        emitted = means[z, state] + std[z, state] * rng.standard_normal((num_samples, post.dim))
        out[t] = emitted.mean(axis=0)
    return out
