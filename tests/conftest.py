"""Shared fixtures and independent oracles.

The oracles deliberately avoid the package's inference code paths: they
enumerate hidden-state paths directly (scipy provides the Gaussian
log-density), so agreement with the fast implementations is meaningful.
"""

import itertools
import math

import numpy as np
from scipy.stats import norm

from graphhmm import kernels
from graphhmm.hmm import GaussianHmm


def random_hmm(rng, num_states, dim, sparse_transitions=False):
    initial = rng.dirichlet(np.ones(num_states))
    transition = rng.dirichlet(np.ones(num_states), size=num_states)
    if sparse_transitions and num_states > 1:
        s = rng.integers(num_states)
        u = rng.integers(num_states)
        transition[s, u] = 0.0
        transition[s] /= transition[s].sum()
    means = rng.normal(0.0, 2.0, size=(num_states, dim))
    variances = rng.uniform(0.2, 2.0, size=(num_states, dim))
    return GaussianHmm(initial, transition, means, variances)


def _path_log_prob(hmm, seq, path):
    lp = math.log(hmm.initial[path[0]]) if hmm.initial[path[0]] > 0 else -math.inf
    for t in range(1, len(path)):
        a = hmm.transition[path[t - 1], path[t]]
        if a <= 0:
            return -math.inf
        lp += math.log(a)
        lp += float(np.sum(norm.logpdf(seq[t - 1], loc=hmm.means[path[t]],
                                       scale=np.sqrt(hmm.variances[path[t]]))))
    return lp


def enum_log_likelihood(hmm, seq):
    """Brute force: log-sum over all S^(T+1) hidden paths."""
    seq = np.asarray(seq, dtype=np.float64)
    t_len = seq.shape[0]
    terms = [_path_log_prob(hmm, seq, path)
             for path in itertools.product(range(hmm.num_states), repeat=t_len + 1)]
    return float(kernels.logsumexp(np.array(terms)))


def enum_posteriors(hmm, seq):
    """Brute force gamma and xi by accumulating path posteriors."""
    seq = np.asarray(seq, dtype=np.float64)
    t_len = seq.shape[0]
    s_count = hmm.num_states
    paths = list(itertools.product(range(s_count), repeat=t_len + 1))
    log_probs = np.array([_path_log_prob(hmm, seq, path) for path in paths])
    total = float(kernels.logsumexp(log_probs))
    weights = np.exp(log_probs - total)
    gamma = np.zeros((t_len + 1, s_count))
    xi = np.zeros((t_len, s_count, s_count))
    for w, path in zip(weights, paths):
        if w == 0.0:
            continue
        for t, s in enumerate(path):
            gamma[t, s] += w
        for t in range(1, t_len + 1):
            xi[t - 1, path[t - 1], path[t]] += w
    return total, gamma, xi


def enum_mixture_log_likelihood(model, seq, node):
    """Mixture likelihood via the enumeration oracle per component."""
    row = model.alpha[node - 1]
    terms = [math.log(row[m]) + enum_log_likelihood(model.components[m], seq)
             for m in range(model.num_components) if row[m] > 0]
    return float(kernels.logsumexp(np.array(terms)))
