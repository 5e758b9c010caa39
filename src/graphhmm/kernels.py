"""Log-space recursions for Gaussian-emission HMMs.

The forward/backward/transition-posterior recursions are sequential in the
sequence length and dominate training time. Each is one vectorized numpy
function that steps over time and works on all states at once.

Conventions: a sequence of length T has hidden states at t = 0..T, and the
state at t = 0 emits nothing. ``log_obs`` therefore has T rows (row t - 1
holds the emission log-densities for time t) while the forward and backward
tables have T + 1 rows. Impossible events are exact ``-inf``, never a tiny
epsilon, so structural zeros survive roundtrips.
"""

import numpy as np

_NEG_INF = -np.inf

# There is no compiled kernel path; perfbench/run.py reports this flag in its environment block.
NUMBA_ENABLED = False


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-sum-exp that returns -inf (not nan) where all inputs are -inf."""
    a = np.asarray(a, dtype=np.float64)
    mx = np.max(a, axis=axis)
    ok = mx > _NEG_INF
    shift = np.where(ok, mx, 0.0)
    s = np.sum(np.exp(a - np.expand_dims(shift, axis)), axis=axis)
    return np.where(ok, shift + np.log(np.where(ok, s, 1.0)), _NEG_INF)


def forward(log_pi, log_a, log_obs):
    """Forward table log p(x_1..x_t, state_t = s), shape (T + 1, S)."""
    T, S = log_obs.shape
    la = np.empty((T + 1, S))
    la[0] = log_pi
    for t in range(1, T + 1):
        la[t] = logsumexp(la[t - 1][:, None] + log_a, axis=0) + log_obs[t - 1]
    return la


def backward(log_a, log_obs):
    """Backward table log p(x_{t+1}..x_T | state_t = s), shape (T + 1, S)."""
    T, S = log_obs.shape
    lb = np.empty((T + 1, S))
    lb[T] = 0.0
    for t in range(T - 1, -1, -1):
        lb[t] = logsumexp(log_a + (log_obs[t] + lb[t + 1])[None, :], axis=1)
    return lb


def transition_posteriors(log_alpha, log_beta, log_a, log_obs, log_like):
    """Pairwise posteriors xi[t - 1, s, u] for t = 1..T, shape (T, S, S)."""
    joint = (log_alpha[:-1, :, None] + log_a[None, :, :]
             + (log_obs + log_beta[1:])[:, None, :] - log_like)
    return np.exp(joint)
