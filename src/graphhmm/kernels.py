"""Log-space recursions for Gaussian-emission HMMs, batched over pairs.

The forward/backward recursions are sequential in the sequence length and
dominate training time. Each step works on a whole block of (sequence,
component) pairs that share one length: ``forward_pairs`` and
``backward_pairs`` take a leading pair axis, so a block of B pairs costs one
vectorized step per timestep instead of B. ``transition_counts`` sums the
pairwise posteriors over time per pair, in time chunks, without ever
building the (B, T, S, S) array. ``forward``, ``backward`` and
``transition_posteriors`` are the single-pair (T, S) views of the same
recursions.

Conventions: a sequence of length T has hidden states at t = 0..T, and the
state at t = 0 emits nothing. ``log_obs`` therefore has T rows (row t - 1
holds the emission log-densities for time t) while the forward and backward
tables have T + 1 rows. Impossible events are exact ``-inf``, never a tiny
epsilon, so structural zeros survive roundtrips.
"""

import numpy as np

_LOWEST = np.finfo(np.float64).min
# Cells of one time chunk when a per-timestep expectation is summed over time.
CHUNK_CELLS = 32768

# There is no compiled kernel path; perfbench/run.py reports this flag in its environment block.
NUMBA_ENABLED = False


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """Stable log-sum-exp that returns -inf (not nan) where all inputs are -inf."""
    a = np.asarray(a, dtype=np.float64)
    # An all -inf slice gets the most negative finite shift instead of -inf:
    # its terms then exp to exactly 0 and log(0) + shift is -inf, not nan.
    # Every finite maximum is its own shift.
    shift = np.maximum(a.max(axis=axis, keepdims=True), _LOWEST)
    with np.errstate(divide="ignore"):
        total = np.log(np.exp(a - shift).sum(axis=axis))
    return total + shift.reshape(total.shape)


def forward_pairs(log_pi, log_a, log_obs):
    """Forward tables log p(x_1..x_t, state_t = s) per pair, shape (B, T + 1, S).

    log_pi is (B, S), log_a (B, S, S) and log_obs (B, T, S). The result is a
    view of a time-major (T + 1, B, S) array.
    """
    b_count, t_len, s_count = log_obs.shape
    # a_from[s, b, u] = log_a[b, s, u]: each step reduces over the leading
    # axis, which numpy does as whole-array operations however small S is
    a_from = np.ascontiguousarray(log_a.transpose(1, 0, 2))
    obs = np.ascontiguousarray(log_obs.transpose(1, 0, 2))
    la = np.empty((t_len + 1, b_count, s_count))
    la[0] = log_pi
    for t in range(1, t_len + 1):
        la[t] = logsumexp(la[t - 1].T[:, :, None] + a_from, axis=0) + obs[t - 1]
    return la.transpose(1, 0, 2)


def backward_pairs(log_a, log_obs):
    """Backward tables log p(x_{t+1}..x_T | state_t = s) per pair, shape (B, T + 1, S).

    The result is a view of a time-major (T + 1, B, S) array.
    """
    b_count, t_len, s_count = log_obs.shape
    a_to = np.ascontiguousarray(log_a.transpose(2, 0, 1))  # a_to[u, b, s] = log_a[b, s, u]
    obs = np.ascontiguousarray(log_obs.transpose(1, 0, 2))
    lb = np.empty((t_len + 1, b_count, s_count))
    lb[t_len] = 0.0
    for t in range(t_len - 1, -1, -1):
        lb[t] = logsumexp((obs[t] + lb[t + 1]).T[:, :, None] + a_to, axis=0)
    return lb.transpose(1, 0, 2)


def _xi_chunk(la, lb, log_a, obs, log_like, start, stop):
    """xi[t - 1, b, s, u] for t - 1 = start..stop - 1, shape (stop - start, B, S, S).

    la and lb are time-major (T + 1, B, S) tables and obs is (T, B, S).
    """
    joint = (la[start:stop, :, :, None] + log_a[None]
             + (obs[start:stop] + lb[start + 1:stop + 1])[:, :, None, :]
             - log_like[None, :, None, None])
    return np.exp(joint)


def transition_counts(log_alpha, log_beta, log_a, log_obs, log_like):
    """Expected transition counts sum_t xi[b, t - 1] per pair, shape (B, S, S).

    log_alpha and log_beta are (B, T + 1, S), log_like is (B,) and must be
    finite. The pairwise posteriors are summed over time chunks of about
    CHUNK_CELLS cells, so no (B, T, S, S) array is built.
    """
    b_count, t_len, s_count = log_obs.shape
    la, lb = log_alpha.transpose(1, 0, 2), log_beta.transpose(1, 0, 2)
    obs = log_obs.transpose(1, 0, 2)
    chunk = max(1, CHUNK_CELLS // (b_count * s_count * s_count))
    counts = np.zeros((b_count, s_count, s_count))
    for start in range(0, t_len, chunk):
        stop = min(start + chunk, t_len)
        counts += _xi_chunk(la, lb, log_a, obs, log_like, start, stop).sum(axis=0)
    return counts


def forward(log_pi, log_a, log_obs):
    """Forward table of one sequence, shape (T + 1, S); see forward_pairs."""
    return forward_pairs(log_pi[None], log_a[None], log_obs[None])[0]


def backward(log_a, log_obs):
    """Backward table of one sequence, shape (T + 1, S); see backward_pairs."""
    return backward_pairs(log_a[None], log_obs[None])[0]


def transition_posteriors(log_alpha, log_beta, log_a, log_obs, log_like):
    """Pairwise posteriors xi[t - 1, s, u] for t = 1..T of one sequence, shape (T, S, S)."""
    return _xi_chunk(log_alpha[:, None], log_beta[:, None], log_a[None], log_obs[:, None],
                     np.array([log_like]), 0, log_obs.shape[0])[:, 0]
