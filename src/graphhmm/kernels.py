"""Log-space recursions for Gaussian-emission HMMs, batched over pairs.

The forward/backward recursions are sequential in the sequence length and
dominate training time. Each step works on a whole block of (sequence,
component) pairs that share one length: ``forward_pairs`` and
``backward_pairs`` take a leading pair axis, so a block of B pairs costs one
vectorized step per timestep instead of B. ``forward``, ``backward`` and
``transition_posteriors`` are the single-pair (T, S) views of the same
recursions.

Step forms. ``forward_pairs`` always steps in log form: a logsumexp over
B * S * S cells. ``backward_pairs`` picks one of two forms per block with
the cost model in ``backward_uses_matmul``: the same log form, or a matmul
form that shifts each row by its maximum, exps only B * S cells and lets
BLAS do the S * S products. Where the matmul form's sum comes out zero or
subnormal (rows spanning more than ~700 nats, as in left-right chains),
those entries are redone in log form, so both forms leave the same exact
``-inf`` pattern.

End rows. Scoring and forecasting read only the last forward row of each
pair, which ``forward_ends`` returns. Its tree form writes that row as a
product of T step matrices, exp(log_pi) M_1 ... M_T with M_t = A
diag(b(x_t)), each rescaled by its largest entry, and multiplies
neighbouring factors pairwise, so the T sequential log-form steps become
ceil(log2 T) levels of one stacked matmul each (the associative scan of
Sarkka and Garcia-Fernandez, "Temporal parallelization of Bayesian
smoothers", 2021, reduced to its last element). It does B * T matrix
products of S**3 multiply-adds, so the cost model in ``forward_uses_tree``
gives it the blocks where per-step overhead dominates: few pairs at small
S, such as a forecast prefix under its live components. Blocks of many
narrow pairs, such as the scoring blocks of 100-455 pairs at S = 3, and
wide single sequences (S >= 64) keep the log form, and a block whose
(B, T, S, S) stack would exceed TREE_CELLS never takes the tree form. The
guard: if an entry of a step matrix, or of a product before it is
rescaled, falls below TREE_FLOOR, the whole block takes the log form.
Every product entry is then a sum of positive terms of at least
TREE_FLOOR = 2**-900, where a term lost to underflow (below 2**-1022) moves
it by less than S * 2**-122 relative, and each pair's end row is finite
exactly where the log form's is. Structural zeros (left-right chains, a
zero-likelihood observation) and components whose states lie hundreds of
nats apart on the data fail the guard, so their exact ``-inf`` pattern is
always the log form's.

``transition_counts`` sums the pairwise posteriors over time per pair as
one batched matmul per time chunk, with O(B * T * S) exps, and never builds
the (B, T, S, S) array; a chunk whose factors leave the safe range is
summed from the pairwise posteriors in log form instead.

Conventions: a sequence of length T has hidden states at t = 0..T, and the
state at t = 0 emits nothing. ``log_obs`` therefore has T rows (row t - 1
holds the emission log-densities for time t) while the forward and backward
tables have T + 1 rows. Impossible events are exact ``-inf``, never a tiny
epsilon, so structural zeros survive roundtrips.
"""

import numpy as np

_LOWEST = np.finfo(np.float64).min
_TINY = np.finfo(np.float64).tiny
# Cells of one time chunk when a per-timestep expectation is summed over
# time: (pair, t, state) cells of the transition-count factors, and
# (pair, t, state, dim) cells of the variance sums in training.
CHUNK_CELLS = 32768
# backward_uses_matmul's cost model in log-form cells, measured on a 2-core
# x86-64 host (numpy 2.4, OpenBLAS on one thread): about 5 ns a cell.
LOG_STEP_CELLS = 400
MATMUL_PAIR_CELLS = 40
# forward_uses_tree's cost model in the same cells, measured on the same kind
# of host, where a cell took 6-10 ns: one sequential numpy step, a log-form
# timestep or a tree level, costs about 20 us, and BLAS does about 16
# multiply-adds in the time of one cell.
FORWARD_STEP_CELLS = 2500
MATMUL_CELL_FLOPS = 16
# forward_ends' tree form: the largest (B, T, S, S) stack of step matrices
# it builds (1 MiB of float64), and the exactness floor of its entries.
TREE_CELLS = 2 ** 17
TREE_FLOOR = 2.0 ** -900
# Largest Q factor transition_counts contracts. Below it, a term whose P
# factor underflowed (P < 2**-1022) is itself below 2**-958, too small to
# move a count.
_Q_LIMIT = 2.0 ** 64

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
    step = _log_step(log_a.swapaxes(1, 2))
    obs = np.ascontiguousarray(log_obs.transpose(1, 0, 2))
    la = np.empty((t_len + 1, b_count, s_count))
    la[0] = log_pi
    for t in range(1, t_len + 1):
        la[t] = step(la[t - 1]) + obs[t - 1]
    return la.transpose(1, 0, 2)


def forward_uses_tree(b_count: int, t_len: int, s_count: int) -> bool:
    """Whether forward_ends computes a block of B pairs, T steps and S states in tree form.

    The cost model counts log-form cells, as backward_uses_matmul does. The
    log form costs T steps of FORWARD_STEP_CELLS plus B * T * S * S cells.
    The tree form takes ceil(log2 T) levels plus one step of set-up, and
    per step matrix the same S * S cells of exps, one matrix in numpy's
    stacked matmul (MATMUL_PAIR_CELLS) and S**3 multiply-adds at
    MATMUL_CELL_FLOPS a cell. A stack of more than TREE_CELLS cells is
    refused outright. So a forecast prefix (2 pairs, T = 30, S = 3 or 16)
    and a few long sequences take the tree form, while the scoring blocks
    of 100-455 pairs at S = 3 and one sequence at S >= 64 keep the log form.
    """
    cells = b_count * t_len * s_count * s_count
    if cells > TREE_CELLS:
        return False
    log_cost = t_len * FORWARD_STEP_CELLS + cells
    tree_cost = ((t_len - 1).bit_length() + 1) * FORWARD_STEP_CELLS + cells \
        + b_count * t_len * (MATMUL_PAIR_CELLS + s_count ** 3 / MATMUL_CELL_FLOPS)
    return tree_cost < log_cost


def _tree_ends(log_pi, log_a, log_obs):
    """End rows log(exp(log_pi - c) M_1 ... M_T) + c + sum of the scales, or None.

    M_t = exp(log_a + log_obs[:, t - 1, None, :] - c_t) with c_t the largest
    entry of its logs. Neighbouring factors are multiplied pairwise, level
    by level, and each product is divided by its largest entry, whose log
    joins the pair's scale. None when an entry of a step matrix or of a
    product, before it is divided, is below TREE_FLOOR.
    """
    logs = log_a[:, None] + log_obs[:, :, None, :]  # (B, T, S, S)
    # an all -inf matrix gets a finite shift, so its exps are 0 and fail the floor
    shift = np.maximum(logs.max(axis=(2, 3)), _LOWEST)
    mats = np.exp(logs - shift[:, :, None, None])
    if mats.min() < TREE_FLOOR:
        return None
    scale = shift.sum(axis=1)
    while mats.shape[1] > 1:
        count = mats.shape[1]
        prod = np.matmul(mats[:, 0:count - 1:2], mats[:, 1:count:2])
        if count % 2:
            prod[:, -1] = np.matmul(prod[:, -1], mats[:, -1])
        if prod.min() < TREE_FLOOR:
            return None
        top = prod.max(axis=(2, 3), keepdims=True)
        mats = prod / top
        scale += np.log(top).sum(axis=(1, 2, 3))
    pi_shift = np.maximum(log_pi.max(axis=1, keepdims=True), _LOWEST)
    row = np.matmul(np.exp(log_pi - pi_shift)[:, None], mats[:, 0])[:, 0]
    with np.errstate(divide="ignore"):  # an all -inf log_pi gives -inf, as in log form
        return np.log(row) + (scale[:, None] + pi_shift)


def forward_ends(log_pi, log_a, log_obs):
    """Last forward rows log p(x_1..x_T, state_T = s) per pair, shape (B, S).

    Takes the same arguments as forward_pairs. The tree form runs where
    forward_uses_tree picks it and its TREE_FLOOR guard holds; otherwise
    the result is forward_pairs' last row.
    """
    if forward_uses_tree(*log_obs.shape):
        end = _tree_ends(log_pi, log_a, log_obs)
        if end is not None:
            return end
    return forward_pairs(log_pi, log_a, log_obs)[:, -1].copy()  # frees the tables


def backward_uses_matmul(b_count: int, s_count: int) -> bool:
    """Whether backward_pairs steps a block of B pairs and S states in the matmul form.

    The per-step cost model counts log-form cells, one add and one exp in
    logsumexp each. The log form costs B * S * S cells plus LOG_STEP_CELLS,
    its larger fixed overhead per step. The matmul form costs
    MATMUL_PAIR_CELLS per pair, the per-matrix overhead of numpy's stacked
    matmul; its B * S exps and the BLAS multiply-adds are small beside that.
    So blocks of many narrow pairs keep the log form: fit-graph's S = 3
    blocks of 100-455 pairs do, fit-long's 12 pairs at S = 16 do not.
    """
    return LOG_STEP_CELLS + b_count * s_count * s_count > MATMUL_PAIR_CELLS * b_count


def _log_step(log_a):
    """Log-form step w -> logsumexp_u(w[b, u] + log_a[b, s, u]), each (B, S).

    With w = obs[t] + lb[t + 1] it is the backward step; given the swapped
    log_a[b, u, s] it is the forward step. Each step reduces over the leading
    axis of a_to, which numpy does as whole-array operations however small S is.
    """
    a_to = np.ascontiguousarray(log_a.transpose(2, 0, 1))  # a_to[u, b, s] = log_a[b, s, u]
    return lambda w: logsumexp(w.T[:, :, None] + a_to, axis=0)


def _matmul_step(log_a):
    """Backward step lb[t] = log(A @ exp(w - m)) + m, m the row maximum of w.

    Where a sum comes out zero or subnormal, the shifted exps lost the
    terms that carry it, so those entries are redone in log form, which
    also leaves exact -inf where the log form has it.
    """
    a = np.exp(log_a)

    def step(w):
        shift = np.maximum(w.max(axis=1, keepdims=True), _LOWEST)
        total = np.matmul(a, np.exp(w - shift)[:, :, None])[:, :, 0]
        out = np.log(total) + shift
        if total.min() < _TINY:
            b, s = np.nonzero(total < _TINY)
            out[b, s] = logsumexp(w[b] + log_a[b, s], axis=1)
        return out
    return step


def backward_pairs(log_a, log_obs):
    """Backward tables log p(x_{t+1}..x_T | state_t = s) per pair, shape (B, T + 1, S).

    The step form is chosen once per block by backward_uses_matmul. The
    result is a view of a time-major (T + 1, B, S) array.
    """
    b_count, t_len, s_count = log_obs.shape
    step = (_matmul_step if backward_uses_matmul(b_count, s_count) else _log_step)(log_a)
    obs = np.ascontiguousarray(log_obs.transpose(1, 0, 2))
    lb = np.empty((t_len + 1, b_count, s_count))
    lb[t_len] = 0.0
    with np.errstate(divide="ignore"):
        for t in range(t_len - 1, -1, -1):
            lb[t] = step(obs[t] + lb[t + 1])
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
    finite. Per pair and t, xi[t - 1, s, u] = P[s] * A[s, u] * Q[u] with
    P = exp(log_alpha[t - 1] - m), Q = exp(log_obs[t - 1] + log_beta[t] + m
    - log_like) and m the maximum of log_alpha[t - 1], so a time chunk sums
    to one batched matmul P^T Q with O(B * T * S) exps. Chunks hold about
    CHUNK_CELLS (pair, t, state) cells. A chunk whose Q exceeds _Q_LIMIT,
    where P could underflow on terms that count, is summed from the pairwise
    posteriors in log form instead.
    """
    b_count, t_len, s_count = log_obs.shape
    la, lb = log_alpha.transpose(1, 0, 2), log_beta.transpose(1, 0, 2)
    obs = log_obs.transpose(1, 0, 2)
    a = np.exp(log_a)
    chunk = max(1, CHUNK_CELLS // (b_count * s_count))
    xi_chunk = max(1, CHUNK_CELLS // (b_count * s_count * s_count))
    counts = np.zeros((b_count, s_count, s_count))
    for start in range(0, t_len, chunk):
        stop = min(start + chunk, t_len)
        shift = np.maximum(la[start:stop].max(axis=2, keepdims=True), _LOWEST)
        p = np.exp(la[start:stop] - shift)
        with np.errstate(over="ignore"):  # an overflow fails the test below
            q = np.exp(obs[start:stop] + lb[start + 1:stop + 1] + (shift - log_like[:, None]))
        if q.max() <= _Q_LIMIT:
            counts += a * np.matmul(p.transpose(1, 2, 0), q.transpose(1, 0, 2))
            continue
        for sub in range(start, stop, xi_chunk):
            counts += _xi_chunk(la, lb, log_a, obs, log_like, sub,
                                min(sub + xi_chunk, stop)).sum(axis=0)
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
