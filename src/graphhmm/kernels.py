"""Recursions for Gaussian-emission HMMs, batched over pairs.

The forward/backward recursions are sequential in the sequence length and
dominate training time. The kernels take a leading axis of (sequence,
component) pairs that share one length, so a block of B pairs costs one
vectorized step per timestep instead of B. ``forward``, ``backward`` and
``transition_posteriors`` are the single-pair (T, S) log-form views that
``hmm.posteriors`` runs.

E-step. ``pair_posteriors`` runs the scaled forward-backward (Rabiner 1989,
"A tutorial on hidden Markov models", section V.A): with e_t = exp(log_obs_t
- m_t), m_t the row maximum, alpha_t = (alpha_{t-1} A) * e_t / c_t with c_t
the row's sum, beta_{t-1} = A (e_t * beta_t) / c_t, gamma = alpha * beta,
counts A * sum_t alpha_{t-1}^T (e_t * beta_t / c_t) and log p = sum_t (log
c_t + m_t) plus the initial row's shift, so every step is a stacked matmul.
Time runs in chunks of CHUNK_CELLS (pair, t, state) cells: e_t and beta are
held one chunk at a time, and gamma is written over alpha, so a block holds
two (T, B, S) tables, its input and alpha. A pair takes the log form
(``forward_pairs``, ``backward_pairs`` and ``_xi_chunk``) when it has zero
likelihood, a value of it overflows (only off alpha's support), or an entry
of its alpha that the log form has finite falls below TREE_FLOOR = 2**-900
before it is divided by c_t; the pairs of a block that fail run in log form
together, and a block where all fail runs in log form whole. Every entry of
a pair that passes is a sum of terms of at least TREE_FLOOR, where a term
lost to underflow moves it by less than S * 2**-122 relative, and alpha is
zero exactly where the log form is -inf: exact zeros of A and pi stay
exact.

End rows. Scoring and forecasting read only each pair's last forward row,
which ``forward_ends`` returns: from the log form, which keeps one row, or,
where the cost model ``forward_uses_tree`` picks it, as a log-depth product
of rescaled step matrices behind the same floor, taken in time chunks of at
most TREE_CELLS cells (``_tree_ends``; the associative scan of Sarkka and
Garcia-Fernandez, "Temporal parallelization of Bayesian smoothers", 2021,
reduced to its last element).

Conventions: a sequence of length T has hidden states at t = 0..T, and the
state at t = 0 emits nothing. ``log_obs`` therefore has T rows (row t - 1
holds the emission log-densities for time t) while the forward and backward
tables have T + 1 rows. Impossible events are exact ``-inf``, never a tiny
epsilon, so structural zeros survive roundtrips.
"""

import numpy as np

_LOWEST = np.finfo(np.float64).min
# Cells of one chunk of a per-timestep temporary: (pair, t, state) cells of
# the scaled E-step's emission and beta buffers, which also set the time
# chunk of its transition counts, (pair, t, state, state) cells of the log
# form's counts, (pair, t, state, dim) cells of the variance sums in
# training and (pair, t, state) cells of each per-feature temporary of one
# batched density call (mixture.pair_log_densities).
CHUNK_CELLS = 32768
# forward_uses_tree's cost model in log-form cells, measured on a 2-core
# x86-64 host (numpy 2.4, OpenBLAS on one thread), where a cell took 6-10 ns:
# one sequential numpy step, a log-form timestep or a tree level, costs about
# 20 us, one matrix of numpy's stacked matmul about 40 cells, and BLAS does
# about 16 multiply-adds in the time of one cell.
FORWARD_STEP_CELLS = 2500
MATMUL_MATRIX_CELLS = 40
MATMUL_CELL_FLOPS = 16
# forward_ends' tree form: the largest (B, T, S, S) stack of step matrices
# it builds (1 MiB of float64); a longer block is multiplied in time chunks.
# TREE_FLOOR is the exactness floor of its entries and of those of the
# scaled E-step.
TREE_CELLS = 2 ** 17
TREE_FLOOR = 2.0 ** -900

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
    la = np.empty((t_len + 1, b_count, s_count))
    la[0] = log_pi
    for t, row in enumerate(_forward_rows(log_pi, log_a, log_obs), 1):
        la[t] = row
    return la.transpose(1, 0, 2)


def _forward_rows(log_pi, log_a, log_obs):
    """The log-form forward rows t = 1..T, each (B, S), one at a time.

    Each row is a new array made from the one before it, so a caller that
    keeps only the last holds no table, and log_obs is read in place.
    """
    step = _log_step(log_a.swapaxes(1, 2))
    row = np.ascontiguousarray(log_pi, dtype=np.float64)
    for obs_t in log_obs.transpose(1, 0, 2):
        row = step(row) + obs_t
        yield row


def forward_uses_tree(b_count: int, t_len: int, s_count: int) -> bool:
    """Whether forward_ends computes a block of B pairs, T steps and S states in tree form.

    The cost model counts log-form cells, one add and one exp in logsumexp
    each. The log form costs T steps of FORWARD_STEP_CELLS plus B * T * S * S
    cells. The tree form takes ceil(log2 T) levels plus one step of set-up,
    and per step matrix the same S * S cells of exps, one matrix in numpy's
    stacked matmul (MATMUL_MATRIX_CELLS) and S**3 multiply-adds at
    MATMUL_CELL_FLOPS a cell. So forecast prefixes and long single
    sequences at small S take the tree form, while scoring blocks of
    100-455 pairs at S = 3 and one sequence at S >= 64 do not.
    """
    cells = b_count * t_len * s_count * s_count
    log_cost = t_len * FORWARD_STEP_CELLS + cells
    tree_cost = ((t_len - 1).bit_length() + 1) * FORWARD_STEP_CELLS + cells \
        + b_count * t_len * (MATMUL_MATRIX_CELLS + s_count ** 3 / MATMUL_CELL_FLOPS)
    return tree_cost < log_cost


def _tree_product(log_a, log_obs):
    """(M_1 ... M_T divided by its scale, log of the scale) per pair, or None.

    M_t = exp(log_a + log_obs[:, t - 1, None, :] - c_t) with c_t the largest
    entry of its logs. Neighbouring factors are multiplied pairwise, level
    by level, and each product is divided by its largest entry, whose log
    joins the pair's scale. None when an entry of a step matrix or of a
    product, before it is divided, is below TREE_FLOOR.
    """
    logs = log_a[:, None] + log_obs[:, :, None, :]  # (B, T, S, S)
    # an all -inf matrix gets a finite shift, so its exps are 0 and fail the floor
    shift = np.maximum(logs.max(axis=(2, 3)), _LOWEST)
    logs -= shift[:, :, None, None]
    mats = np.exp(logs, out=logs)
    if np.minimum.reduce(mats, axis=None) < TREE_FLOOR:
        return None
    scale = shift.sum(axis=1)
    # one loop pass per level of every forecast: the ufunc reductions skip
    # the min, max and sum wrappers around them
    while mats.shape[1] > 1:
        count = mats.shape[1]
        prod = np.matmul(mats[:, 0:count - 1:2], mats[:, 1:count:2])
        if count % 2:
            prod[:, -1] = np.matmul(prod[:, -1], mats[:, -1])
        if np.minimum.reduce(prod, axis=None) < TREE_FLOOR:
            return None
        top = np.maximum.reduce(prod, axis=(2, 3), keepdims=True)
        mats = prod / top
        scale += np.add.reduce(np.log(top), axis=(1, 2, 3))
    return mats[:, 0], scale


def _tree_ends(log_pi, log_a, log_obs):
    """End rows log(exp(log_pi - c) M_1 ... M_T) + c + sum of the scales, or None.

    The step matrices are multiplied by _tree_product in time chunks of at
    most TREE_CELLS (B, T, S, S) cells, so no larger stack is built however
    long the block. The initial row is carried across the chunks: after
    each it is divided by its largest entry, whose log joins the scale.
    None when _tree_product refuses a chunk or a carried entry, before it
    is divided, is below TREE_FLOOR, so that a term lost to underflow moves
    no entry by more than S * 2**-122 relative. A zero in log_a fails before
    any stack is built.
    """
    if log_a.min() == -np.inf:
        return None
    b_count, t_len, s_count = log_obs.shape
    chunk = max(1, TREE_CELLS // (b_count * s_count * s_count))
    pi_shift = np.maximum(log_pi.max(axis=1, keepdims=True), _LOWEST)
    row, scale = np.exp(log_pi - pi_shift)[:, None], 0.0  # (B, 1, S)
    for start in range(0, t_len, chunk):
        if start:
            if row.min() < TREE_FLOOR:
                return None
            top = row.max(axis=2, keepdims=True)
            row = row / top
            scale = scale + np.log(top[:, 0, 0])
        product = _tree_product(log_a, log_obs[:, start:start + chunk])
        if product is None:
            return None
        row = np.matmul(row, product[0])
        scale = scale + product[1]
    with np.errstate(divide="ignore"):  # an all -inf log_pi gives -inf, as in log form
        return np.log(row[:, 0]) + (scale[:, None] + pi_shift)


def forward_ends(log_pi, log_a, log_obs):
    """Last forward rows log p(x_1..x_T, state_T = s) per pair, shape (B, S).

    Takes the same arguments as forward_pairs. The tree form runs where
    forward_uses_tree picks it and its TREE_FLOOR guard holds; otherwise
    the last of forward_pairs' rows, stepped without a table.
    """
    if forward_uses_tree(*log_obs.shape):
        end = _tree_ends(log_pi, log_a, log_obs)
        if end is not None:
            return end
    end = np.array(log_pi, dtype=np.float64)
    for end in _forward_rows(log_pi, log_a, log_obs):
        pass
    return end


def _log_step(log_a):
    """Log-form step w -> logsumexp_u(w[b, u] + log_a[b, s, u]), each (B, S).

    With w = obs[t] + lb[t + 1] it is the backward step; given the swapped
    log_a[b, u, s] it is the forward step. Each step reduces over the leading
    axis of a_to, which numpy does as whole-array operations however small S is.
    """
    a_to = np.ascontiguousarray(log_a.transpose(2, 0, 1))  # a_to[u, b, s] = log_a[b, s, u]
    return lambda w: logsumexp(w.T[:, :, None] + a_to, axis=0)


def backward_pairs(log_a, log_obs):
    """Backward tables log p(x_{t+1}..x_T | state_t = s) per pair, shape (B, T + 1, S).

    Steps in log form. The result is a view of a time-major (T + 1, B, S) array.
    """
    b_count, t_len, s_count = log_obs.shape
    step = _log_step(log_a)
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


def pair_posteriors(log_pi, log_a, log_obs):
    """State posteriors, transition counts and log-likelihoods of a block of pairs.

    Takes the arguments of forward_pairs and returns gamma (B, T + 1, S), a
    view of a time-major array, the expected transition counts (B, S, S) and
    the log-likelihoods (B,); a pair at zero likelihood gets -inf and zeros.
    The pairs that fail the scaled form's guard run again in log form, as
    one sub-block whose results replace theirs; a block where every pair
    fails takes the log form whole.
    """
    out = _scaled_posteriors(log_pi, log_a, log_obs)
    if out is None:
        return _log_posteriors(log_pi, log_a, log_obs)
    gamma, counts, ll, failed = out
    if failed.any():
        gamma[failed], counts[failed], ll[failed] = _log_posteriors(
            log_pi[failed], log_a[failed], log_obs[failed])
    return gamma, counts, ll


def _scaled_posteriors(log_pi, log_a, log_obs):
    """pair_posteriors in scaled form plus the (B,) mask of pairs that fail its guard.

    None when every pair fails. The guard is checked pair by pair, and no
    step mixes pairs, so a failed pair's entries, whatever they hold, move
    no other pair's. Tables are time-major; scale holds c_t, c_0 the shifted
    initial row's sum. Time runs in chunks of C = CHUNK_CELLS // (B * S)
    steps. The emissions e_t of a chunk are exponentiated into one (C, B, S)
    buffer on the way forward and again on the way back, where the top
    chunk's are still in it. Beta lives in a (C + 1, B, S) buffer whose top
    row carries beta at the chunk's end down to the next. Both recursions
    step on the (B, S, 1) column views that zip hands out, so a step
    indexes no table; the forward sums use np.add.reduce, which np.sum
    wraps. In place, e becomes e_t * beta_t / c_t, and alpha becomes gamma
    chunk by chunk once the chunk's counts are taken (row T is alpha_T, as
    beta_T = 1). The counts of the chunks are added in ascending time, so
    only the input and alpha are (T, B, S) tables.
    """
    b_count, t_len, s_count = log_obs.shape
    obs = log_obs.transpose(1, 0, 2)
    shift = np.maximum(obs.max(axis=2, keepdims=True), _LOWEST)
    pi_shift = np.maximum(log_pi.max(axis=1, keepdims=True), _LOWEST)
    alpha = np.empty((t_len + 1, b_count, s_count))
    alpha[0] = np.exp(log_pi - pi_shift)
    failed = ((alpha[0] < TREE_FLOOR) & (log_pi > -np.inf)).any(axis=1)
    if failed.all():
        return None
    a = np.exp(log_a)
    a_to = np.ascontiguousarray(a.swapaxes(1, 2))  # a_to[b, u, s] = a[b, s, u]
    scale = np.empty((t_len + 1, b_count, 1))
    chunk = min(t_len, max(1, CHUNK_CELLS // (b_count * s_count)))
    starts = range(0, t_len, chunk)
    e, beta = np.empty((chunk, b_count, s_count)), np.empty((chunk + 1, b_count, s_count))
    alpha_col, e_col, beta_col = alpha[..., None], e[..., None], beta[..., None]

    def emissions(start, stop):  # e_t = exp(log_obs_t - m_t) for t - 1 = start..stop - 1
        here = e[:stop - start]
        np.subtract(obs[start:stop], shift[start:stop], out=here)
        np.exp(here, out=here)

    # a zero c_t, and what follows from it in a failed pair, fails the guard
    with np.errstate(divide="ignore", invalid="ignore"):
        np.add.reduce(alpha[0], axis=1, keepdims=True, out=scale[0])
        alpha[0] /= scale[0]
        for start in starts:
            stop = min(start + chunk, t_len)
            emissions(start, stop)
            for prev, col, e_t, c in zip(alpha_col[start:stop], alpha_col[start + 1:stop + 1],
                                         e_col, scale[start + 1:stop + 1, :, :, None]):
                np.matmul(a_to, prev, out=col)
                col *= e_t
                np.add.reduce(col, axis=1, keepdims=True, out=c)
                col /= c
            # below the floor before division, and reachable with a finite
            # density, so finite in log form
            low = alpha[start + 1:stop + 1] < TREE_FLOOR / scale[start + 1:stop + 1]
            if low.any():
                live = (alpha[start:stop] > 0.0).transpose(1, 0, 2).astype(np.float32)
                reach = np.matmul(live, (log_a > -np.inf).astype(np.float32)).transpose(1, 0, 2)
                failed |= (low & (reach > 0.0) & (obs[start:stop] > -np.inf)).any(axis=(0, 2))
        failed |= ~(scale > 0.0).all(axis=(0, 2))  # a pair at zero likelihood
    if failed.all():
        return None
    parts = []
    # overflows off alpha's support, and a failed pair's zero c_t, are caught below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for start in reversed(starts):
            stop = min(start + chunk, t_len)
            n = stop - start
            if stop == t_len:
                beta[n] = 1.0
            else:
                emissions(start, stop)
                beta[n] = beta[0]
            e[:n] /= scale[start + 1:stop + 1]
            for col, ahead, here in zip(e_col[n - 1::-1], beta_col[n:0:-1], beta_col[n - 1::-1]):
                col *= ahead  # t runs from stop down to start + 1: e_t, beta_t and beta_{t-1}
                np.matmul(a, col, out=here)
            parts.append(np.matmul(alpha[start:stop].transpose(1, 2, 0), e[:n].transpose(1, 0, 2)))
            alpha[start:stop] *= beta[:n]
        counts = np.zeros((b_count, s_count, s_count))
        for part in reversed(parts):
            counts += part
        counts *= a
        failed |= ~(np.isfinite(counts).all(axis=(1, 2)) & np.isfinite(beta[0]).all(axis=1))
        ll = np.log(scale[:, :, 0]).sum(axis=0) + shift[:, :, 0].sum(axis=0) + pi_shift[:, 0]
    return None if failed.all() else (alpha.transpose(1, 0, 2), counts, ll, failed)


def _log_posteriors(log_pi, log_a, log_obs):
    """pair_posteriors in log form, with the counts summed from _xi_chunk."""
    b_count, t_len, s_count = log_obs.shape
    la = forward_pairs(log_pi, log_a, log_obs).transpose(1, 0, 2)
    lb = backward_pairs(log_a, log_obs).transpose(1, 0, 2)
    ll = logsumexp(la[-1], axis=1)
    # at zero likelihood la + lb is -inf (or too small for exp) at every
    # cell, so normalizing by log 1 instead of log 0 leaves exact zeros, not nan
    safe_ll = np.where(ll == -np.inf, 0.0, ll)
    chunk = max(1, CHUNK_CELLS // (b_count * s_count * s_count))
    counts = sum(_xi_chunk(la, lb, log_a, log_obs.transpose(1, 0, 2), safe_ll, start,
                           min(start + chunk, t_len)).sum(axis=0)
                 for start in range(0, t_len, chunk))
    return np.exp(la + lb - safe_ll[:, None]).transpose(1, 0, 2), counts, ll


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
