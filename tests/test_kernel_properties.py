"""Property checks of the recursion kernels against path enumeration.

The kernels run on random blocks of one to three pairs with S <= 3: zero
entries in ``initial``, an unreachable state, left-right chains, structural
zeros of the transitions and a pair at zero likelihood; the forward checks
add a far-off pair whose states lie 1000 nats apart on the data.

``backward_pairs`` and ``transition_counts`` (T <= 4) run under both
backward step forms and at the default and a tiny time chunk. The backward
tables, their exact -inf pattern and the expected transition counts must
match an oracle that enumerates every hidden path, and also the log-form
reference: the log-form backward step and the summed pairwise posteriors of
``_xi_chunk``.

``forward_pairs`` and ``forward_ends`` (T <= 6, odd and even) run with the
end-row form forced to the log or the tree form, and under the cost model at
a tiny TREE_CELLS budget. The forward tables and end rows must match path
enumeration, and the end rows the log form's last row with its exact -inf
pattern. One sequence of T = 10**4 is checked against the forward recursion
in mpmath, where nothing underflows.
"""

import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphhmm import kernels

SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)
KINDS = ("dense", "zero_initial", "unreachable", "left_right", "zero_transitions",
         "zero_likelihood")
ATOL = 1e-12  # against the log-form reference
ORACLE_ATOL = 1e-10  # against path enumeration, as in tests/test_hmm.py


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def make_block(kind, s_count, t_len, b_count, seed, scale):
    """log_pi (B, S), log_a (B, S, S) and log_obs (B, T, S) of one kind of block."""
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(s_count), size=b_count)
    a = rng.dirichlet(np.ones(s_count), size=(b_count, s_count))
    log_obs = rng.normal(0.0, scale, size=(b_count, t_len, s_count))
    if kind == "zero_initial":
        pi[:, 0] = 0.0 if s_count > 1 else 1.0
    elif kind == "unreachable" and s_count > 1:  # the last state is never entered
        pi[:, -1] = 0.0
        a[:, :, -1] = 0.0
    elif kind == "left_right":  # start in state 0, then stay or move one state up
        pi[:] = np.eye(s_count)[0]
        a = np.triu(a) - np.triu(a, 2)
    elif kind == "zero_transitions":
        zero = rng.random(a.shape) < 0.5
        np.put_along_axis(zero, rng.integers(s_count, size=(b_count, s_count, 1)), False, -1)
        a[zero] = 0.0
    elif kind == "zero_likelihood":  # no state can emit one observation of pair 0
        log_obs[0, rng.integers(t_len)] = -np.inf
    elif kind == "far_off":  # pair 0's states lie 1000 nats apart on the data
        log_obs[0] -= 1000.0 * np.arange(1, s_count + 1)
    pi /= pi.sum(axis=-1, keepdims=True)
    a /= a.sum(axis=-1, keepdims=True)
    return _log(pi), _log(a), log_obs


def _logsumexp(terms):
    top = max(terms)
    if top == -math.inf:
        return -math.inf
    return top + math.log(math.fsum(math.exp(x - top) for x in terms))


def enumerate_pair(log_pi, log_a, log_obs):
    """Backward table, log-likelihood and transition counts of one pair over every path."""
    t_len, s_count = log_obs.shape

    def moves(path, t0):
        """Log weight of moving along path from its first state at time t0."""
        return sum(log_a[path[i], path[i + 1]] + log_obs[t0 + i, path[i + 1]]
                   for i in range(len(path) - 1))

    lb = np.array([[_logsumexp([moves((s,) + rest, t)
                                for rest in itertools.product(range(s_count), repeat=t_len - t)])
                    for s in range(s_count)] for t in range(t_len + 1)])
    paths = list(itertools.product(range(s_count), repeat=t_len + 1))
    log_p = [log_pi[path[0]] + moves(path, 0) for path in paths]
    ll = _logsumexp(log_p)
    counts = np.zeros((s_count, s_count))
    if ll > -math.inf:
        for path, lp in zip(paths, log_p):
            for t in range(t_len):
                counts[path[t], path[t + 1]] += math.exp(lp - ll)
    return lb, ll, counts


def enumerate_forward(log_pi, log_a, log_obs):
    """Forward table of one pair, (T + 1, S), over every path prefix."""
    t_len, s_count = log_obs.shape
    table = np.empty((t_len + 1, s_count))
    prefixes = {(s,): log_pi[s] for s in range(s_count)}
    for t in range(t_len + 1):
        for s in range(s_count):
            table[t, s] = _logsumexp([lp for path, lp in prefixes.items() if path[-1] == s])
        if t < t_len:
            prefixes = {path + (u,): lp + log_a[path[-1], u] + log_obs[t, u]
                        for path, lp in prefixes.items() for u in range(s_count)}
    return table


def assert_same_table(got, expected, atol):
    np.testing.assert_array_equal(np.isneginf(got), np.isneginf(expected))
    finite = np.isfinite(expected)
    np.testing.assert_allclose(got[finite], expected[finite], rtol=0, atol=atol)


def run_kernels(log_pi, log_a, log_obs, matmul, chunk_cells):
    """Backward tables, log-likelihoods and transition counts as the E-step computes them."""
    with mock.patch.object(kernels, "backward_uses_matmul", lambda b, s: matmul), \
            mock.patch.object(kernels, "CHUNK_CELLS", chunk_cells):
        la = kernels.forward_pairs(log_pi, log_a, log_obs)
        lb = kernels.backward_pairs(log_a, log_obs)
        ll = kernels.logsumexp(la[:, -1], axis=1)
        # zero-likelihood pairs are normalized by log 1, as mixture._block_posteriors does
        safe_ll = np.where(ll == -np.inf, 0.0, ll)
        counts = kernels.transition_counts(la, lb, log_a, log_obs, safe_ll)
    return la, lb, safe_ll, counts


@pytest.mark.parametrize("chunk_cells", [kernels.CHUNK_CELLS, 9], ids=["chunk-default", "chunk-9"])
@pytest.mark.parametrize("matmul", [False, True], ids=["log-form", "matmul-form"])
@SETTINGS
@given(kind=st.sampled_from(KINDS), s_count=st.integers(1, 3), t_len=st.integers(1, 4),
       b_count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 30.0, 600.0]))
@example(kind="zero_initial", s_count=3, t_len=3, b_count=2, seed=0, scale=1.0)
@example(kind="unreachable", s_count=3, t_len=4, b_count=2, seed=1, scale=1.0)
@example(kind="left_right", s_count=3, t_len=4, b_count=3, seed=2, scale=600.0)
@example(kind="dense", s_count=1, t_len=3, b_count=2, seed=3, scale=1.0)
@example(kind="dense", s_count=3, t_len=1, b_count=2, seed=4, scale=1.0)
@example(kind="zero_likelihood", s_count=2, t_len=3, b_count=3, seed=5, scale=1.0)
@example(kind="zero_transitions", s_count=3, t_len=4, b_count=3, seed=6, scale=30.0)
def test_kernels_match_path_enumeration(matmul, chunk_cells, kind, s_count, t_len, b_count,
                                        seed, scale):
    log_pi, log_a, log_obs = make_block(kind, s_count, t_len, b_count, seed, scale)
    la, lb, safe_ll, counts = run_kernels(log_pi, log_a, log_obs, matmul, chunk_cells)
    assert not np.isnan(lb).any() and not np.isnan(counts).any()
    for b in range(b_count):
        expected_lb, expected_ll, expected_counts = enumerate_pair(log_pi[b], log_a[b], log_obs[b])
        assert_same_table(lb[b], expected_lb, ORACLE_ATOL)
        np.testing.assert_allclose(counts[b], expected_counts, rtol=0, atol=ORACLE_ATOL)
        # structural zeros stay exact zeros, and a zero-likelihood pair counts nothing
        assert np.all(counts[b][log_a[b] == -np.inf] == 0.0)
        if expected_ll == -math.inf:
            assert np.all(counts[b] == 0.0)

    with mock.patch.object(kernels, "backward_uses_matmul", lambda b, s: False):
        reference_lb = kernels.backward_pairs(log_a, log_obs)
    assert_same_table(lb, reference_lb, ATOL)
    reference_counts = kernels._xi_chunk(la.transpose(1, 0, 2), lb.transpose(1, 0, 2), log_a,
                                         log_obs.transpose(1, 0, 2), safe_ll, 0, t_len).sum(axis=0)
    np.testing.assert_allclose(counts, reference_counts, rtol=0, atol=ATOL)
    np.testing.assert_array_equal(counts == 0.0, reference_counts == 0.0)


@pytest.mark.parametrize("form", ["log", "tree", "budget-9"])
@SETTINGS
@given(kind=st.sampled_from(KINDS + ("far_off",)), s_count=st.integers(1, 3),
       t_len=st.integers(1, 6),
       b_count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 30.0, 600.0]))
@example(kind="dense", s_count=3, t_len=5, b_count=2, seed=7, scale=1.0)
@example(kind="dense", s_count=3, t_len=6, b_count=3, seed=8, scale=30.0)
@example(kind="dense", s_count=1, t_len=5, b_count=2, seed=9, scale=1.0)
@example(kind="dense", s_count=2, t_len=1, b_count=2, seed=10, scale=1.0)
@example(kind="zero_initial", s_count=3, t_len=4, b_count=2, seed=11, scale=1.0)
@example(kind="left_right", s_count=3, t_len=5, b_count=2, seed=12, scale=1.0)
@example(kind="zero_likelihood", s_count=2, t_len=4, b_count=2, seed=13, scale=1.0)
@example(kind="far_off", s_count=3, t_len=6, b_count=3, seed=14, scale=1.0)
def test_forward_matches_path_enumeration(form, kind, s_count, t_len, b_count, seed, scale):
    log_pi, log_a, log_obs = make_block(kind, s_count, t_len, b_count, seed, scale)
    if form == "budget-9":
        with mock.patch.object(kernels, "TREE_CELLS", 9):
            end = kernels.forward_ends(log_pi, log_a, log_obs)
    else:
        with mock.patch.object(kernels, "forward_uses_tree", lambda b, t, s: form == "tree"):
            end = kernels.forward_ends(log_pi, log_a, log_obs)
    if form == "tree" and kind == "dense" and scale == 1.0:
        # the case ran the tree form, not its log-form fallback
        assert kernels._tree_ends(log_pi, log_a, log_obs) is not None
    la = kernels.forward_pairs(log_pi, log_a, log_obs)
    assert end.shape == (b_count, s_count)
    assert not np.isnan(la).any() and not np.isnan(end).any()
    for b in range(b_count):
        expected = enumerate_forward(log_pi[b], log_a[b], log_obs[b])
        assert_same_table(la[b], expected, ORACLE_ATOL)
        assert_same_table(end[b], expected[-1], ORACLE_ATOL)
    assert_same_table(end, la[:, -1], ATOL)


def mpmath_end_row(log_pi, log_a, log_obs):
    """log of the last forward row, stepped in linear domain at 30 digits."""
    mpmath.mp.dps = 30
    a = [[mpmath.exp(x) for x in row] for row in log_a]
    alpha = [mpmath.exp(x) for x in log_pi]
    for obs in log_obs:
        emit = [mpmath.exp(x) for x in obs]
        alpha = [emit[u] * mpmath.fsum(alpha[s] * a[s][u] for s in range(len(alpha)))
                 for u in range(len(alpha))]
    return np.array([float(mpmath.log(x)) for x in alpha])


@pytest.mark.parametrize("tree", [False, True], ids=["log-form", "tree-form"])
def test_long_sequence_end_row_matches_mpmath(tree):
    # T = 10**4 at about -2.5 nats a step: the end row is far below the float range
    log_pi, log_a, log_obs = make_block("dense", 2, 10_000, 1, 15, 1.0)
    log_obs -= 2.5
    expected = mpmath_end_row(log_pi[0], log_a[0], log_obs[0])
    with mock.patch.object(kernels, "forward_uses_tree", lambda b, t, s: tree):
        end = kernels.forward_ends(log_pi, log_a, log_obs)[0]
    assert np.all(np.isfinite(end)) and end.max() < -20_000.0
    if tree:
        assert kernels._tree_ends(log_pi, log_a, log_obs) is not None
    # each of the log form's 10**4 steps rounds at eps times the running
    # value, which leaves it about 1e-13 off; the tree form stays within an ulp
    np.testing.assert_allclose(end, expected, rtol=1e-12, atol=0)
