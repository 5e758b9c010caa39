"""Property checks of the recursion kernels against path enumeration.

The kernels run on random blocks of one to three pairs with S <= 3: zero
entries in ``initial``, an unreachable state, left-right chains, structural
zeros of the transitions and a pair at zero likelihood; the forward checks
add a far-off pair whose states lie 1000 nats apart on the data.

The E-step (T <= 4) runs in each of its forms: the scaled form under its
guard, and the log form, forced by raising the guard floor TREE_FLOOR to
inf. ``kernels.pair_posteriors`` runs at the default and a tiny time
chunk, and through the mixture's live-pair driver ``mixture._live_pairs``
on Gaussian components. The state
posteriors, the expected transition counts and the log-likelihoods must
match an oracle that enumerates every hidden path, with exact zeros where
no path passes, and also the log-form reference: ``backward_pairs``,
gamma = exp(la + lb - ll) and the summed pairwise posteriors of
``_xi_chunk``. The scaled form must give the bits of its plain loop, kept
here as a reference, and in a block with a far-off pair only that pair
may reach the log form.

``mixture_log_likelihoods`` and ``mixture_posteriors`` run on small
mixtures (T <= 3, mixed lengths) with a zero coefficient, a node without
data and live pairs at zero likelihood, at the default and tiny block,
density and chunk sizes, in the scaled and the log form. Their scores,
responsibilities and per-pair posteriors must match path enumeration pair
by pair.

``forward_pairs`` and ``forward_ends`` (T <= 6, odd and even) run with the
end-row form forced to the log or the tree form, and under the cost model at
a tiny TREE_CELLS budget. The forward tables and end rows must match path
enumeration, and the end rows the log form's last row with its exact -inf
pattern. Sequences of T = 10**4 are checked against the recursions in
mpmath, where nothing underflows.
"""

import itertools
import math
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphhmm import kernels, mixture
from graphhmm.hmm import GaussianHmm, gaussian_log_densities, log_params

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
    """Backward table, log-likelihood, transition counts, state posteriors and
    their support (the cells some path of nonzero probability passes) of one
    pair over every path."""
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
    gamma = np.zeros((t_len + 1, s_count))
    support = np.zeros((t_len + 1, s_count), dtype=bool)
    for path, lp in zip(paths, log_p):
        if lp == -math.inf:
            continue
        weight = math.exp(lp - ll)
        for t, s in enumerate(path):
            gamma[t, s] += weight
            support[t, s] = True
        for t in range(t_len):
            counts[path[t], path[t + 1]] += weight
    return lb, ll, counts, gamma, support


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


def every_pair_scaled(log_pi, log_a, log_obs):
    """Whether every pair of the block passes the scaled form's guard."""
    out = kernels._scaled_posteriors(log_pi, log_a, log_obs)
    return out is not None and not out[3].any()


def run_kernels(log_pi, log_a, log_obs, matmul, chunk_cells):
    """The backward tables, and the E-step in the scaled form (matmul) or the log form."""
    with mock.patch.object(kernels, "TREE_FLOOR", kernels.TREE_FLOOR if matmul else np.inf), \
            mock.patch.object(kernels, "CHUNK_CELLS", chunk_cells):
        gamma, counts, ll = kernels.pair_posteriors(log_pi, log_a, log_obs)
    return kernels.backward_pairs(log_a, log_obs), gamma, counts, ll


def assert_matches_enumeration(log_pi, log_a, log_obs, gamma, counts, ll):
    """Check one block's E-step against path enumeration, pair by pair."""
    assert not np.isnan(gamma).any() and not np.isnan(counts).any()
    for b in range(log_obs.shape[0]):
        _, expected_ll, expected_counts, expected_gamma, support = enumerate_pair(
            log_pi[b], log_a[b], log_obs[b])
        if expected_ll == -math.inf:
            assert ll[b] == -math.inf
        else:
            np.testing.assert_allclose(ll[b], expected_ll, rtol=1e-13, atol=ORACLE_ATOL)
        np.testing.assert_allclose(gamma[b], expected_gamma, rtol=0, atol=ORACLE_ATOL)
        np.testing.assert_allclose(counts[b], expected_counts, rtol=0, atol=ORACLE_ATOL)
        # no path passes: exact zeros, so a zero-likelihood pair has none at all
        assert np.all(gamma[b][~support] == 0.0)
        assert np.all(counts[b][log_a[b] == -np.inf] == 0.0)
        if expected_ll == -math.inf:
            assert np.all(counts[b] == 0.0)


BLOCK_EXAMPLES = [
    dict(kind="zero_initial", s_count=3, t_len=3, b_count=2, seed=0, scale=1.0),
    dict(kind="unreachable", s_count=3, t_len=4, b_count=2, seed=1, scale=1.0),
    dict(kind="left_right", s_count=3, t_len=4, b_count=3, seed=2, scale=600.0),
    dict(kind="dense", s_count=1, t_len=3, b_count=2, seed=3, scale=1.0),
    dict(kind="dense", s_count=3, t_len=1, b_count=2, seed=4, scale=1.0),
    dict(kind="zero_likelihood", s_count=2, t_len=3, b_count=3, seed=5, scale=1.0),
    dict(kind="zero_transitions", s_count=3, t_len=4, b_count=3, seed=6, scale=30.0),
]


def with_examples(test):
    for case in BLOCK_EXAMPLES:
        test = example(**case)(test)
    return test


@pytest.mark.parametrize("chunk_cells", [kernels.CHUNK_CELLS, 9], ids=["chunk-default", "chunk-9"])
@pytest.mark.parametrize("matmul", [False, True], ids=["log-form", "matmul-form"])
@SETTINGS
@given(kind=st.sampled_from(KINDS + ("far_off",)), s_count=st.integers(1, 3),
       t_len=st.integers(1, 4), b_count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 30.0, 600.0]))
@with_examples
def test_kernels_match_path_enumeration(matmul, chunk_cells, kind, s_count, t_len, b_count,
                                        seed, scale):
    log_pi, log_a, log_obs = make_block(kind, s_count, t_len, b_count, seed, scale)
    lb, gamma, counts, ll = run_kernels(log_pi, log_a, log_obs, matmul, chunk_cells)
    if matmul and kind not in ("zero_likelihood", "far_off") and scale == 1.0:
        # the case ran the scaled form, not its log-form fallback
        assert every_pair_scaled(log_pi, log_a, log_obs)
    assert not np.isnan(lb).any()
    for b in range(b_count):
        assert_same_table(lb[b], enumerate_pair(log_pi[b], log_a[b], log_obs[b])[0], ORACLE_ATOL)
    assert_matches_enumeration(log_pi, log_a, log_obs, gamma, counts, ll)

    la = kernels.forward_pairs(log_pi, log_a, log_obs).transpose(1, 0, 2)
    safe_ll = np.where(ll == -np.inf, 0.0, ll)
    reference_gamma = np.exp(la + lb.transpose(1, 0, 2) - safe_ll[:, None]).transpose(1, 0, 2)
    assert_same_table(gamma, reference_gamma, ATOL)
    reference_counts = kernels._xi_chunk(la, lb.transpose(1, 0, 2), log_a,
                                         log_obs.transpose(1, 0, 2), safe_ll, 0, t_len).sum(axis=0)
    np.testing.assert_allclose(counts, reference_counts, rtol=0, atol=ATOL)
    np.testing.assert_array_equal(counts == 0.0, reference_counts == 0.0)


def make_gaussian_block(kind, s_count, t_len, b_count, seed, scale):
    """Components (one per pair) and sequences of one kind of block, D = 1.

    Means and data spread by sqrt(2 * scale), so log-densities differ by
    about scale nats; a zero-likelihood pair has one observation so far off
    that every density is -inf, and a far-off pair states far apart.
    """
    log_pi, log_a, _ = make_block(kind if kind != "zero_likelihood" else "dense",
                                  s_count, t_len, b_count, seed, scale)
    rng = np.random.default_rng(seed + 1)
    spread = math.sqrt(2.0 * scale)
    means = rng.normal(0.0, spread, size=(b_count, s_count, 1))
    seqs = list(rng.normal(0.0, spread, size=(b_count, t_len, 1)))
    if kind == "zero_likelihood":
        seqs[0][rng.integers(t_len)] = 1e200
    elif kind == "far_off":  # pair 0's states lie more than 1000 nats apart on its data
        means[0, :, 0] = 45.0 * np.arange(s_count)
        seqs[0] = rng.normal(size=(t_len, 1))
    return GaussianHmm(np.exp(log_pi), np.exp(log_a), means, np.ones_like(means)), seqs


@pytest.mark.parametrize("form", ["scaled", "fallback"])
@SETTINGS
@given(kind=st.sampled_from(KINDS + ("far_off",)), s_count=st.integers(1, 3),
       t_len=st.integers(1, 4), b_count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 30.0, 600.0]))
@with_examples
def test_block_posteriors_match_path_enumeration(form, kind, s_count, t_len, b_count, seed,
                                                 scale):
    components, seqs = make_gaussian_block(kind, s_count, t_len, b_count, seed, scale)
    pairs = np.arange(b_count)
    floor = kernels.TREE_FLOOR if form == "scaled" else np.inf
    with mock.patch.object(kernels, "TREE_FLOOR", floor):  # pair b is seqs[b] under comp b
        log_w, blocks = mixture._live_pairs(components, np.eye(b_count), seqs,
                                            kernels.pair_posteriors)
    [(seq, comp, (gamma, transitions, ll))] = blocks
    np.testing.assert_array_equal(seq, pairs)
    np.testing.assert_array_equal(comp, pairs)
    np.testing.assert_array_equal(log_w, np.where(np.eye(b_count) > 0.0, ll, -np.inf))
    log_pi, log_a = log_params(components)
    log_obs = gaussian_log_densities(np.stack(seqs), components.means, components.variances)
    if form == "scaled" and kind not in ("zero_likelihood", "far_off") and scale == 1.0:
        assert every_pair_scaled(log_pi, log_a, log_obs)
    assert_matches_enumeration(log_pi, log_a, log_obs, gamma, transitions, ll)


def reference_scaled_posteriors(log_pi, log_a, log_obs):
    """The scaled E-step as one loop over t per recursion, guarded per block.

    The plain form: np.sum for c_t, the t = 0 row inside the forward loop
    and fresh views of the tables at every step, and None when any pair
    fails the guard. _scaled_posteriors must give the same bits.
    """
    b_count, t_len, s_count = log_obs.shape
    obs = log_obs.transpose(1, 0, 2)
    shift = np.maximum(obs.max(axis=2, keepdims=True), kernels._LOWEST)
    pi_shift = np.maximum(log_pi.max(axis=1, keepdims=True), kernels._LOWEST)
    e, a = np.exp(obs - shift), np.exp(log_a)
    a_to = np.ascontiguousarray(a.swapaxes(1, 2))
    alpha = np.empty((t_len + 1, b_count, s_count))
    scale = np.empty((t_len + 1, b_count, 1))
    alpha[0] = np.exp(log_pi - pi_shift)
    if np.any((alpha[0] < kernels.TREE_FLOOR) & (log_pi > -np.inf)):
        return None
    with np.errstate(divide="ignore", invalid="ignore"):
        for t in range(t_len + 1):
            row = alpha[t]
            if t:
                np.matmul(a_to, alpha[t - 1, :, :, None], out=row[:, :, None])
                row *= e[t - 1]
            np.sum(row, axis=1, keepdims=True, out=scale[t])
            row /= scale[t]
    if not np.all(scale > 0.0):
        return None
    low = alpha[1:] < kernels.TREE_FLOOR / scale[1:]
    if low.any():
        reach = np.matmul((alpha[:-1] > 0.0).transpose(1, 0, 2).astype(np.float32),
                          (log_a > -np.inf).astype(np.float32)).transpose(1, 0, 2)
        if np.any(low & (reach > 0.0) & (obs > -np.inf)):
            return None
    beta, counts = np.empty((t_len + 1, b_count, s_count)), np.zeros((b_count, s_count, s_count))
    beta[t_len] = 1.0
    e /= scale[1:]
    chunk = max(1, kernels.CHUNK_CELLS // (b_count * s_count))
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(t_len, 0, -1):
            e[t - 1] *= beta[t]
            np.matmul(a, e[t - 1, :, :, None], out=beta[t - 1, :, :, None])
        for start in range(0, t_len, chunk):
            stop = min(start + chunk, t_len)
            counts += np.matmul(alpha[start:stop].transpose(1, 2, 0),
                                e[start:stop].transpose(1, 0, 2))
        counts *= a
    if not (np.all(np.isfinite(counts)) and np.all(np.isfinite(beta[0]))):
        return None
    beta *= alpha
    ll = np.log(scale[:, :, 0]).sum(axis=0) + shift[:, :, 0].sum(axis=0) + pi_shift[:, 0]
    return beta.transpose(1, 0, 2), counts, ll


def assert_same_bits(got, expected):
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("chunk_cells", [kernels.CHUNK_CELLS, 9], ids=["chunk-default", "chunk-9"])
@SETTINGS
@given(kind=st.sampled_from(KINDS + ("far_off",)), s_count=st.integers(1, 5),
       t_len=st.integers(1, 8), b_count=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       scale=st.sampled_from([1.0, 30.0, 600.0]))
@example(kind="dense", s_count=1, t_len=1, b_count=1, seed=0, scale=1.0)
@example(kind="dense", s_count=4, t_len=1, b_count=1, seed=1, scale=1.0)
@example(kind="dense", s_count=1, t_len=5, b_count=3, seed=2, scale=30.0)
@example(kind="zero_initial", s_count=4, t_len=6, b_count=1, seed=3, scale=1.0)
@example(kind="zero_transitions", s_count=5, t_len=7, b_count=4, seed=4, scale=1.0)
@example(kind="left_right", s_count=3, t_len=8, b_count=2, seed=5, scale=1.0)
@example(kind="zero_likelihood", s_count=3, t_len=4, b_count=3, seed=6, scale=1.0)
@example(kind="far_off", s_count=3, t_len=4, b_count=3, seed=7, scale=1.0)
def test_scaled_posteriors_bit_identical_to_reference_loop(chunk_cells, kind, s_count, t_len,
                                                           b_count, seed, scale):
    """The column views, the hoisted t = 0 row, np.add.reduce and the per-pair
    guard change no bit: a block the reference passes gives its gamma, counts
    and log-likelihoods exactly, and one it refuses has a failed pair. The
    pairs that pass in a block with a failed pair give the reference's bits
    on those pairs alone."""
    log_pi, log_a, log_obs = make_block(kind, s_count, t_len, b_count, seed, scale)
    with mock.patch.object(kernels, "CHUNK_CELLS", chunk_cells):
        out = kernels._scaled_posteriors(log_pi, log_a, log_obs)
        expected = reference_scaled_posteriors(log_pi, log_a, log_obs)
        if expected is not None:
            assert out is not None and not out[3].any()
            for got, want in zip(out, expected):
                assert_same_bits(got, want)
            return
        if out is None:
            return
        passed = ~out[3]
        assert out[3].any()
        expected = reference_scaled_posteriors(log_pi[passed], log_a[passed], log_obs[passed])
    assert expected is not None
    assert_same_bits(out[0][passed], expected[0])
    assert_same_bits(out[2][passed], expected[2])
    # the counts are summed in time chunks of CHUNK_CELLS // (B * S) steps
    chunks = {min(t_len, max(1, chunk_cells // (b * s_count))) for b in (b_count, passed.sum())}
    if len(chunks) == 1:
        assert_same_bits(out[1][passed], expected[1])


def test_far_off_pair_alone_takes_the_log_form(monkeypatch):
    """One far-off pair in a 12-pair block: its states lie 100 nats apart
    per observation, so its forward entries drop below the floor. Only it
    reaches the log form, where it gets the bits of _log_posteriors on it
    alone; the other eleven keep their scaled results."""
    log_pi, log_a, log_obs = make_block("dense", 8, 3, 12, 16, 1.0)
    log_obs[0] -= 100.0 * np.arange(8)
    alone = kernels._log_posteriors(log_pi[:1], log_a[:1], log_obs[:1])
    calls = []
    log_posteriors = kernels._log_posteriors

    def spy(log_pi, log_a, log_obs):
        calls.append(log_obs.shape[0])
        return log_posteriors(log_pi, log_a, log_obs)
    monkeypatch.setattr(kernels, "_log_posteriors", spy)
    gamma, counts, ll = kernels.pair_posteriors(log_pi, log_a, log_obs)
    assert calls == [1]
    for got, want in zip((gamma[:1], counts[:1], ll[:1]), alone):
        assert_same_bits(got, want)
    assert every_pair_scaled(log_pi[1:], log_a[1:], log_obs[1:])
    assert_matches_enumeration(log_pi[1:], log_a[1:], log_obs[1:], gamma[1:], counts[1:], ll[1:])


FAR = 1e155  # (FAR - mean)**2 overflows, so FAR has zero density unless the mean is FAR


def make_mixture_case(s_count, m_count, lengths, seed):
    """A mixture over K = 4 nodes and a dataset with every case the driver meets.

    Records of the given lengths alternate between nodes 1 and 2; node 3
    holds one record at FAR and node 4 none. Component 0's states sit at
    FAR, the others' near 0, so the live pairs (node 2 record, component 0)
    and (FAR record, component m >= 1) are at zero likelihood. Node 1's row
    has a zero coefficient for component 0, and node 3's row one for every
    component but 0 and 1.
    """
    rng = np.random.default_rng(seed)
    initial = rng.dirichlet(np.ones(s_count), size=m_count)
    transition = rng.dirichlet(np.ones(s_count), size=(m_count, s_count))
    means = rng.normal(0.0, 1.5, size=(m_count, s_count, 1))
    means[0] = FAR
    variances = rng.uniform(0.5, 2.0, size=(m_count, s_count, 1))
    alpha = rng.uniform(0.2, 1.0, size=(4, m_count))
    alpha[0, 0] = 0.0
    alpha[2, 2:] = 0.0
    model = mixture.SparseMixtureModel(GaussianHmm(initial, transition, means, variances),
                                       alpha / alpha.sum(axis=1, keepdims=True))
    items = [(i % 2 + 1, rng.normal(0.0, 1.5, size=(t, 1))) for i, t in enumerate(lengths)]
    items.append((3, np.full((int(rng.integers(1, 3)), 1), FAR)))
    return model, mixture.SequenceDataset(items)


def enumerate_mixture(model, data):
    """Log-weights (N, M) and {(i, m): (ll, counts, gamma, support)} of the
    live pairs, each pair by path enumeration."""
    log_w = np.full((len(data), model.num_components), -np.inf)
    pairs = {}
    for i, item in enumerate(data.items):
        for m in np.flatnonzero(model.alpha[item.node - 1] > 0.0):
            comp = model.components[m]
            log_pi, log_a = log_params(comp)
            log_obs = gaussian_log_densities(item.seq, comp.means, comp.variances)
            _, ll, counts, gamma, support = enumerate_pair(log_pi, log_a, log_obs)
            log_w[i, m] = math.log(model.alpha[item.node - 1, m]) + ll
            pairs[i, int(m)] = ll, counts, gamma, support
    return log_w, pairs


@pytest.mark.parametrize("sizes", ["default", "tiny"])
@pytest.mark.parametrize("form", ["scaled", "log"])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(s_count=st.integers(1, 3), m_count=st.integers(2, 3),
       lengths=st.lists(st.integers(1, 3), min_size=1, max_size=5),
       seed=st.integers(0, 2**32 - 1))
@example(s_count=3, m_count=3, lengths=[3, 1, 2, 3, 1], seed=0)
@example(s_count=1, m_count=2, lengths=[2], seed=1)
def test_mixture_passes_match_pair_enumeration(sizes, form, s_count, m_count, lengths, seed):
    """mixture_log_likelihoods and mixture_posteriors against enumeration.

    "scaled" runs the scaled E-step and the tree end rows under their
    guards, "log" both in log form (TREE_FLOOR = inf); "tiny" cuts blocks
    of one to four pairs and density calls and time chunks of a few cells.
    """
    model, data = make_mixture_case(s_count, m_count, lengths, seed)
    log_w, pairs = enumerate_mixture(model, data)
    seq_ll = np.array([_logsumexp(list(row)) for row in log_w])
    eta = np.exp(log_w - seq_ll[:, None])
    block_cells, chunk_cells = (4, 9) if sizes == "tiny" else (mixture.BLOCK_CELLS,
                                                               kernels.CHUNK_CELLS)
    floor = kernels.TREE_FLOOR if form == "scaled" else np.inf
    with mock.patch.object(mixture, "BLOCK_CELLS", block_cells), \
            mock.patch.object(kernels, "CHUNK_CELLS", chunk_cells), \
            mock.patch.object(kernels, "TREE_FLOOR", floor), \
            mock.patch.object(kernels, "forward_uses_tree", lambda b, t, s: form == "scaled"):
        scores = mixture.mixture_log_likelihoods(model, data)
        stats = mixture.mixture_posteriors(model, data)
    for got in (scores, stats.log_likelihoods):
        np.testing.assert_allclose(got, seq_ll, rtol=1e-13, atol=ORACLE_ATOL)
    np.testing.assert_allclose(stats.eta, eta, rtol=0, atol=ORACLE_ATOL)
    np.testing.assert_array_equal(stats.eta == 0.0, eta == 0.0)
    half = len(lengths) // 2  # records alternate between nodes 1 and 2; node 4 has none
    assert stats.node_counts.tolist() == [len(lengths) - half, half, 1, 0]
    seen = []
    for block in stats.blocks:
        assert len({data.items[i].seq.shape[0] for i in block.seq}) == 1
        for b, (i, m) in enumerate(zip(block.seq.tolist(), block.comp.tolist())):
            seen.append((i, m))
            ll, counts, gamma, support = pairs[i, m]
            np.testing.assert_allclose(block.gamma[b], gamma, rtol=0, atol=ORACLE_ATOL)
            np.testing.assert_allclose(block.transitions[b], counts, rtol=0, atol=ORACLE_ATOL)
            assert np.all(block.gamma[b][~support] == 0.0)
            if ll == -math.inf:
                assert np.all(block.transitions[b] == 0.0)
    assert sorted(seen) == sorted(pairs)
    # the dataset holds live pairs at zero likelihood beside the zero coefficients
    assert any(ll == -math.inf for ll, *_ in pairs.values())


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


def mpmath_posteriors(log_pi, log_a, log_obs):
    """State posteriors and log-likelihood of one pair, forward and backward
    in linear domain at 30 digits."""
    mpmath.mp.dps = 30
    s_count = len(log_pi)
    a = [[mpmath.exp(x) for x in row] for row in log_a]
    emits = [[mpmath.exp(x) for x in obs] for obs in log_obs]
    alpha = [[mpmath.exp(x) for x in log_pi]]
    for emit in emits:
        alpha.append([emit[u] * mpmath.fsum(alpha[-1][s] * a[s][u] for s in range(s_count))
                      for u in range(s_count)])
    beta = [[mpmath.mpf(1)] * s_count]
    for emit in reversed(emits):
        beta.append([mpmath.fsum(a[s][u] * emit[u] * beta[-1][u] for u in range(s_count))
                     for s in range(s_count)])
    like = mpmath.fsum(alpha[-1])
    gamma = [[float(x * y / like) for x, y in zip(row, col)]
             for row, col in zip(alpha, reversed(beta))]
    return np.array(gamma), float(mpmath.log(like))


@pytest.fixture(scope="module")
def long_sequence():
    """A T = 10**4 block at about -2.5 nats a step and its mpmath posteriors."""
    log_pi, log_a, log_obs = make_block("dense", 2, 10_000, 1, 15, 1.0)
    log_obs -= 2.5
    return (log_pi, log_a, log_obs), mpmath_posteriors(log_pi[0], log_a[0], log_obs[0])


@pytest.mark.parametrize("form", ["scaled", "fallback"])
def test_long_sequence_posteriors_match_mpmath(form, long_sequence):
    block, (expected_gamma, expected_ll) = long_sequence
    floor = kernels.TREE_FLOOR if form == "scaled" else np.inf
    with mock.patch.object(kernels, "TREE_FLOOR", floor):
        gamma, _, ll = kernels.pair_posteriors(*block)
    if form == "scaled":
        assert every_pair_scaled(*block)
    # The log form's gamma = exp(la + lb - ll) cancels terms of about 3e4
    # nats, each rounded at eps, and lands about 2e-9 off; its likelihood
    # accumulates 10**4 roundings in log-sum-exp steps. The scaled form's
    # gamma is a product of two normalized factors and stays within 1e-14.
    atol, rtol = (5e-14, 1e-15) if form == "scaled" else (1e-8, 1e-12)
    np.testing.assert_allclose(gamma[0], expected_gamma, rtol=0, atol=atol)
    np.testing.assert_allclose(ll[0], expected_ll, rtol=rtol, atol=0)
