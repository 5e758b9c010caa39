"""The batched E-step, M-step and log-likelihood against per-pair inference.

The reference side runs ``hmm.posteriors`` once per live (sequence,
component) pair and re-estimates the components with a loop over
components and sequences, the way the package did before the recursions
were batched. The dataset mixes lengths (T = 1 included), has a
structural-zero transition, sparse mixing rows and a node without data.
Small block and chunk sizes force several blocks per length, several
density calls per block and several time chunks per block. The batched
side runs each E-step form (scaled and log) and each end-row form of the
forward-only paths (scoring, ``condition`` and
``predictive_log_likelihood``), and the per-pair reference always takes
the log form.
"""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from graphhmm import kernels, mixture
from graphhmm.forecast import condition, predictive_log_likelihood
from graphhmm.hmm import VARIANCE_FLOOR, GaussianHmm, gaussian_log_densities, posteriors
from graphhmm.mixture import (AffinityGraph, MixtureSufficientStats, SequenceDataset,
                              SparseMixtureModel, mixture_log_likelihood,
                              mixture_log_likelihoods, mixture_posteriors,
                              pair_log_densities, reparameterize_rows)
from graphhmm.training import (RESPONSIBILITY_EPS, AdamState, TrainConfig,
                               _reestimate_components, _update_scores, em_step_mhmm,
                               em_step_spamhmm)

from conftest import random_hmm

ATOL = 1e-12


def make_case(seed):
    rng = np.random.default_rng(seed)
    comps = [random_hmm(rng, 3, 2) for _ in range(3)]
    zeroed = comps[0].transition.copy()
    zeroed[0, 1] = 0.0
    zeroed[0] /= zeroed[0].sum()
    comps[0] = GaussianHmm(comps[0].initial, zeroed, comps[0].means, comps[0].variances)
    # node 4 has no data; rows 2 and 3 are sparse
    beta = np.array([[0.8, 0.6, 0.5],
                     [-0.2, 0.9, 0.4],
                     [1.0, -0.1, -0.3],
                     [0.3, 0.7, 0.2]])
    model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
    nodes = [1, 2, 3, 1, 2, 3, 1, 2, 1, 3, 2, 1]
    lengths = [1, 4, 4, 1, 7, 4, 3, 1, 4, 7, 3, 4]
    data = SequenceDataset([(node, rng.normal(size=(t, 2)) * 1.5)
                            for node, t in zip(nodes, lengths)])
    return model, data


def per_pair_estep(model, data):
    """eta, log-likelihoods and a {(i, m): StatePosteriors} map, one pair at a time."""
    n, m_count = len(data), model.num_components
    log_w = np.full((n, m_count), -np.inf)
    posts = {}
    for i, item in enumerate(data.items):
        row = model.alpha[item.node - 1]
        for m in range(m_count):
            if row[m] > 0.0:
                posts[i, m] = posteriors(model.components[m], item.seq)
                log_w[i, m] = np.log(row[m]) + posts[i, m].log_likelihood
    ll = np.array([float(kernels.logsumexp(r)) for r in log_w])
    return np.exp(log_w - ll[:, None]), ll, posts


def per_pair_mstep(model, data, eta, posts):
    """Component re-estimation as one loop over components and sequences."""
    s_count, dim = model.num_states, model.dim
    out = []
    for m, old in enumerate(model.components):
        resp = eta[:, m].sum()
        if resp < RESPONSIBILITY_EPS:
            out.append(old)
            continue
        pi_num, trans_den, occ = np.zeros(s_count), np.zeros(s_count), np.zeros(s_count)
        trans_num = np.zeros((s_count, s_count))
        mean_num = np.zeros((s_count, dim))
        live = [(i, item) for i, item in enumerate(data.items) if eta[i, m] > 0.0]
        for i, item in live:
            w, post = eta[i, m], posts[i, m]
            pi_num += w * post.gamma[0]
            trans_num += w * post.xi.sum(axis=0)
            trans_den += w * post.gamma[:-1].sum(axis=0)
            occ += w * post.gamma[1:].sum(axis=0)
            mean_num += w * (post.gamma[1:].T @ item.seq)
        # a state with near-zero occupancy keeps its transition or emission row
        rows, states = trans_den >= RESPONSIBILITY_EPS, occ >= RESPONSIBILITY_EPS
        transition, means, variances = (old.transition.copy(), old.means.copy(),
                                        old.variances.copy())
        transition[rows] = trans_num[rows] / trans_den[rows, None]
        means[states] = mean_num[states] / occ[states, None]
        var_num = np.zeros((s_count, dim))
        for i, item in live:
            diff = item.seq[:, None, :] - means[None, :, :]
            var_num += eta[i, m] * np.einsum("ts,tsd->sd", posts[i, m].gamma[1:], diff * diff)
        variances[states] = var_num[states] / occ[states, None]
        out.append(GaussianHmm(pi_num / resp, transition, means,
                               np.maximum(variances, VARIANCE_FLOOR)))
    return out


def assert_components_close(got, expected):
    for a, b in zip(got, expected):
        for name in ("initial", "transition", "means", "variances"):
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=0, atol=ATOL)
        # structural zeros stay exact
        np.testing.assert_array_equal(a.transition == 0.0, b.transition == 0.0)


@pytest.fixture(params=["default", "small", "default-log", "small-log", "default-matmul",
                        "small-matmul", "default-ends-log", "small-ends-log", "default-ends-tree",
                        "small-ends-tree"])
def block_sizes(request, monkeypatch):
    """Default block and chunk sizes, or sizes small enough to split every length.

    A "-log" suffix sends every E-step block to the log form, and a
    "-matmul" suffix requires every block to take the scaled form, which
    steps by matmuls; an "-ends-log" or "-ends-tree" suffix forces that
    end-row form (kernels.forward_ends). Otherwise the guard and the cost
    model pick them.
    """
    sizes, _, form = request.param.partition("-")
    if sizes == "small":
        monkeypatch.setattr(mixture, "BLOCK_CELLS", 18)
        monkeypatch.setattr(kernels, "CHUNK_CELLS", 9)
    if form == "log":
        monkeypatch.setattr(kernels, "_scaled_posteriors", lambda *args: None)
    elif form == "matmul":
        def log_form(*args):
            raise AssertionError("a block fell back to the log form")
        monkeypatch.setattr(kernels, "_log_posteriors", log_form)
    elif form:
        monkeypatch.setattr(kernels, "forward_uses_tree", lambda b, t, s: form == "ends-tree")
    return sizes


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_estep_matches_per_pair(seed, block_sizes):
    model, data = make_case(seed)
    eta, ll, posts = per_pair_estep(model, data)
    stats = mixture_posteriors(model, data)
    np.testing.assert_allclose(stats.eta, eta, rtol=0, atol=ATOL)
    np.testing.assert_allclose(stats.log_likelihoods, ll, rtol=0, atol=ATOL)
    np.testing.assert_array_equal(stats.eta == 0.0, eta == 0.0)
    live = [(i, m) for b in stats.blocks for i, m in zip(b.seq.tolist(), b.comp.tolist())]
    assert sorted(live) == sorted(posts)
    if block_sizes == "small":
        assert max(b.seq.size for b in stats.blocks) == 2
    for block in stats.blocks:
        lengths = {data.items[i].seq.shape[0] for i in block.seq}
        assert len(lengths) == 1
        for b, (i, m) in enumerate(zip(block.seq, block.comp)):
            np.testing.assert_allclose(block.gamma[b], posts[i, m].gamma, rtol=0, atol=ATOL)
            np.testing.assert_allclose(block.transitions[b], posts[i, m].xi.sum(axis=0),
                                       rtol=0, atol=ATOL)
    np.testing.assert_allclose(mixture_log_likelihoods(model, data), ll, rtol=0, atol=ATOL)
    for i, item in enumerate(data.items):
        np.testing.assert_allclose(mixture_log_likelihood(model, item.seq, item.node), ll[i],
                                   rtol=0, atol=ATOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_forecast_matches_per_pair(seed, block_sizes):
    model, data = make_case(seed)
    rng = np.random.default_rng(seed + 10)
    for item in data.items:
        post = condition(model, item.seq, item.node)
        row = model.alpha[item.node - 1]
        log_w = np.full(row.size, -np.inf)
        initials = np.zeros((row.size, model.num_states))
        for m in np.flatnonzero(row > 0.0):
            smoothed = posteriors(model.components[m], item.seq)
            log_w[m] = np.log(row[m]) + smoothed.log_likelihood
            initials[m] = smoothed.gamma[-1]
        weights = np.exp(log_w - kernels.logsumexp(log_w))
        np.testing.assert_allclose(post.weights, weights, rtol=0, atol=ATOL)
        np.testing.assert_array_equal(post.inert, weights == 0.0)
        live = np.flatnonzero(~post.inert)
        np.testing.assert_allclose(post.conditional_initials[live], initials[live],
                                   rtol=0, atol=ATOL)

        cont = rng.normal(size=(5, 2)) * 1.5
        terms = []
        for m in live:
            comp = model.components[m]
            conditioned = GaussianHmm(post.conditional_initials[m], comp.transition,
                                      comp.means, comp.variances)
            terms.append(np.log(post.weights[m]) + posteriors(conditioned, cont).log_likelihood)
        np.testing.assert_allclose(predictive_log_likelihood(post, cont),
                                   kernels.logsumexp(np.array(terms)), rtol=0, atol=ATOL)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_mhmm_step_matches_per_pair(seed, block_sizes):
    model, data = make_case(seed)
    model = SparseMixtureModel(model.components, model.alpha)
    eta, ll, posts = per_pair_estep(model, data)
    step = em_step_mhmm(model, data)
    updated = step.model
    np.testing.assert_allclose(step.objective, ll.sum(), rtol=0, atol=ATOL)
    assert_components_close(updated.components, per_pair_mstep(model, data, eta, posts))
    np.testing.assert_array_equal(updated.alpha[3], model.alpha[3])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_spamhmm_step_matches_per_pair(seed, block_sizes):
    model, data = make_case(seed)
    graph = AffinityGraph(np.array([[0.0, 1.0, 0.5, 0.0],
                                    [1.0, 0.0, 0.0, 0.2],
                                    [0.5, 0.0, 0.0, 1.0],
                                    [0.0, 0.2, 1.0, 0.0]]))
    config = TrainConfig(lam=0.4, inner_iters=5, learning_rate=0.05)
    eta, ll, posts = per_pair_estep(model, data)
    updated = em_step_spamhmm(model, data, graph, config, AdamState.zeros(model.beta.shape)).model
    nodes = np.array([it.node for it in data.items])
    reference = MixtureSufficientStats(node_counts=np.bincount(nodes - 1, minlength=4), eta=eta,
                                       blocks=[], nodes=nodes, log_likelihoods=ll)
    alpha, beta = _update_scores(model, reference, graph, config,
                                 AdamState.zeros(model.beta.shape), [])
    np.testing.assert_allclose(updated.alpha, alpha, rtol=0, atol=ATOL)
    np.testing.assert_allclose(updated.beta, beta, rtol=0, atol=ATOL)
    assert_components_close(updated.components, per_pair_mstep(model, data, eta, posts))


def test_pair_densities_equal_one_call_per_pair():
    rng = np.random.default_rng(3)
    for dim in (1, 2, 9):
        comps = [random_hmm(rng, 3, dim) for _ in range(4)]
        seqs = [rng.normal(size=(5, dim)) * 3.0 for _ in range(3)]
        seq = np.array([0, 0, 0, 1, 2, 2])
        comp = np.array([0, 2, 3, 1, 3, 0])
        model = SparseMixtureModel(comps, np.full((1, 4), 0.25))
        got = pair_log_densities(model.components, seqs, seq, comp)
        for b, (i, m) in enumerate(zip(seq, comp)):
            expected = gaussian_log_densities(seqs[i], comps[m].means, comps[m].variances)
            assert np.array_equal(got[b], expected)


def reference_blocks(weights, seqs, num_states):
    """Live (record, component) pairs sorted by (length, record, component), cut per length and size."""
    live = sorted((seqs[i].shape[0], int(i), int(m)) for i, m in zip(*np.nonzero(weights > 0.0)))
    size = max(1, mixture.BLOCK_CELLS // num_states ** 2)
    blocks = []
    for _, run in itertools.groupby(live, key=lambda pair: pair[0]):
        run = [(i, m) for _, i, m in run]
        blocks += [run[start:start + size] for start in range(0, len(run), size)]
    return blocks


@pytest.mark.parametrize("block_cells", [mixture.BLOCK_CELLS, 18], ids=["default", "small"])
@pytest.mark.parametrize("lengths", [[3, 1, 3, 2, 1, 3], [4] * 6, [5]],
                         ids=["mixed", "equal", "single"])
def test_live_pair_blocks_order(lengths, block_cells, monkeypatch):
    # one length takes the path without the sort; both must give this order
    monkeypatch.setattr(mixture, "BLOCK_CELLS", block_cells)
    rng = np.random.default_rng(4)
    weights = rng.random((len(lengths), 4)) * (rng.random((len(lengths), 4)) < 0.6)
    weights[:, 2] += 0.1
    seqs = [np.zeros((t, 2)) for t in lengths]
    got = [list(zip(seq.tolist(), comp.tolist()))
           for seq, comp in mixture._live_pair_blocks(weights, seqs, 3)]
    assert got == reference_blocks(weights, seqs, 3)


def make_mstep_case(s_count, m_count, dim, lengths, dead, seed):
    """A mixture over K = 3 nodes whose records alternate between nodes 1 and 2.

    Node 3 has no data and some coefficients are zero. With dead set,
    component 0 is never chosen (its column of alpha is zero), and with
    S >= 2 component 1's last state can never be entered and sits far from
    the data, so its transition row and its emission row keep their values.
    """
    rng = np.random.default_rng(seed)
    comps = [random_hmm(rng, s_count, dim, sparse_transitions=True) for _ in range(m_count)]
    alpha = rng.uniform(0.1, 1.0, size=(3, m_count)) * (rng.random((3, m_count)) < 0.7)
    alpha[np.arange(3), rng.integers(m_count, size=3)] += 0.5
    if dead and m_count > 1:
        alpha[:, 0] = 0.0
        alpha[:, 1] += 0.1
    if dead and m_count > 1 and s_count > 1:
        old = comps[1]
        initial, transition = old.initial.copy(), old.transition.copy()
        initial[-1], transition[:, -1], transition[-1] = 0.0, 0.0, 1.0 / s_count
        means = old.means.copy()
        means[-1] = 1e3
        comps[1] = GaussianHmm(initial / initial.sum(),
                               transition / transition.sum(axis=1, keepdims=True),
                               means, old.variances)
    model = SparseMixtureModel(comps, alpha / alpha.sum(axis=1, keepdims=True))
    data = SequenceDataset([(i % 2 + 1, rng.normal(size=(t, dim)) * 1.5)
                            for i, t in enumerate(lengths)])
    return model, data


@pytest.mark.parametrize("sizes", ["default", "tiny"])
@settings(max_examples=20, derandomize=True, deadline=None)
@given(s_count=st.integers(1, 3), m_count=st.integers(1, 3), dim=st.integers(1, 3),
       lengths=st.lists(st.integers(1, 5), min_size=1, max_size=6), dead=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
@example(s_count=3, m_count=3, dim=2, lengths=[4, 1, 5, 4, 2, 5], dead=True, seed=0)
@example(s_count=1, m_count=2, dim=1, lengths=[1], dead=False, seed=1)
def test_reestimate_components_matches_per_pair(sizes, s_count, m_count, dim, lengths, dead,
                                                seed):
    """_reestimate_components' closed forms, summed over the E-step's blocks,
    against one loop over components and sequences; "tiny" cuts blocks of
    one to four pairs and time chunks of a few cells."""
    model, data = make_mstep_case(s_count, m_count, dim, lengths, dead, seed)
    eta, _, posts = per_pair_estep(model, data)
    block_cells, chunk_cells = (4, 9) if sizes == "tiny" else (mixture.BLOCK_CELLS,
                                                               kernels.CHUNK_CELLS)
    with mock.patch.object(mixture, "BLOCK_CELLS", block_cells), \
            mock.patch.object(kernels, "CHUNK_CELLS", chunk_cells):
        stats = mixture_posteriors(model, data)
        warnings = []
        got = _reestimate_components(model, data, stats, warnings)
    expected = per_pair_mstep(model, data, eta, posts)
    assert_components_close(got, expected)
    if dead and m_count > 1:
        assert any(w.startswith("component 1: total responsibility") for w in warnings)
        for name in ("initial", "transition", "means", "variances"):
            assert np.array_equal(getattr(got[0], name), getattr(model.components[0], name))
        if s_count > 1:
            assert np.array_equal(got[1].transition[-1], model.components[1].transition[-1])
            assert np.array_equal(got[1].means[-1], model.components[1].means[-1])
