"""The recursion kernels must keep -inf exact and never produce nan, in every step form."""

import tracemalloc

import numpy as np
import pytest

from graphhmm import kernels
from graphhmm.hmm import gaussian_log_densities


class TestNegativeInfinity:
    def test_logsumexp_all_neg_inf(self):
        out = kernels.logsumexp(np.array([-np.inf, -np.inf]))
        assert out == -np.inf
        assert not np.isnan(out)

    def test_logsumexp_mixed(self):
        out = kernels.logsumexp(np.array([-np.inf, 0.0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-15)

    def test_unreachable_state_stays_neg_inf(self):
        # state 2 unreachable: one-hot initial, absorbing state 1
        with np.errstate(divide="ignore"):
            log_pi = np.log(np.array([1.0, 0.0]))
            log_a = np.log(np.array([[1.0, 0.0], [0.5, 0.5]]))
        log_obs = np.zeros((4, 2))
        la = kernels.forward(log_pi, log_a, log_obs)
        assert not np.isnan(la).any()
        assert np.all(la[:, 1] == -np.inf)

    def test_backward_with_structural_zeros(self):
        with np.errstate(divide="ignore"):
            log_a = np.log(np.array([[0.0, 1.0], [1.0, 0.0]]))
        log_obs = np.full((3, 2), -0.5)
        lb = kernels.backward(log_a, log_obs)
        assert not np.isnan(lb).any()
        assert np.all(np.isfinite(lb))


def _log(x):
    with np.errstate(divide="ignore"):
        return np.log(x)


def left_right_chain():
    """log_pi, log_a and log_obs of an S=16, T=400 left-right chain whose data walks the states.

    Means lie 10 apart with variance 0.25, so one forward row spans more
    than 10**6 nats.
    """
    a = np.diag(np.full(16, 0.9)) + np.diag(np.full(15, 0.1), 1)
    a[-1, -1] = 1.0
    means = 10.0 * np.arange(16)
    x = means[np.arange(400) * 16 // 400] + np.random.default_rng(0).normal(0.0, 0.5, 400)
    log_obs = gaussian_log_densities(x[:, None], means[:, None], np.full((16, 1), 0.25))
    return _log(np.eye(16)[0]), _log(a), log_obs


def dense_block(b_count, t_len, s_count, seed):
    """log_pi, log_a and log_obs of a block of dense pairs with standard normal log-densities."""
    rng = np.random.default_rng(seed)
    log_pi = np.log(rng.dirichlet(np.ones(s_count), size=b_count))
    log_a = np.log(rng.dirichlet(np.ones(s_count), size=(b_count, s_count)))
    return log_pi, log_a, rng.normal(size=(b_count, t_len, s_count))


class TestBackwardForms:
    """The E-step's two forms: the scaled form, which steps by matmuls, and its
    log-form fallback. Raising TREE_FLOOR to inf sends every block to the log
    form; lowering it to 0 takes the floor out of the scaled form's guard."""

    def test_guard_picks_the_form(self):
        # dense blocks of the benchmark shapes (fit-graph, fit-long) and one wide pair
        for shape in ((455, 5, 3), (12, 5, 16), (1, 5, 64)):
            assert not kernels._scaled_posteriors(*dense_block(*shape, seed=1))[3].any(), shape
        # structural zeros of A and pi alone do not fail the guard
        log_pi, log_a, log_obs = dense_block(2, 6, 3, seed=2)
        log_pi[:, 1:] = -np.inf
        log_pi[:, 0] = 0.0
        log_a = _log(np.triu(np.exp(log_a)))
        log_a -= kernels.logsumexp(log_a, axis=2)[:, :, None]
        assert not kernels._scaled_posteriors(log_pi, log_a, log_obs)[3].any()
        # an initial state below the floor, a far-off pair, a pair at zero
        # likelihood and the left-right chain fall back, each pair on its own:
        # a block where every pair fails gives None
        tiny_pi = _log([[1.0 - np.exp(-700.0), np.exp(-700.0), 0.0]] * 2)
        assert kernels._scaled_posteriors(tiny_pi, log_a, log_obs) is None
        assert kernels._scaled_posteriors(tiny_pi[:1], log_a[:1], log_obs[:1]) is None
        np.testing.assert_array_equal(
            kernels._scaled_posteriors(*far_off_block(2, 9, 3))[3], [True, False])
        log_obs[1, 3] = -np.inf
        np.testing.assert_array_equal(
            kernels._scaled_posteriors(log_pi, log_a, log_obs)[3], [False, True])
        # pair 0 below the initial floor, pair 1 at zero likelihood
        mixed_pi = np.stack([tiny_pi[0], log_pi[1]])
        assert kernels._scaled_posteriors(mixed_pi, log_a, log_obs) is None
        assert kernels._scaled_posteriors(*(x[None] for x in left_right_chain())) is None

    def test_overflow_off_the_support_falls_back(self):
        # state 2 is never entered but fits the data 500 nats better than the
        # others, so its scaled backward entry grows by about e**500 a step and
        # overflows, while every reachable forward entry stays above the floor
        log_pi = _log([[0.5, 0.5, 0.0]])
        log_a = _log([[[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]])
        log_obs = np.tile([-500.0, -500.0, 0.0], (1, 4, 1))
        la = kernels.forward(log_pi[0], log_a[0], log_obs[0])
        lb = kernels.backward(log_a[0], log_obs[0])
        ll = kernels.logsumexp(la[-1])
        assert kernels._scaled_posteriors(log_pi, log_a, log_obs) is None
        gamma, counts, block_ll = kernels.pair_posteriors(log_pi, log_a, log_obs)
        np.testing.assert_array_equal(gamma[0], np.exp(la + lb - ll))
        np.testing.assert_allclose(counts[0], [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
                                   rtol=1e-12)
        assert block_ll[0] == ll
        # beside a pair that passes, only the overflowing pair falls back
        pair = (log_pi, log_a, np.full((1, 4, 3), -1.0))
        block = tuple(np.concatenate([x, y]) for x, y in zip((log_pi, log_a, log_obs), pair))
        np.testing.assert_array_equal(kernels._scaled_posteriors(*block)[3], [True, False])
        gamma, _, block_ll = kernels.pair_posteriors(*block)
        np.testing.assert_array_equal(gamma[0], np.exp(la + lb - ll))
        assert block_ll[0] == ll and np.isfinite(block_ll[1])

    @pytest.mark.parametrize("b_count,s_count,matmul", [(455, 3, False), (12, 16, True)])
    def test_block_runs_the_chosen_form(self, b_count, s_count, matmul, monkeypatch):
        log_pi, log_a, log_obs = dense_block(b_count, 5, s_count, seed=1)
        reference = kernels._log_posteriors(log_pi, log_a, log_obs)
        if not matmul:
            monkeypatch.setattr(kernels, "TREE_FLOOR", np.inf)
        calls = []
        logsumexp = kernels.logsumexp
        monkeypatch.setattr(kernels, "logsumexp", lambda *a, **k: calls.append(1) or logsumexp(*a, **k))
        gamma, counts, ll = kernels.pair_posteriors(log_pi, log_a, log_obs)
        # the log form runs one logsumexp per forward and per backward step and
        # one for the likelihoods, the scaled form none
        assert len(calls) == (0 if matmul else 11)
        np.testing.assert_allclose(gamma, reference[0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(counts, reference[1], rtol=0, atol=1e-12)
        np.testing.assert_allclose(ll, reference[2], rtol=1e-13, atol=0)

    def test_matmul_guard_on_left_right_chain(self, monkeypatch):
        log_pi, log_a, log_obs = left_right_chain()
        la = kernels.forward(log_pi, log_a, log_obs)
        lb = kernels.backward(log_a, log_obs)
        ll = kernels.logsumexp(la[-1])
        reference = np.exp(la + lb - ll)
        assert np.isfinite(ll)
        gamma, counts, block_ll = kernels.pair_posteriors(log_pi[None], log_a[None], log_obs[None])
        np.testing.assert_array_equal(gamma[0] == 0.0, reference == 0.0)
        np.testing.assert_allclose(gamma[0], reference, rtol=0, atol=1e-12)
        np.testing.assert_allclose(block_ll[0], ll, rtol=1e-13)
        np.testing.assert_allclose(counts.sum(), log_obs.shape[0], rtol=1e-12)
        # the guard is conservative on this chain: the entries that the scaled
        # form loses without its floor are posteriors far below the float range
        monkeypatch.setattr(kernels, "TREE_FLOOR", 0.0)
        unguarded = kernels._scaled_posteriors(log_pi[None], log_a[None], log_obs[None])
        np.testing.assert_array_equal(unguarded[0][0] == 0.0, reference == 0.0)
        np.testing.assert_allclose(unguarded[0][0], reference, rtol=0, atol=1e-12)

    def test_count_guard_on_absorbing_chain(self, monkeypatch):
        # state 0 is absorbing, so the six final observations at state 1's mean
        # mean state 1 all along, though after the first five observations the
        # forward row favours state 0 by ~1000 nats
        log_a = _log(np.array([[1.0, 0.0], [0.5, 0.5]]))
        x = np.array([0.0] * 5 + [10.0] * 6)[:, None]
        log_obs = gaussian_log_densities(x, np.array([[0.0], [10.0]]), np.full((2, 1), 0.25))
        la = kernels.forward(np.log([0.5, 0.5]), log_a, log_obs)
        lb = kernels.backward(log_a, log_obs)
        ll = kernels.logsumexp(la[-1])
        args = (np.log([[0.5, 0.5]]), log_a[None], log_obs[None])
        expected = kernels.transition_posteriors(la, lb, log_a, log_obs, ll).sum(axis=0)
        np.testing.assert_allclose(expected, [[0.0, 0.0], [0.0, 11.0]], rtol=0, atol=1e-9)
        # state 1's forward entry drops below the floor, so the block falls back
        assert kernels._scaled_posteriors(*args) is None
        np.testing.assert_allclose(kernels.pair_posteriors(*args)[1][0], expected,
                                   rtol=0, atol=1e-12)
        # without the floor the scaled form loses state 1 from t = 4 on: on the
        # first 8 observations, where nothing overflows, its posterior there is
        # about 5e-177, not the exact zero the scaled form leaves
        short = (*args[:2], log_obs[None, :8])
        assert np.all(kernels.pair_posteriors(*short)[0][0, 4:, 1] > 0.0)
        monkeypatch.setattr(kernels, "TREE_FLOOR", 0.0)
        assert np.all(kernels.pair_posteriors(*short)[0][0, 4:, 1] == 0.0)


def far_off_block(b_count, t_len, seed):
    """A dense S = 3 block whose pair 0 lies far from its data: its states differ by 1000 nats."""
    rng = np.random.default_rng(seed)
    log_pi = np.log(rng.dirichlet(np.ones(3), size=b_count))
    log_a = np.log(rng.dirichlet(np.ones(3), size=(b_count, 3)))
    log_obs = rng.normal(size=(b_count, t_len, 3))
    log_obs[0] -= 1000.0 * np.arange(1, 4)
    return log_pi, log_a, log_obs


class TestForwardEnds:
    def test_cost_model_picks(self):
        # forecast prefixes: 2 live pairs at T = 30 of score-forecast (S = 3)
        # and fit-long (S = 16); one long sequence
        for shape in ((2, 30, 3), (2, 30, 16), (1, 10000, 3)):
            assert kernels.forward_uses_tree(*shape), shape
        # scoring blocks of 125-455 pairs, fit-graph's final objective
        # (276 pairs) and fit-long's (12 pairs at T = 1500, S = 16)
        for shape in ((455, 50, 3), (125, 50, 3), (276, 30, 3), (12, 1500, 16)):
            assert not kernels.forward_uses_tree(*shape), shape
        # tests/test_hmm.py::TestScaling: both S-doubling shapes keep the log
        # form, both T-doubling shapes take the tree form
        assert not kernels.forward_uses_tree(1, 60, 64)
        assert not kernels.forward_uses_tree(1, 60, 128)
        assert kernels.forward_uses_tree(1, 400, 8) and kernels.forward_uses_tree(1, 800, 8)
        # test_12_inference_scales_linearly: all three shapes take one form
        for shape in ((4, 200, 3), (8, 200, 3), (4, 400, 3)):
            assert kernels.forward_uses_tree(*shape), shape
        # T <= 3 saves no sequential step
        for t_len in (1, 2, 3):
            assert not kernels.forward_uses_tree(1, t_len, 3)
        # a longer stack than TREE_CELLS is multiplied in chunks, so length
        # alone never sends a block to the log form
        for t_len in (kernels.TREE_CELLS // 9, kernels.TREE_CELLS // 9 + 1, 20000, 10 ** 6):
            assert kernels.forward_uses_tree(1, t_len, 3), t_len

    @pytest.mark.parametrize("tree", [False, True], ids=["log-form", "tree-form"])
    def test_block_runs_the_chosen_form(self, tree, monkeypatch):
        rng = np.random.default_rng(2)
        log_pi = np.log(rng.dirichlet(np.ones(3), size=2))
        log_a = np.log(rng.dirichlet(np.ones(3), size=(2, 3)))
        log_obs = rng.normal(size=(2, 30, 3))
        monkeypatch.setattr(kernels, "forward_uses_tree", lambda b, t, s: tree)
        calls = []
        logsumexp = kernels.logsumexp
        monkeypatch.setattr(kernels, "logsumexp", lambda *a, **k: calls.append(1) or logsumexp(*a, **k))
        end = kernels.forward_ends(log_pi, log_a, log_obs)
        # the log form runs one logsumexp per step, the tree form none
        assert len(calls) == (0 if tree else 30)
        monkeypatch.setattr(kernels, "logsumexp", logsumexp)
        reference = kernels.forward_pairs(log_pi, log_a, log_obs)[:, -1]
        np.testing.assert_allclose(end, reference, rtol=1e-13, atol=0)

    def test_long_sequence_takes_the_tree_form_in_chunks(self, monkeypatch):
        # one S = 3 sequence whose (1, T, 3, 3) stack is above TREE_CELLS
        rng = np.random.default_rng(5)
        log_pi = np.log(rng.dirichlet(np.ones(3)))[None]
        log_a = np.log(rng.dirichlet(np.ones(3), size=3))[None]
        log_obs = rng.normal(size=(1, 20000, 3))
        assert log_obs.size * 3 > kernels.TREE_CELLS
        calls, sizes = [], []
        logsumexp, exp = kernels.logsumexp, np.exp
        monkeypatch.setattr(kernels, "logsumexp", lambda *a, **k: calls.append(1) or logsumexp(*a, **k))
        monkeypatch.setattr(np, "exp", lambda x, *a, **k: sizes.append(np.size(x)) or exp(x, *a, **k))
        end = kernels.forward_ends(log_pi, log_a, log_obs)
        monkeypatch.undo()
        assert not calls  # the tree form ran
        assert max(sizes) <= kernels.TREE_CELLS
        # the long-sequence tolerance of test_long_sequence_end_row_matches_mpmath:
        # here the log form drifts 1.5e-13 from a 30-digit reference, the tree form 2e-16
        reference = kernels.forward_pairs(log_pi, log_a, log_obs)[:, -1]
        np.testing.assert_allclose(end, reference, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("steps", [1, 2, 3, 7, 64])
    def test_chunked_tree_matches_log_form(self, steps, monkeypatch):
        # chunks of `steps` time steps; zeros in the initial row are carried exactly
        rng = np.random.default_rng(steps)
        log_pi = np.log(rng.dirichlet(np.ones(4), size=3))
        log_pi[1, 2] = -np.inf
        log_a = np.log(rng.dirichlet(np.ones(4), size=(3, 4)))
        log_obs = rng.normal(size=(3, 45, 4)) * 3.0
        reference = kernels.forward_pairs(log_pi, log_a, log_obs)[:, -1]
        monkeypatch.setattr(kernels, "TREE_CELLS", 3 * 16 * steps)
        end = kernels._tree_ends(log_pi, log_a, log_obs)
        np.testing.assert_allclose(end, reference, rtol=1e-13, atol=0)
        # an initial row of zeros has nothing to carry: the log form answers -inf
        log_pi[0] = -np.inf
        with np.errstate(divide="ignore"):
            end = kernels._tree_ends(log_pi, log_a, log_obs)
        if steps < 45:
            assert end is None
        else:
            assert np.all(np.isneginf(end[0]))
        assert np.all(np.isneginf(kernels.forward_ends(log_pi, log_a, log_obs)[0]))

    def test_tree_guard_on_far_off_component(self, monkeypatch):
        log_pi, log_a, log_obs = far_off_block(2, 9, 3)
        reference = kernels.forward_pairs(log_pi, log_a, log_obs)[:, -1]
        assert np.all(np.isfinite(reference))
        monkeypatch.setattr(kernels, "forward_uses_tree", lambda b, t, s: True)
        assert kernels._tree_ends(log_pi, log_a, log_obs) is None
        np.testing.assert_array_equal(kernels.forward_ends(log_pi, log_a, log_obs), reference)
        # without the guard the far states' entries underflow to zero
        monkeypatch.setattr(kernels, "TREE_FLOOR", 0.0)
        with np.errstate(divide="ignore"):
            assert np.isneginf(kernels.forward_ends(log_pi, log_a, log_obs)).any()

    def test_tree_guard_on_products(self):
        # state 1 falls to state 0 with probability e**-400 and emits e**-400
        # times less, so each step matrix's entries span 400 nats (above the
        # floor) and those of the product of two span 800 nats (below it)
        log_a = np.log(np.array([[[0.5, 0.5], [np.exp(-400.0), 1.0 - np.exp(-400.0)]]]))
        log_obs = np.array([[[0.0, -400.0], [0.0, -400.0]]])
        log_pi = np.log(np.full((1, 2), 0.5))
        assert kernels._tree_ends(log_pi, log_a, log_obs[:, :1]) is not None
        assert kernels._tree_ends(log_pi, log_a, log_obs) is None

    def test_tree_refuses_structural_zeros_before_building_the_stack(self, monkeypatch):
        # a left-right component has zeros in every step matrix, so the tree
        # form cannot pass its floor: no (B, T, S, S) stack is exponentiated
        log_pi, log_a, log_obs = (x[None] for x in left_right_chain())
        reference = kernels.forward_pairs(log_pi, log_a, log_obs)[:, -1]
        monkeypatch.setattr(kernels, "forward_uses_tree", lambda b, t, s: True)
        exp, dims = np.exp, []
        monkeypatch.setattr(np, "exp",
                            lambda x, *a, **k: dims.append(np.ndim(x)) or exp(x, *a, **k))
        end = kernels.forward_ends(log_pi, log_a, log_obs)
        monkeypatch.undo()
        assert dims and max(dims) < 4
        np.testing.assert_array_equal(end, reference)


def traced_peak(fn, *args):
    """Peak bytes that fn(*args) allocates, its result included, beyond its inputs."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestMemory:
    """The kernels hold no table they do not return. A table is one
    (T + 1, B, S) float64 array, the size of gamma or of the input."""

    @pytest.mark.parametrize("shape", [(4, 5000, 8), (12, 1500, 16)])
    def test_scaled_posteriors_hold_two_tables(self, shape):
        # the input and alpha, which becomes gamma; the emissions and beta
        # live in time chunks of CHUNK_CELLS (pair, t, state) cells
        b_count, t_len, s_count = shape
        assert kernels.CHUNK_CELLS // (b_count * s_count) < t_len  # several chunks
        block = dense_block(*shape, 3)
        table = (t_len + 1) * b_count * s_count * 8
        assert traced_peak(kernels.pair_posteriors, *block) < 2 * table

    def test_log_form_end_rows_keep_one_row(self, monkeypatch):
        b_count, t_len, s_count = 4, 5000, 8
        block = dense_block(b_count, t_len, s_count, 4)
        monkeypatch.setattr(kernels, "forward_uses_tree", lambda b, t, s: False)
        table = (t_len + 1) * b_count * s_count * 8
        assert traced_peak(kernels.forward_ends, *block) < table / 2
