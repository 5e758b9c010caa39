"""The recursion kernels must keep -inf exact and never produce nan, in every step form."""

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


class TestBackwardForms:
    def test_cost_model_picks(self):
        # the E-step blocks of the benchmark workloads: fit-graph (S = 3) and fit-long
        for b_count in (117, 172, 280, 455):
            assert not kernels.backward_uses_matmul(b_count, 3)
        assert kernels.backward_uses_matmul(12, 16)
        # the largest blocks (about mixture.BLOCK_CELLS cells) cross over near S = 6
        assert not kernels.backward_uses_matmul(256, 4)
        assert not kernels.backward_uses_matmul(113, 6)
        assert kernels.backward_uses_matmul(64, 8)
        # a single sequence and a few pairs take the matmul form at any S
        for s_count in (1, 2, 3, 64, 128):
            assert kernels.backward_uses_matmul(1, s_count)
        assert kernels.backward_uses_matmul(8, 3) and not kernels.backward_uses_matmul(16, 3)

    @pytest.mark.parametrize("b_count,s_count,matmul", [(455, 3, False), (12, 16, True)])
    def test_block_runs_the_chosen_form(self, b_count, s_count, matmul, monkeypatch):
        rng = np.random.default_rng(1)
        log_a = np.log(rng.dirichlet(np.ones(s_count), size=(b_count, s_count)))
        log_obs = rng.normal(size=(b_count, 5, s_count))
        calls = []
        logsumexp = kernels.logsumexp
        monkeypatch.setattr(kernels, "logsumexp", lambda *a, **k: calls.append(1) or logsumexp(*a, **k))
        kernels.backward_pairs(log_a, log_obs)
        # the log form runs one logsumexp per step, the matmul form none
        assert len(calls) == (0 if matmul else 5)

    def test_matmul_guard_on_left_right_chain(self, monkeypatch):
        log_pi, log_a, log_obs = left_right_chain()
        monkeypatch.setattr(kernels, "backward_uses_matmul", lambda b, s: False)
        reference = kernels.backward(log_a, log_obs)
        monkeypatch.setattr(kernels, "backward_uses_matmul", lambda b, s: True)
        lb = kernels.backward(log_a, log_obs)
        assert np.all(np.isfinite(reference))
        np.testing.assert_array_equal(np.isneginf(lb), np.isneginf(reference))
        np.testing.assert_allclose(lb, reference, rtol=0, atol=1e-12)
        la = kernels.forward(log_pi, log_a, log_obs)
        ll = kernels.logsumexp(la[-1])
        counts = kernels.transition_counts(la[None], lb[None], log_a[None], log_obs[None],
                                           np.array([ll]))
        np.testing.assert_allclose(counts.sum(), log_obs.shape[0], rtol=1e-12)
        # without the guard the shifted exps lose whole rows on this chain
        monkeypatch.setattr(kernels, "_TINY", 0.0)
        assert np.isneginf(kernels.backward(log_a, log_obs)).any()

    def test_count_guard_on_absorbing_chain(self, monkeypatch):
        # state 0 is absorbing, so the six final observations at state 1's mean
        # mean state 1 all along, though after the first five observations the
        # forward row favours state 0 by ~1000 nats
        log_a = _log(np.array([[1.0, 0.0], [0.5, 0.5]]))
        x = np.array([0.0] * 5 + [10.0] * 6)[:, None]
        log_obs = gaussian_log_densities(x, np.array([[0.0], [10.0]]), np.full((2, 1), 0.25))
        la = kernels.forward(np.log([0.5, 0.5]), log_a, log_obs)
        lb = kernels.backward(log_a, log_obs)
        ll = np.array([kernels.logsumexp(la[-1])])
        args = (la[None], lb[None], log_a[None], log_obs[None], ll)
        expected = kernels.transition_posteriors(la, lb, log_a, log_obs, ll[0]).sum(axis=0)
        np.testing.assert_allclose(expected, [[0.0, 0.0], [0.0, 11.0]], rtol=0, atol=1e-9)
        np.testing.assert_allclose(kernels.transition_counts(*args)[0], expected, rtol=0, atol=1e-12)
        # without the guard the contraction loses state 1's factors
        monkeypatch.setattr(kernels, "_Q_LIMIT", np.inf)
        with np.errstate(all="ignore"):
            assert not np.allclose(kernels.transition_counts(*args)[0], expected)


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
        # the (B, T, S, S) stack is bounded whatever the cost
        assert kernels.forward_uses_tree(1, kernels.TREE_CELLS // 9, 3)
        assert not kernels.forward_uses_tree(1, kernels.TREE_CELLS // 9 + 1, 3)

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
