"""The recursion kernels must keep -inf exact and never produce nan."""

import numpy as np

from graphhmm import kernels


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
