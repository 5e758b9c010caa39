"""Prefix conditioning and posterior-predictive checks."""

import numpy as np
import pytest

from graphhmm import kernels
from graphhmm.forecast import (_cdf, _draw, condition, forecast_mean,
                               predictive_log_likelihood)
from graphhmm.hmm import GaussianHmm, log_likelihood, posteriors
from graphhmm.mixture import (SequenceDataset, SparseMixtureModel,
                              mixture_log_likelihood, mixture_posteriors,
                              reparameterize_rows)

from conftest import enum_posteriors, random_hmm


def predictive_moments(post, horizon):
    """Closed-form mean and variance of each forecast step, shape (horizon, D).

    Propagates each weighted component's conditioned state distribution
    through its transition matrix and mixes the per-state Gaussian moments
    by the posterior weights.
    """
    mean = np.zeros((horizon, post.dim))
    second = np.zeros((horizon, post.dim))
    for weight, comp, dist in zip(post.weights, post.components, post.conditional_initials):
        if weight == 0.0:
            continue
        for t in range(horizon):
            dist = dist @ comp.transition
            mean[t] += weight * (dist @ comp.means)
            second[t] += weight * (dist @ (comp.variances + comp.means ** 2))
    return mean, np.maximum(second - mean ** 2, 0.0)


def make_mixture(rng, k=1, m=2, s=2, d=1):
    comps = [random_hmm(rng, s, d) for _ in range(m)]
    beta = rng.uniform(0.2, 1.5, size=(k, m))
    return SparseMixtureModel(comps, reparameterize_rows(beta), beta)


class TestCondition:
    def test_weights_are_prefix_responsibilities(self):
        rng = np.random.default_rng(0)
        model = make_mixture(rng, m=3)
        prefix = rng.normal(size=(4, 1))
        post = condition(model, prefix, 1)
        stats = mixture_posteriors(model, SequenceDataset([(1, prefix)]))
        np.testing.assert_allclose(post.weights, stats.eta[0], rtol=0, atol=1e-12)

    def test_initials_are_end_state_posteriors(self):
        rng = np.random.default_rng(1)
        model = make_mixture(rng, m=2, s=3)
        prefix = rng.normal(size=(3, 1))
        post = condition(model, prefix, 1)
        for m, comp in enumerate(model.components):
            _, gamma, _ = enum_posteriors(comp, prefix)
            np.testing.assert_allclose(post.conditional_initials[m], gamma[-1],
                                       rtol=0, atol=1e-9)

    def test_matches_smoothing_each_live_component(self):
        # the batched forward-only route gives exactly the weights and end
        # states of full forward-backward smoothing per live component
        rng = np.random.default_rng(6)
        for _ in range(30):
            m_count, s_count = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            comps = [random_hmm(rng, s_count, 2, sparse_transitions=True)
                     for _ in range(m_count)]
            beta = rng.uniform(-0.5, 1.5, size=(2, m_count))
            beta[:, 0] = np.abs(beta[:, 0]) + 0.1
            model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
            prefix = rng.normal(size=(int(rng.integers(1, 9)), 2)) * 2.0
            node = int(rng.integers(1, 3))
            post = condition(model, prefix, node)

            row = model.alpha[node - 1]
            log_w = np.full(m_count, -np.inf)
            initials = np.full((m_count, s_count), 1.0 / s_count)
            for m in range(m_count):
                if row[m] > 0.0:
                    smoothed = posteriors(comps[m], prefix)
                    log_w[m] = np.log(row[m]) + smoothed.log_likelihood
                    initials[m] = smoothed.gamma[-1]
            weights = np.exp(log_w - float(kernels.logsumexp(log_w)))
            initials[weights == 0.0] = 1.0 / s_count
            assert np.array_equal(post.weights, weights)
            assert np.array_equal(post.conditional_initials, initials)

    def test_zero_weight_component_is_inert(self):
        rng = np.random.default_rng(2)
        comps = [random_hmm(rng, 2, 1), random_hmm(rng, 2, 1)]
        model = SparseMixtureModel(comps, [[1.0, 0.0]], beta=[[1.0, -1.0]])
        post = condition(model, rng.normal(size=(3, 1)), 1)
        assert post.weights[1] == 0.0
        assert bool(post.inert[1]) and not bool(post.inert[0])
        np.testing.assert_array_equal(post.conditional_initials[1], [0.5, 0.5])

    def test_impossible_prefix_rejected(self):
        rng = np.random.default_rng(3)
        model = make_mixture(rng)
        with pytest.raises(ValueError, match="zero likelihood"):
            condition(model, np.array([[1e200]]), 1)


class TestPredictiveLikelihood:
    def test_chain_rule_single_component(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            comp = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)))
            model = SparseMixtureModel([comp], [[1.0]])
            t_pre, t_cont = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            prefix = rng.normal(size=(t_pre, comp.dim))
            cont = rng.normal(size=(t_cont, comp.dim))
            full = np.concatenate([prefix, cont])
            expected = log_likelihood(comp, full) - log_likelihood(comp, prefix)
            got = predictive_log_likelihood(condition(model, prefix, 1), cont)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    def test_chain_rule_full_mixture(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            model = make_mixture(rng, k=2, m=3, s=2, d=2)
            prefix = rng.normal(size=(3, 2))
            cont = rng.normal(size=(4, 2))
            full = np.concatenate([prefix, cont])
            expected = (mixture_log_likelihood(model, full, 2)
                        - mixture_log_likelihood(model, prefix, 2))
            got = predictive_log_likelihood(condition(model, prefix, 2), cont)
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-9)

    def test_single_state_prefix_is_uninformative(self):
        # with one state the conditioned initial equals the prior initial,
        # so the predictive likelihood is the plain likelihood
        model = SparseMixtureModel([GaussianHmm([1.0], [[1.0]], [[0.5]], [[1.0]])],
                                   [[1.0]])
        rng = np.random.default_rng(6)
        prefix = rng.normal(size=(3, 1))
        cont = rng.normal(size=(2, 1))
        got = predictive_log_likelihood(condition(model, prefix, 1), cont)
        np.testing.assert_allclose(got, log_likelihood(model.components[0], cont),
                                   rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(7)
        model = make_mixture(rng, d=1)
        post = condition(model, rng.normal(size=(3, 1)), 1)
        with pytest.raises(ValueError, match="dimension"):
            predictive_log_likelihood(post, rng.normal(size=(2, 3)))


class TestForecastMean:
    def test_determinism(self):
        rng = np.random.default_rng(8)
        model = make_mixture(rng, m=2, s=2, d=2)
        prefix = rng.normal(size=(3, 2))
        a = forecast_mean(model, prefix, 1, horizon=4, num_samples=50, rng=9)
        b = forecast_mean(model, prefix, 1, horizon=4, num_samples=50, rng=9)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (4, 2)

    def test_single_state_mean_converges(self):
        model = SparseMixtureModel([GaussianHmm([1.0], [[1.0]], [[2.0]], [[0.25]])],
                                   [[1.0]])
        prefix = np.array([[2.1], [1.9]])
        out = forecast_mean(model, prefix, 1, horizon=3, num_samples=2000, rng=10)
        np.testing.assert_allclose(out, 2.0, rtol=0, atol=0.05)

    def test_deterministic_cycle_tracks_phase(self):
        # two states that alternate with near-zero noise: conditioning on a
        # prefix ending at the high state forces the forecast to continue
        # the low/high alternation in phase
        comp = GaussianHmm([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]],
                           [[0.0], [10.0]], [[1e-4], [1e-4]])
        model = SparseMixtureModel([comp], [[1.0]])
        prefix = np.array([[10.0], [0.0], [10.0]])  # ends at the high state
        out = forecast_mean(model, prefix, 1, horizon=4, num_samples=300, rng=11)
        np.testing.assert_allclose(out.ravel(), [0.0, 10.0, 0.0, 10.0],
                                   rtol=0, atol=0.1)

    def test_inert_component_never_sampled(self):
        rng = np.random.default_rng(12)
        near = GaussianHmm([1.0], [[1.0]], [[0.0]], [[1.0]])
        far = GaussianHmm([1.0], [[1.0]], [[1e9]], [[1.0]])
        model = SparseMixtureModel([near, far], [[1.0, 0.0]], beta=[[1.0, -1.0]])
        prefix = rng.normal(size=(3, 1))
        out = forecast_mean(model, prefix, 1, horizon=3, num_samples=200, rng=13)
        assert np.all(np.abs(out) < 10.0)

    def test_matches_closed_form_predictive_mean(self):
        # sparse transitions and one inert component whose means sit far away:
        # a draw of it, or a wrong batch step, shows as many standard errors
        rng = np.random.default_rng(15)
        samples = 400
        for case in range(20):
            m_count, s_count = int(rng.integers(2, 5)), int(rng.integers(1, 5))
            dim = int(rng.integers(1, 3))
            comps = [random_hmm(rng, s_count, dim, sparse_transitions=True)
                     for _ in range(m_count)]
            inert = int(rng.integers(m_count))
            far = comps[inert]
            comps[inert] = GaussianHmm(far.initial, far.transition, far.means + 1e6,
                                       far.variances)
            beta = rng.uniform(0.2, 1.5, size=(2, m_count))
            beta[:, inert] = -1.0
            model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
            prefix = rng.normal(size=(int(rng.integers(1, 6)), dim)) * 2.0
            horizon = int(rng.integers(1, 6))
            post = condition(model, prefix, 1)
            assert post.inert[inert]
            out = forecast_mean(model, prefix, 1, horizon, samples, rng=case)
            mean, var = predictive_moments(post, horizon)
            z = np.abs(out - mean) / np.sqrt(var / samples + 1e-300)
            assert np.max(z) < 6.0, f"case {case}: {np.max(z):.2f} standard errors"

    def test_spread_across_seeds_is_monte_carlo_error(self):
        # the estimator's own spread: over many seeds the forecast mean of one
        # step scatters by sqrt(predictive variance / num_samples)
        comp = GaussianHmm([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]],
                           [[-1.0, 0.0], [1.0, 3.0]], [[4.0, 0.25], [1.0, 0.25]])
        model = SparseMixtureModel([comp], [[1.0]])
        prefix = np.array([[0.5, 1.0]])
        samples = 50
        _, var = predictive_moments(condition(model, prefix, 1), 1)
        outs = np.array([forecast_mean(model, prefix, 1, 1, samples, rng=seed)[0]
                         for seed in range(400)])
        np.testing.assert_allclose(outs.std(axis=0, ddof=1), np.sqrt(var[0] / samples),
                                   rtol=0.15)

    def test_unreachable_trailing_state_never_entered(self):
        # the last state has zero initial and zero incoming probability, and
        # the last component has zero weight: rows end in zeros, so a cdf whose
        # last entry fell short of 1.0 could hand out the state at 1e6
        reach = GaussianHmm([0.5, 0.5, 0.0],
                            [[0.3, 0.7, 0.0], [0.6, 0.4, 0.0], [0.2, 0.3, 0.5]],
                            [[0.0], [1.0], [1e6]], [[0.5], [0.5], [0.5]])
        far = GaussianHmm([1.0, 0.0, 0.0], np.eye(3), [[1e6], [1e6], [1e6]],
                          [[0.5], [0.5], [0.5]])
        model = SparseMixtureModel([reach, far], [[1.0, 0.0]], beta=[[1.0, 0.0]])
        prefix = np.array([[0.2], [0.9], [0.1]])
        post = condition(model, prefix, 1)
        assert post.conditional_initials[0, 2] == 0.0 and post.weights[1] == 0.0
        out = forecast_mean(model, prefix, 1, horizon=8, num_samples=2000, rng=16)
        assert np.all(np.abs(out) < 10.0)
        mean, var = predictive_moments(post, 8)
        assert np.max(np.abs(out - mean) / np.sqrt(var / 2000)) < 6.0

    def test_inverse_cdf_skips_zero_probability_entries(self):
        below_one = np.nextafter(1.0, 0.0)
        # a row that sums to 1 - 5e-10 passes validation; its scaled cdf still
        # ends at exactly 1.0, so the largest uniform stays off the trailing zero
        p = np.array([[0.0, 0.3, 0.0, 0.7 - 5e-10, 0.0]])
        cdf = _cdf(p)
        assert cdf[0, -1] == 1.0
        # u on a flat step of the cdf goes past the zero-probability entry
        u = np.array([0.0, cdf[0, 1], 0.5, below_one])
        np.testing.assert_array_equal(_draw(np.repeat(cdf, 4, axis=0), u), [1, 3, 3, 3])

    def test_validation(self):
        rng = np.random.default_rng(14)
        model = make_mixture(rng)
        prefix = rng.normal(size=(2, 1))
        with pytest.raises(ValueError, match="horizon"):
            forecast_mean(model, prefix, 1, horizon=0, num_samples=10, rng=0)
        with pytest.raises(ValueError, match="num_samples"):
            forecast_mean(model, prefix, 1, horizon=2, num_samples=0, rng=0)
