"""Prefix conditioning and posterior-predictive checks."""

import numpy as np
import pytest

from graphhmm import kernels
from graphhmm.forecast import (_cdf, _draw, condition, forecast_mean,
                               predictive_log_likelihood)
from graphhmm.hmm import GaussianHmm, log_likelihood, posteriors, sample
from graphhmm.mixture import (SequenceDataset, SparseMixtureModel,
                              mixture_log_likelihood, mixture_posteriors,
                              reparameterize_rows, sample_from_node)

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

    def test_live_component_whose_weight_underflows_is_inert(self):
        # component 2 is live (alpha > 0) and its prefix likelihood is finite,
        # about exp(-5e11), but its posterior weight underflows to exactly 0;
        # its end-state posterior, near one-hot, must not replace the placeholder
        rng = np.random.default_rng(9)
        far = GaussianHmm([0.5, 0.5], [[0.9, 0.1], [0.2, 0.8]], [[1e6], [1e6 + 1.0]],
                          [[1.0], [1.0]])
        model = SparseMixtureModel([random_hmm(rng, 2, 1), far], [[0.5, 0.5]])
        prefix = rng.normal(size=(3, 1))
        assert np.isfinite(log_likelihood(far, prefix))
        post = condition(model, prefix, 1)
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

    def test_sums_only_the_live_terms(self):
        # M = 12 with one zero coefficient: only the 11 live components are
        # evaluated, and the inert one enters the M-wide sum as -inf
        rng = np.random.default_rng(75)
        tr = rng.uniform(size=(12, 3, 3))
        tr /= tr.sum(axis=2, keepdims=True)
        ini = rng.uniform(size=(12, 3))
        ini /= ini.sum(axis=1, keepdims=True)
        alpha = rng.uniform(size=(1, 12))
        alpha[0, 5] = 0.0
        alpha /= alpha.sum()
        comps = GaussianHmm(ini, tr, rng.normal(size=(12, 3, 2)),
                            rng.uniform(0.5, 2, size=(12, 3, 2)))
        x = rng.normal(size=(12, 2))
        post = condition(SparseMixtureModel(comps, alpha), x[:8], 1)
        live = np.flatnonzero(post.weights > 0.0)
        terms = np.array([np.log(post.weights[m]) + log_likelihood(
            GaussianHmm(post.conditional_initials[m], tr[m], comps.means[m],
                        comps.variances[m]), x[8:]) for m in live])
        assert live.size == 11
        row = np.full(12, -np.inf)
        row[live] = terms
        assert predictive_log_likelihood(post, x[8:]) == float(kernels.logsumexp(row))

    def test_equals_the_conditioned_mixture_likelihood(self):
        # the conditioned mixture: the conditional initials as initial rows and
        # the posterior weights as its one row. Both sums run over the same
        # M-wide row, -inf for the zero coefficient, so they agree bit for
        # bit; numpy's pairwise sum groups 11 and 12 terms differently
        rng = np.random.default_rng(0)
        for _ in range(300):
            beta = rng.uniform(0.2, 1.5, size=(1, 12))
            beta[0, rng.integers(12)] = -1.0
            model = SparseMixtureModel([random_hmm(rng, 2, 1) for _ in range(12)],
                                       reparameterize_rows(beta), beta)
            prefix = rng.normal(size=(int(rng.integers(1, 6)), 1))
            cont = rng.normal(size=(int(rng.integers(1, 6)), 1))
            post = condition(model, prefix, 1)
            comps = post.components
            conditioned = SparseMixtureModel(
                GaussianHmm(post.conditional_initials, comps.transition, comps.means,
                            comps.variances), post.weights[None])
            assert predictive_log_likelihood(post, cont) == \
                mixture_log_likelihood(conditioned, cont, 1)

    def test_unnormalized_conditional_initials_refused(self):
        # a hand-built posterior is checked as the conditioned mixture it stands for
        rng = np.random.default_rng(10)
        post = condition(make_mixture(rng, m=2, s=2), rng.normal(size=(3, 1)), 1)
        post.conditional_initials = post.conditional_initials * 1.5
        with pytest.raises(ValueError, match="initial rows must sum to 1"):
            predictive_log_likelihood(post, rng.normal(size=(2, 1)))

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

    @pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, False, -1, "3", None])
    def test_counts_must_be_integers(self, bad, monkeypatch):
        rng = np.random.default_rng(14)
        model = make_mixture(rng)
        prefix = rng.normal(size=(2, 1))
        ran = []
        monkeypatch.setattr("graphhmm.forecast.condition", lambda *a: ran.append(a))
        with pytest.raises(ValueError, match="horizon must be an integer >= 1"):
            forecast_mean(model, prefix, 1, horizon=bad, num_samples=10, rng=0)
        with pytest.raises(ValueError, match="num_samples must be an integer >= 1"):
            forecast_mean(model, prefix, 1, horizon=2, num_samples=bad, rng=0)
        assert not ran  # checked before conditioning

    def test_numpy_integer_counts_accepted(self):
        rng = np.random.default_rng(14)
        model = make_mixture(rng)
        prefix = rng.normal(size=(2, 1))
        np.testing.assert_array_equal(
            forecast_mean(model, prefix, 1, np.int32(3), np.uint8(20), rng=4),
            forecast_mean(model, prefix, 1, 3, 20, rng=4))


def _reference_draw(cdf, u):
    return (cdf <= np.asarray(u)[..., None]).sum(axis=-1)


def _reference_chains(hmm, lead, state, length, rng):
    """The sampler as a per-step generator: the stream order and bits to keep."""
    transition_cdf = _cdf(hmm.transition)
    std = np.sqrt(hmm.variances)
    for _ in range(length):
        state = _reference_draw(transition_cdf[(*lead, state)], rng.random(state.size))
        at = (*lead, state)
        yield hmm.means[at] + std[at] * rng.standard_normal((state.size, hmm.dim))


def _reference_sample(hmm, length, rng):
    rng = np.random.default_rng(rng)
    state = _reference_draw(_cdf(hmm.initial), rng.random(1))
    return np.concatenate(list(_reference_chains(hmm, (), state, length, rng)))


def _reference_sample_from_node(model, node, length, rng):
    rng = np.random.default_rng(rng)
    z = int(_reference_draw(_cdf(model.alpha[node - 1]), rng.random()))
    return _reference_sample(model.components[z], length, rng)


def _reference_forecast(model, prefix, node, horizon, num_samples, rng):
    post = condition(model, prefix, node)
    rng = np.random.default_rng(rng)
    z = _reference_draw(_cdf(post.weights)[None, :], rng.random(num_samples))
    state = _reference_draw(_cdf(post.conditional_initials)[z], rng.random(num_samples))
    return np.array([emitted.mean(axis=0) for emitted in
                     _reference_chains(post.components, (z,), state, horizon, rng)])


def _zeroed_mixture(rng, s, d):
    """Three components with exact-zero transitions; the second is inert at node 1."""
    comps = []
    for _ in range(3):
        transition = rng.dirichlet(np.ones(s), size=s)
        keep = transition >= transition.max(axis=1, keepdims=True) * 0.6
        transition = np.where(keep, transition, 0.0)
        transition /= transition.sum(axis=1, keepdims=True)
        comps.append(GaussianHmm(rng.dirichlet(np.ones(s)), transition,
                                 rng.normal(0.0, 2.0, size=(s, d)),
                                 rng.uniform(0.2, 2.0, size=(s, d))))
    beta = rng.uniform(0.2, 1.5, size=(2, 3))
    beta[0, 1] = -1.0
    return SparseMixtureModel(comps, reparameterize_rows(beta), beta)


class TestStreamOrder:
    """The batched sampler keeps the per-step generator's draws and bits."""

    @pytest.mark.parametrize("d", [1, 2, 3, 8, 9])
    @pytest.mark.parametrize("s", [1, 3, 16])
    def test_bit_identical_to_per_step_generator(self, s, d):
        rng = np.random.default_rng(100 * s + d)
        model = _zeroed_mixture(rng, s, d)
        if s > 1:
            assert np.any(model.components.transition == 0.0)
        prefix = rng.normal(size=(4, d))
        assert condition(model, prefix, 1).inert[1]
        for seed, (num_samples, horizon) in enumerate(
                [(n, h) for n in (1, 7, 8, 100) for h in (1, 10)]):
            got = forecast_mean(model, prefix, 1, horizon, num_samples, seed)
            want = _reference_forecast(model, prefix, 1, horizon, num_samples, seed)
            assert got.shape == want.shape == (horizon, d)
            assert got.tobytes() == want.tobytes(), (num_samples, horizon)
        for length in (1, 10):
            for node in (1, 2):
                got = sample_from_node(model, node, length, length + node)
                want = _reference_sample_from_node(model, node, length, length + node)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            got = sample(model.components[2], length, length)
            want = _reference_sample(model.components[2], length, length)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("s", [1, 16])
    def test_long_single_chains_bit_identical(self, s):
        # the single-chain loop of sample keeps the per-step generator's bits
        # over long runs, through exact-zero transitions and unreachable
        # trailing states (zero initial entries, zero columns)
        rng = np.random.default_rng(40 + s)
        model = _zeroed_mixture(rng, s, 3)
        comps = model.components
        if s > 1:
            initial, transition = comps.initial.copy(), comps.transition.copy()
            means = comps.means.copy()
            initial[:, -2:] = transition[:, :, -2:] = 0.0
            transition[:, :, 0] += 1e-3
            transition /= transition.sum(axis=2, keepdims=True)
            initial /= initial.sum(axis=1, keepdims=True)
            means[:, -2:] = 1e6
            comps = GaussianHmm(initial, transition, means, comps.variances)
            model = SparseMixtureModel(comps, model.alpha, model.beta)
            assert np.count_nonzero(comps.transition == 0.0) > 2 * 3 * s
        for seed in range(3):
            for m in range(3):
                got = sample(comps[m], 1500, seed)
                want = _reference_sample(comps[m], 1500, seed)
                assert got.shape == want.shape == (1500, 3)
                assert got.tobytes() == want.tobytes(), (seed, m)
                if s > 1:
                    assert np.abs(got).max() < 1e5  # the trailing states never emit
            for node in (1, 2):
                got = sample_from_node(model, node, 1500, seed)
                want = _reference_sample_from_node(model, node, 1500, seed)
                assert got.tobytes() == want.tobytes(), (seed, node)
