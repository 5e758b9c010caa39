"""Mixture-level checks: reparameterization, responsibilities, penalty, gradient."""

import mpmath
import numpy as np
import pytest

from graphhmm.hmm import GaussianHmm
from graphhmm.mixture import (AffinityGraph, SequenceDataset, SparseMixtureModel,
                              coefficient_gradient, mixture_log_likelihood,
                              mixture_posteriors, regularizer_value, reparameterize,
                              reparameterize_rows, sample_from_node)
from graphhmm.training import em_step_mhmm

from conftest import enum_mixture_log_likelihood, random_hmm


def random_alpha_rows(rng, k, m):
    a = rng.uniform(0.1, 1.0, size=(k, m))
    return a / a.sum(axis=1, keepdims=True)


def make_mixture(rng, k=2, m=3, s=2, d=1, beta=None):
    comps = [random_hmm(rng, s, d) for _ in range(m)]
    if beta is None:
        beta = rng.uniform(0.2, 1.5, size=(k, m))
    alpha = reparameterize_rows(beta)
    return SparseMixtureModel(comps, alpha, beta)


class TestReparameterize:
    def test_equal_scores(self):
        np.testing.assert_array_equal(reparameterize([1.0, 1.0]), [0.5, 0.5])

    def test_negative_score_gives_exact_zero(self):
        out = reparameterize([-1.0, 2.0])
        assert out[0] == 0.0
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_squaring(self):
        np.testing.assert_allclose(reparameterize([1.0, 2.0]), [0.2, 0.8],
                                   rtol=0, atol=1e-15)

    def test_degenerate_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            reparameterize([-1.0, 0.0, -0.5])

    def test_rows_version(self):
        out = reparameterize_rows([[1.0, 1.0], [-1.0, 2.0]])
        np.testing.assert_array_equal(out, [[0.5, 0.5], [0.0, 1.0]])

    def test_rows_match_each_row_alone(self):
        # wide rows in either memory order, so a changed summation order shows
        rng = np.random.default_rng(1)
        beta = rng.normal(size=(7, 12))
        beta[:, 0] = 1.0
        expected = [np.maximum(row, 0.0) ** 2 / np.sum(np.maximum(row, 0.0) ** 2)
                    for row in beta]
        for arr in (beta, np.asfortranarray(beta)):
            np.testing.assert_array_equal(reparameterize_rows(arr), expected)
        beta[3] = -1.0
        with pytest.raises(ValueError, match="degenerate"):
            reparameterize_rows(beta)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(-1, 2, size=5)
        row[0] = 1.0  # keep at least one positive entry
        np.testing.assert_allclose(reparameterize(row), reparameterize(3.7 * row),
                                   rtol=0, atol=1e-15)


class TestGraphValidation:
    def test_asymmetry_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            AffinityGraph([[0.0, 1.0], [0.5, 0.0]])

    def test_nonzero_diagonal_rejected(self):
        with pytest.raises(ValueError, match="diagonal"):
            AffinityGraph([[0.1, 1.0], [1.0, 0.0]])

    def test_normalized(self):
        g = AffinityGraph([[0.0, 4.0], [4.0, 0.0]]).normalized()
        np.testing.assert_array_equal(g.weights, [[0.0, 1.0], [1.0, 0.0]])

    def test_normalize_all_zero_rejected(self):
        with pytest.raises(ValueError, match="positive maximum"):
            AffinityGraph(np.zeros((2, 2))).normalized()


class TestMixtureLikelihood:
    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            model = make_mixture(rng, k=2, m=3, s=2, d=2)
            seq = rng.normal(size=(4, 2))
            np.testing.assert_allclose(
                mixture_log_likelihood(model, seq, 1),
                enum_mixture_log_likelihood(model, seq, 1),
                rtol=0, atol=1e-9)

    def test_matches_extended_precision(self):
        # same quantity recomputed with 50-digit arithmetic, path by path
        rng = np.random.default_rng(2)
        model = make_mixture(rng, k=1, m=2, s=2, d=1)
        seq = rng.normal(size=(3, 1))
        with mpmath.workdps(50):
            total = mpmath.mpf(0)
            for m, comp in enumerate(model.components):
                comp_p = mpmath.mpf(0)
                for path in np.ndindex(*([comp.num_states] * (len(seq) + 1))):
                    p = mpmath.mpf(comp.initial[path[0]])
                    for t in range(1, len(path)):
                        p *= mpmath.mpf(comp.transition[path[t - 1], path[t]])
                        for d in range(comp.dim):
                            var = mpmath.mpf(comp.variances[path[t], d])
                            diff = mpmath.mpf(seq[t - 1, d]) - mpmath.mpf(comp.means[path[t], d])
                            p *= mpmath.exp(-diff * diff / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)
                    comp_p += p
                total += mpmath.mpf(model.alpha[0, m]) * comp_p
            expected = float(mpmath.log(total))
        np.testing.assert_allclose(mixture_log_likelihood(model, seq, 1),
                                   expected, rtol=0, atol=1e-12)

    def test_zero_coefficient_component_ignored(self):
        rng = np.random.default_rng(3)
        comp = random_hmm(rng, 2, 1)
        far = random_hmm(rng, 2, 1)
        model = SparseMixtureModel([comp, far], [[1.0, 0.0]], beta=[[1.0, -1.0]])
        solo = SparseMixtureModel([comp], [[1.0]])
        seq = rng.normal(size=(5, 1))
        assert mixture_log_likelihood(model, seq, 1) == mixture_log_likelihood(solo, seq, 1)

    def test_out_of_range_node(self):
        rng = np.random.default_rng(4)
        model = make_mixture(rng, k=2)
        with pytest.raises(ValueError, match="out of range"):
            mixture_log_likelihood(model, np.zeros((2, 1)), 3)
        with pytest.raises(ValueError, match="out of range"):
            mixture_log_likelihood(model, np.zeros((2, 1)), 0)


class TestResponsibilities:
    def test_rows_sum_to_one_and_match_direct(self):
        rng = np.random.default_rng(5)
        model = make_mixture(rng, k=2, m=3, s=2, d=1)
        data = SequenceDataset([(1, rng.normal(size=(3, 1))),
                                (2, rng.normal(size=(4, 1))),
                                (1, rng.normal(size=(2, 1)))])
        stats = mixture_posteriors(model, data)
        np.testing.assert_allclose(stats.eta.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        from graphhmm.hmm import log_likelihood
        for i, item in enumerate(data.items):
            joint = np.array([np.log(model.alpha[item.node - 1, m])
                              + log_likelihood(model.components[m], item.seq)
                              for m in range(3)])
            direct = np.exp(joint - mixture_log_likelihood(model, item.seq, item.node))
            np.testing.assert_allclose(stats.eta[i], direct, rtol=0, atol=1e-12)
            np.testing.assert_allclose(stats.log_likelihoods[i],
                                       mixture_log_likelihood(model, item.seq, item.node),
                                       rtol=0, atol=1e-12)

    def test_zero_prior_gives_exact_zero_eta_and_no_posterior(self):
        rng = np.random.default_rng(6)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.0, 1.0]], beta=[[-0.5, 2.0]])
        data = SequenceDataset([(1, rng.normal(size=(3, 1)))])
        stats = mixture_posteriors(model, data)
        assert stats.eta[0, 0] == 0.0
        live = {(i, m) for b in stats.blocks for i, m in zip(b.seq, b.comp)}
        assert (0, 0) not in live
        assert (0, 1) in live

    def test_one_component_at_zero_likelihood_gets_zero_eta(self):
        # the first component's density overflows to exactly zero; the
        # second still explains the sequence, so the mixture is finite
        comps = [GaussianHmm([1.0], [[1.0]], [[0.0]], [[1e-6]]),
                 GaussianHmm([1.0], [[1.0]], [[0.0]], [[1e300]])]
        model = SparseMixtureModel(comps, [[0.5, 0.5]])
        seq = np.array([[1e154]])
        data = SequenceDataset([(1, seq)])
        total = mixture_log_likelihood(model, seq, 1)
        np.testing.assert_allclose(total, -5.0e7, rtol=1e-4)
        stats = mixture_posteriors(model, data)
        np.testing.assert_array_equal(stats.eta, [[0.0, 1.0]])
        assert stats.log_likelihoods[0] == total
        (block,) = stats.blocks
        dead = list(zip(block.seq, block.comp)).index((0, 0))
        assert np.all(block.gamma[dead] == 0.0) and np.all(block.transitions[dead] == 0.0)
        assert np.all(np.isfinite(block.gamma)) and np.all(np.isfinite(block.transitions))

        warnings = []
        updated, objective = em_step_mhmm(model, data, warnings)
        assert objective == total
        assert updated.components[0] is comps[0]
        assert any("component 1" in w for w in warnings)
        np.testing.assert_array_equal(updated.components[1].means, [[1e154]])
        np.testing.assert_array_equal(updated.alpha, [[0.0, 1.0]])

    def test_zero_likelihood_under_every_component_names_the_record(self):
        comps = [GaussianHmm([1.0], [[1.0]], [[0.0]], [[1e-6]]),
                 GaussianHmm([1.0], [[1.0]], [[0.0]], [[1e300]])]
        model = SparseMixtureModel(comps, [[0.5, 0.5], [1.0, 0.0]])
        data = SequenceDataset([(1, np.array([[1e154]])), (2, np.array([[1e154]]))])
        with pytest.raises(ValueError, match=r"record 1 \(node 2\) has zero likelihood"):
            mixture_posteriors(model, data)

    def test_node_bookkeeping(self):
        rng = np.random.default_rng(7)
        model = make_mixture(rng, k=3)
        data = SequenceDataset([(2, rng.normal(size=(2, 1))),
                                (3, rng.normal(size=(2, 1))),
                                (2, rng.normal(size=(2, 1)))])
        stats = mixture_posteriors(model, data)
        np.testing.assert_array_equal(stats.nodes, [2, 3, 2])
        np.testing.assert_array_equal(stats.node_counts, [0, 2, 1])


class TestRegularizer:
    def test_identical_onehot_rows(self):
        g = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        assert regularizer_value([[1.0, 0.0], [1.0, 0.0]], g) == 1.0

    def test_disjoint_rows(self):
        g = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        assert regularizer_value([[1.0, 0.0], [0.0, 1.0]], g) == 0.0

    def test_uniform_rows(self):
        g = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        np.testing.assert_allclose(regularizer_value([[0.5, 0.5], [0.5, 0.5]], g),
                                   0.5, rtol=0, atol=1e-15)

    def test_bounds_on_random_instances(self):
        # for a nonnegative graph the value lies in [0, half the weight total]
        rng = np.random.default_rng(8)
        for _ in range(200):
            k, m = int(rng.integers(2, 6)), int(rng.integers(1, 5))
            w = rng.uniform(0, 2, size=(k, k))
            w = np.triu(w, 1)
            w = w + w.T
            g = AffinityGraph(w)
            alpha = random_alpha_rows(rng, k, m)
            val = regularizer_value(alpha, g)
            assert -1e-12 <= val <= 0.5 * w.sum() + 1e-12

    def test_upper_bound_attained(self):
        rng = np.random.default_rng(9)
        w = rng.uniform(0.5, 2, size=(4, 4))
        w = np.triu(w, 1)
        w = w + w.T
        g = AffinityGraph(w)
        alpha = np.zeros((4, 3))
        alpha[:, 1] = 1.0  # every node concentrated on the same component
        np.testing.assert_allclose(regularizer_value(alpha, g), 0.5 * w.sum(),
                                   rtol=0, atol=1e-12)

    def test_shape_mismatch(self):
        g = AffinityGraph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="rows"):
            regularizer_value(np.full((2, 2), 0.5), g)


class TestGradient:
    @staticmethod
    def frozen_objective(beta, stats, nodes, graph, lam):
        alpha = reparameterize_rows(beta)
        n = stats.eta.shape[0]
        data_term = 0.0
        for i in range(n):
            for m in range(stats.eta.shape[1]):
                if stats.eta[i, m] > 0.0:
                    data_term += stats.eta[i, m] * np.log(alpha[nodes[i] - 1, m])
        return data_term / n + lam * regularizer_value(alpha, graph)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(10)
        lam = 0.3
        for _ in range(5):
            k, m = 3, 4
            beta = rng.uniform(0.2, 1.5, size=(k, m))
            model = make_mixture(rng, k=k, m=m, s=2, d=1, beta=beta)
            w = rng.uniform(0, 1, size=(k, k))
            w = np.triu(w, 1)
            graph = AffinityGraph(w + w.T)
            data = SequenceDataset([(int(rng.integers(1, k + 1)), rng.normal(size=(3, 1)))
                                    for _ in range(6)])
            stats = mixture_posteriors(model, data)
            grad = coefficient_gradient(model.alpha, model.beta, stats, graph, lam)
            step = 1e-6
            for r in range(k):
                for c in range(m):
                    up = beta.copy()
                    up[r, c] += step
                    dn = beta.copy()
                    dn[r, c] -= step
                    fd = (self.frozen_objective(up, stats, stats.nodes, graph, lam)
                          - self.frozen_objective(dn, stats, stats.nodes, graph, lam)) / (2 * step)
                    denom = max(abs(fd), 1e-8)
                    assert abs(grad[r, c] - fd) / denom < 1e-5, (
                        f"grad[{r},{c}]={grad[r, c]:.10g} fd={fd:.10g}")

    def test_rectified_coordinates_get_zero(self):
        rng = np.random.default_rng(11)
        beta = np.array([[1.0, -0.5, 0.8]])
        model = make_mixture(rng, k=1, m=3, s=2, d=1, beta=beta)
        graph = AffinityGraph(np.zeros((1, 1)))
        data = SequenceDataset([(1, rng.normal(size=(3, 1)))])
        stats = mixture_posteriors(model, data)
        grad = coefficient_gradient(model.alpha, model.beta, stats, graph, 0.5)
        assert grad[0, 1] == 0.0

    def test_per_node_sum_computed_once_and_left_intact(self):
        # the gradient reads the E-step's per-node responsibility sum; it must
        # equal the per-call sum it replaced, bit for bit, and stay unchanged
        rng = np.random.default_rng(15)
        k, m, lam = 4, 3, 0.3
        beta = rng.uniform(-0.3, 1.5, size=(k, m))
        beta[:, 0] = np.abs(beta[:, 0]) + 0.1
        model = make_mixture(rng, k=k, m=m, s=2, d=1, beta=beta)
        w = np.triu(rng.uniform(-1, 1, size=(k, k)), 1)
        graph = AffinityGraph(w + w.T)
        data = SequenceDataset([(int(rng.integers(1, k)), rng.normal(size=(3, 1)))
                                for _ in range(9)])  # node k has no data
        stats = mixture_posteriors(model, data)
        expected = np.zeros((k, m))
        np.add.at(expected, stats.nodes - 1, stats.eta)
        cached = stats.eta_by_node
        assert np.array_equal(cached, expected)
        assert not cached.flags.writeable
        psi = (expected - stats.node_counts[:, None] * model.alpha) / len(data)
        overlap = model.alpha @ model.alpha.T
        cross = np.sum(graph.weights * overlap, axis=1)
        omega = model.alpha * (graph.weights @ model.alpha - cross[:, None])
        pull = psi + lam * omega
        ref = np.where(beta > 0.0, (2.0 / np.where(beta > 0.0, beta, 1.0)) * pull, 0.0)
        for _ in range(3):
            grad = coefficient_gradient(model.alpha, model.beta, stats, graph, lam)
            assert np.array_equal(grad, ref)
        assert stats.eta_by_node is cached
        assert np.array_equal(cached, expected)

    def test_requires_beta(self):
        rng = np.random.default_rng(12)
        comps = [random_hmm(rng, 2, 1)]
        model = SparseMixtureModel(comps, [[1.0]])
        graph = AffinityGraph(np.zeros((1, 1)))
        data = SequenceDataset([(1, rng.normal(size=(3, 1)))])
        stats = mixture_posteriors(model, data)
        with pytest.raises(ValueError, match="beta"):
            coefficient_gradient(model.alpha, model.beta, stats, graph, 0.1)


class TestModelValidation:
    def test_alpha_beta_inconsistency_rejected(self):
        rng = np.random.default_rng(13)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        with pytest.raises(ValueError, match="reparameterization"):
            SparseMixtureModel(comps, [[0.5, 0.5]], beta=[[1.0, 2.0]])

    def test_component_shape_mismatch_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(ValueError, match="component 2"):
            SparseMixtureModel([random_hmm(rng, 2, 1), random_hmm(rng, 3, 1)],
                               [[0.5, 0.5]])

    def test_unnormalized_alpha_rejected(self):
        rng = np.random.default_rng(15)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        with pytest.raises(ValueError, match="sum to 1"):
            SparseMixtureModel(comps, [[0.7, 0.7]])


class TestSampling:
    def test_determinism_and_component_index(self):
        rng = np.random.default_rng(16)
        model = make_mixture(rng, k=2, m=3, s=2, d=2)
        seq_a, comp_a = sample_from_node(model, 2, 5, 42, return_component=True)
        seq_b, comp_b = sample_from_node(model, 2, 5, 42, return_component=True)
        np.testing.assert_array_equal(seq_a, seq_b)
        assert comp_a == comp_b and 1 <= comp_a <= 3
        assert seq_a.shape == (5, 2)

    def test_component_frequencies_follow_alpha(self):
        rng = np.random.default_rng(17)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.8, 0.2]], beta=[[2.0, 1.0]])
        draw_rng = np.random.default_rng(18)
        picks = np.array([sample_from_node(model, 1, 1, draw_rng, return_component=True)[1]
                          for _ in range(4000)])
        freq = np.mean(picks == 1)
        assert 0.77 <= freq <= 0.83

    def test_zero_coefficient_component_never_drawn(self):
        rng = np.random.default_rng(19)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.0, 1.0]], beta=[[-1.0, 1.0]])
        draw_rng = np.random.default_rng(20)
        for _ in range(200):
            _, comp = sample_from_node(model, 1, 2, draw_rng, return_component=True)
            assert comp == 2
