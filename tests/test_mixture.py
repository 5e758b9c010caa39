"""Mixture-level checks: reparameterization, responsibilities, penalty, gradient."""

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhmm.hmm import GaussianHmm, sample
from graphhmm.mixture import (AffinityGraph, RecordError, SequenceDataset,
                              SparseMixtureModel, coefficient_gradient,
                              mixture_log_likelihood, mixture_log_likelihoods,
                              mixture_posteriors, regularizer_value, reparameterize_rows,
                              sample_from_node)
from graphhmm.training import em_step_mhmm

from conftest import enum_mixture_log_likelihood, random_hmm


SETTINGS = settings(max_examples=60, derandomize=True, deadline=None)
# exact zeros of either sign, so the rectifier's boundary is drawn often
SCORES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-4.0, 4.0))


@st.composite
def score_rows(draw):
    """A (K, M) score array in which every row has at least one positive entry."""
    k, m = draw(st.integers(1, 5)), draw(st.integers(1, 9))
    beta = np.array(draw(st.lists(SCORES, min_size=k * m, max_size=k * m))).reshape(k, m)
    for row in range(k):
        beta[row, draw(st.integers(0, m - 1))] = draw(st.floats(1e-3, 4.0))
    return beta


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
        np.testing.assert_array_equal(reparameterize_rows([1.0, 1.0]), [0.5, 0.5])

    def test_negative_score_gives_exact_zero(self):
        out = reparameterize_rows([-1.0, 2.0])
        assert out[0] == 0.0
        np.testing.assert_array_equal(out, [0.0, 1.0])

    def test_squaring(self):
        np.testing.assert_allclose(reparameterize_rows([1.0, 2.0]), [0.2, 0.8],
                                   rtol=0, atol=1e-15)

    def test_degenerate_row_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            reparameterize_rows([-1.0, 0.0, -0.5])

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

    @SETTINGS
    @given(beta=score_rows(), fortran=st.booleans())
    def test_rows_match_reference_with_exact_zeros(self, beta, fortran):
        out = reparameterize_rows(np.asfortranarray(beta) if fortran else beta)
        rectified = np.maximum(beta, 0.0)
        expected = [row ** 2 / np.sum(row ** 2) for row in rectified]  # each row on its own
        assert np.array_equal(out, expected)
        zero = out[beta <= 0.0]
        assert np.all(zero == 0.0) and not np.signbit(zero).any()

    @SETTINGS
    @given(beta=score_rows(), dead=st.lists(st.floats(-4.0, 0.0), min_size=1, max_size=9),
           at=st.integers(0, 5))
    def test_row_without_positive_entry_raises(self, beta, dead, at):
        row = np.resize(np.array(dead), beta.shape[1])
        with pytest.raises(ValueError, match="degenerate"):
            reparameterize_rows(np.insert(beta, min(at, beta.shape[0]), row, axis=0))

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        row = rng.uniform(-1, 2, size=5)
        row[0] = 1.0  # keep at least one positive entry
        np.testing.assert_allclose(reparameterize_rows(row), reparameterize_rows(3.7 * row),
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

    @pytest.mark.parametrize("seed", range(4))
    def test_single_sequence_equals_the_dataset_pass_bit_for_bit(self, seed):
        # one record's score straight through the live-pair driver is the
        # dataset pass's, for M = 1..9 with a zero coefficient when M > 1
        rng = np.random.default_rng(40 + seed)
        for m in range(1, 10):
            beta = rng.uniform(0.2, 1.5, size=(3, m))
            if m > 1:
                beta[rng.integers(3), rng.integers(m)] = 0.0
            model = make_mixture(rng, k=3, m=m, s=int(rng.integers(1, 4)), d=2, beta=beta)
            for node in (1, 2, 3):
                seq = rng.normal(size=(int(rng.integers(1, 30)), 2))
                single = mixture_log_likelihood(model, seq, node)
                batch = mixture_log_likelihoods(model, SequenceDataset([(node, seq)]))[0]
                assert np.float64(single).tobytes() == np.float64(batch).tobytes()

    def test_single_sequence_builds_no_dataset(self, monkeypatch):
        rng = np.random.default_rng(41)
        model = make_mixture(rng, k=2)
        built = []
        post_init = SequenceDataset.__post_init__

        def spy(dataset):
            built.append(len(dataset.items))
            post_init(dataset)

        monkeypatch.setattr(SequenceDataset, "__post_init__", spy)
        mixture_log_likelihood(model, rng.normal(size=(5, 1)), 2)
        assert built == []
        SequenceDataset([(1, np.zeros((2, 1)))])  # the spy does see a dataset built
        assert built == [1]

    @pytest.mark.parametrize("node, seq, message", [
        (0, np.zeros((2, 1)), r"node id 0 out of range \[1\.\.2\]"),
        (3, np.zeros((2, 1)), r"node id 3 out of range \[1\.\.2\]"),
        (1.0, np.zeros((2, 1)), r"node id must be an integer, got 1\.0"),
        (1, np.zeros((2, 3)), r"sequence has dimension 3, model expects 1"),
    ])
    def test_bad_inputs_keep_their_messages(self, node, seq, message):
        model = make_mixture(np.random.default_rng(42), k=2)
        with pytest.raises(ValueError, match=message):
            mixture_log_likelihood(model, seq, node)


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

        step = em_step_mhmm(model, data)
        updated = step.model
        assert step.objective == total
        for name in ("initial", "transition", "means", "variances"):
            assert np.array_equal(getattr(updated.components[0], name),
                                  getattr(comps[0], name))
        assert any("component 1" in w for w in step.warnings)
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

    def test_node_beyond_model_rejected_once_for_the_dataset(self):
        rng = np.random.default_rng(8)
        model = make_mixture(rng, k=3)
        data = SequenceDataset([(2, rng.normal(size=(2, 1))), (5, rng.normal(size=(2, 1))),
                                (4, rng.normal(size=(2, 1)))])
        with pytest.raises(ValueError, match=r"node id 5 out of range \[1\.\.3\]"):
            mixture_posteriors(model, data)

    @pytest.mark.parametrize("fn", [mixture_log_likelihoods, mixture_posteriors])
    @pytest.mark.parametrize("dim", [1, 3])
    def test_feature_dimension_must_match_the_model(self, fn, dim):
        # D = 1 data used to broadcast silently against a D = 2 model
        rng = np.random.default_rng(9)
        model = make_mixture(rng, k=2, d=2)
        data = SequenceDataset([(1, rng.normal(size=(4, dim))), (2, rng.normal(size=(3, dim)))])
        with pytest.raises(ValueError, match=f"dataset has dimension {dim}, model expects 2"):
            fn(model, data)


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

    def test_node_count_column_cached_float_and_read_only(self):
        # the gradient multiplies this column into alpha on every Adam step,
        # instead of casting the integer node counts each time
        rng = np.random.default_rng(16)
        model = make_mixture(rng, k=4, m=2, s=2, d=1)
        data = SequenceDataset([(node, rng.normal(size=(3, 1))) for node in (1, 3, 1, 2, 1)])
        stats = mixture_posteriors(model, data)
        column = stats.node_count_column
        assert column.dtype == np.float64 and column.shape == (4, 1)
        assert not column.flags.writeable
        assert np.array_equal(column[:, 0], stats.node_counts)
        assert column[:, 0].tolist() == [3.0, 1.0, 1.0, 0.0]
        assert stats.node_count_column is column

    def test_requires_beta(self):
        rng = np.random.default_rng(12)
        comps = [random_hmm(rng, 2, 1)]
        model = SparseMixtureModel(comps, [[1.0]])
        graph = AffinityGraph(np.zeros((1, 1)))
        data = SequenceDataset([(1, rng.normal(size=(3, 1)))])
        stats = mixture_posteriors(model, data)
        with pytest.raises(ValueError, match="beta"):
            coefficient_gradient(model.alpha, model.beta, stats, graph, 0.1)


class TestDatasetValidation:
    def test_record_errors_name_the_item(self):
        seq = np.zeros((2, 1))
        with pytest.raises(ValueError, match="item 1: 'node' must be an integer >= 1"):
            SequenceDataset([(1, seq), (True, seq)])
        with pytest.raises(ValueError, match="item 1: 'label' must be"):
            SequenceDataset([(1, seq), (1, seq, "odd")])
        with pytest.raises(ValueError, match="item 2: dimension 3 differs"):
            SequenceDataset([(1, seq), (2, seq), (1, np.zeros((2, 3)))])
        with pytest.raises(ValueError, match="item 0: sequence contains non-finite"):
            SequenceDataset([(1, np.array([[np.inf]]))])
        with pytest.raises(ValueError, match="item 0: sequence must contain at least one"):
            SequenceDataset([(1, np.zeros((0, 1)))])

    def test_zero_width_sequence_rejected(self):
        with pytest.raises(ValueError, match="item 1: sequence must have at least one feature"):
            SequenceDataset([(1, np.zeros((3, 1))), (2, np.zeros((3, 0)))])
        with pytest.raises(ValueError, match="item 0: sequence must have at least one feature"):
            SequenceDataset([(1, np.zeros((3, 0)))])

    def test_failure_carries_index_and_bare_reason(self):
        seq = np.zeros((2, 1))
        with pytest.raises(RecordError) as info:
            SequenceDataset([(1, seq), (1, seq), (1, seq, "odd")])
        assert info.value.index == 2
        assert info.value.reason.startswith("'label' must be")
        assert str(info.value) == f"item 2: {info.value.reason}"


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

    def test_same_draws_as_generator_choice(self):
        rng = np.random.default_rng(22)
        comps = [random_hmm(rng, 2, 1) for _ in range(3)]
        # the last component has weight zero at node 1: a trailing zero
        model = SparseMixtureModel(comps, [[0.3, 0.7, 0.0], [0.0, 0.4, 0.6]])
        for seed in range(200):
            node = 1 + seed % 2
            ref_rng = np.random.default_rng(seed)
            z = int(ref_rng.choice(3, p=model.alpha[node - 1]))
            ref = sample(model.components[z], 4, ref_rng)
            seq, comp = sample_from_node(model, node, 4, seed, return_component=True)
            assert comp == z + 1
            np.testing.assert_array_equal(seq, ref)

    def test_zero_coefficient_component_never_drawn(self):
        rng = np.random.default_rng(19)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.0, 1.0]], beta=[[-1.0, 1.0]])
        draw_rng = np.random.default_rng(20)
        for _ in range(200):
            _, comp = sample_from_node(model, 1, 2, draw_rng, return_component=True)
            assert comp == 2
