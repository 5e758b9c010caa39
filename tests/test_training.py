"""EM update checks: closed forms, gradient mode, initialization, baselines."""

import numpy as np
import pytest

from graphhmm.hmm import VARIANCE_FLOOR, GaussianHmm
from graphhmm.mixture import (AffinityGraph, SequenceDataset, SparseMixtureModel,
                              mixture_log_likelihood, mixture_posteriors,
                              regularizer_value, reparameterize_rows)
from graphhmm.training import (AdamState, FitResult, InitSpec, TrainConfig,
                               _update_scores, baseline_state_counts, em_step_mhmm,
                               _kmeans, _kmeans_plus_plus, em_step_spamhmm, fit,
                               fit_per_node, fit_single_hmm, initialize_model)

from conftest import enum_posteriors, random_hmm


def small_dataset(rng, nodes, lengths, dim=1):
    return SequenceDataset([(node, rng.normal(size=(t, dim)))
                            for node, t in zip(nodes, lengths)])


def baum_welch_oracle(hmm, seqs):
    """Single-HMM update recomputed from enumeration posteriors."""
    n = len(seqs)
    s_count, dim = hmm.num_states, hmm.dim
    pi_num = np.zeros(s_count)
    trans_num = np.zeros((s_count, s_count))
    trans_den = np.zeros(s_count)
    occ = np.zeros(s_count)
    mean_num = np.zeros((s_count, dim))
    posts = []
    for seq in seqs:
        _, gamma, xi = enum_posteriors(hmm, seq)
        posts.append(gamma)
        pi_num += gamma[0]
        trans_num += xi.sum(axis=0)
        trans_den += gamma[:-1].sum(axis=0)
        occ += gamma[1:].sum(axis=0)
        mean_num += gamma[1:].T @ seq
    initial = pi_num / n
    transition = trans_num / trans_den[:, None]
    means = mean_num / occ[:, None]
    var_num = np.zeros((s_count, dim))
    for seq, gamma in zip(seqs, posts):
        diff = seq[:, None, :] - means[None, :, :]
        var_num += np.einsum("ts,tsd->sd", gamma[1:], diff * diff)
    variances = np.maximum(var_num / occ[:, None], VARIANCE_FLOOR)
    return initial, transition, means, variances


class TestClosedFormUpdates:
    def test_single_component_matches_baum_welch(self):
        rng = np.random.default_rng(0)
        hmm = random_hmm(rng, 2, 1)
        model = SparseMixtureModel([hmm], [[1.0]])
        seqs = [rng.normal(size=(4, 1)), rng.normal(size=(3, 1)), rng.normal(size=(5, 1))]
        data = SequenceDataset([(1, s) for s in seqs])
        updated, _ = em_step_mhmm(model, data)
        initial, transition, means, variances = baum_welch_oracle(hmm, seqs)
        comp = updated.components[0]
        np.testing.assert_allclose(comp.initial, initial, rtol=0, atol=1e-9)
        np.testing.assert_allclose(comp.transition, transition, rtol=0, atol=1e-9)
        np.testing.assert_allclose(comp.means, means, rtol=0, atol=1e-9)
        np.testing.assert_allclose(comp.variances, variances, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(updated.alpha, [[1.0]])

    def test_alpha_update_is_mean_responsibility(self):
        rng = np.random.default_rng(1)
        comps = [random_hmm(rng, 2, 1) for _ in range(3)]
        alpha = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
        model = SparseMixtureModel(comps, alpha)
        data = small_dataset(rng, [1, 1, 2, 1, 2], [3, 4, 3, 2, 5])
        stats = mixture_posteriors(model, data)
        updated, _ = em_step_mhmm(model, data)
        for node in (1, 2):
            rows = stats.eta[stats.nodes == node]
            np.testing.assert_allclose(updated.alpha[node - 1], rows.mean(axis=0),
                                       rtol=0, atol=1e-12)

    def test_objective_is_pre_update(self):
        rng = np.random.default_rng(2)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.4, 0.6]])
        data = small_dataset(rng, [1, 1], [3, 4])
        _, objective = em_step_mhmm(model, data)
        expected = sum(mixture_log_likelihood(model, item.seq, item.node)
                       for item in data.items)
        np.testing.assert_allclose(objective, expected, rtol=0, atol=1e-12)

    def test_node_without_data_keeps_row_and_warns(self):
        rng = np.random.default_rng(3)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        alpha = np.array([[0.4, 0.6], [0.3, 0.7]])
        model = SparseMixtureModel(comps, alpha)
        data = small_dataset(rng, [1, 1], [3, 3])
        warnings = []
        updated, _ = em_step_mhmm(model, data, warnings)
        np.testing.assert_array_equal(updated.alpha[1], alpha[1])
        assert any("node 2" in w for w in warnings)

    def test_monotone_over_iterations(self):
        rng = np.random.default_rng(4)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.5, 0.5], [0.5, 0.5]])
        data = small_dataset(rng, [1, 2, 1, 2, 1, 2], [4, 5, 3, 4, 5, 3])
        values = []
        for _ in range(15):
            model, objective = em_step_mhmm(model, data)
            values.append(objective)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-8), f"objective decreased: min diff {diffs.min():.3g}"


class TestGradientMode:
    def test_lam_zero_components_match_closed_form_mode(self):
        rng = np.random.default_rng(5)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        beta = np.array([[0.9, 0.4], [0.3, 1.1]])
        alpha = reparameterize_rows(beta)
        data = small_dataset(rng, [1, 2, 1, 2], [3, 4, 5, 3])
        graph = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        config = TrainConfig(lam=0.0, inner_iters=10, learning_rate=1e-2)
        with_scores = SparseMixtureModel(comps, alpha, beta)
        plain = SparseMixtureModel(comps, alpha)
        reg_model, _ = em_step_spamhmm(with_scores, data, graph, config)
        plain_model, _ = em_step_mhmm(plain, data)
        for a, b in zip(reg_model.components, plain_model.components):
            np.testing.assert_allclose(a.initial, b.initial, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.transition, b.transition, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.means, b.means, rtol=0, atol=1e-12)
            np.testing.assert_allclose(a.variances, b.variances, rtol=0, atol=1e-12)

    def test_zero_gradient_leaves_scores_unchanged(self):
        # a saturated row (one positive score) has responsibilities exactly
        # equal to the coefficients, and an empty graph kills the affinity
        # pull, so the gradient is bitwise zero and the scores must not move
        rng = np.random.default_rng(6)
        comps = [random_hmm(rng, 2, 1), random_hmm(rng, 2, 1)]
        beta = np.array([[0.7, -0.5]])
        model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1, 1], [4, 3])
        graph = AffinityGraph(np.zeros((1, 1)))
        config = TrainConfig(lam=0.5, inner_iters=25, learning_rate=0.05)
        updated, _ = em_step_spamhmm(model, data, graph, config)
        np.testing.assert_array_equal(updated.beta, beta)

    def test_objective_is_pre_update_penalized(self):
        rng = np.random.default_rng(7)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        beta = np.array([[0.9, 0.4], [0.3, 1.1]])
        model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1, 2, 2], [3, 4, 3])
        graph = AffinityGraph([[0.0, 0.7], [0.7, 0.0]])
        config = TrainConfig(lam=0.2, inner_iters=5)
        _, objective = em_step_spamhmm(model, data, graph, config)
        lls = [mixture_log_likelihood(model, item.seq, item.node) for item in data.items]
        expected = np.mean(lls) + 0.2 * regularizer_value(model.alpha, graph)
        np.testing.assert_allclose(objective, expected, rtol=0, atol=1e-12)

    def test_requires_scores(self):
        rng = np.random.default_rng(8)
        model = SparseMixtureModel([random_hmm(rng, 2, 1)], [[1.0]])
        data = small_dataset(rng, [1], [3])
        with pytest.raises(ValueError, match="beta"):
            em_step_spamhmm(model, data, AffinityGraph(np.zeros((1, 1))), TrainConfig())

    def test_graph_size_mismatch(self):
        rng = np.random.default_rng(9)
        beta = np.array([[0.7, 0.5]])
        model = SparseMixtureModel([random_hmm(rng, 2, 1), random_hmm(rng, 2, 1)],
                                   reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1], [3])
        with pytest.raises(ValueError, match="nodes"):
            em_step_spamhmm(model, data, AffinityGraph(np.zeros((3, 3))), TrainConfig())

    def test_dead_row_reset(self):
        # adversarial responsibilities force every score in the row below
        # zero, which must trigger the uniform reset and a warning
        rng = np.random.default_rng(10)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        beta = np.array([[0.05, 0.05]])
        model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1], [3])
        stats = mixture_posteriors(model, data)
        stats.eta = np.array([[0.0, 0.0]])
        graph = AffinityGraph(np.zeros((1, 1)))
        config = TrainConfig(lam=0.0, inner_iters=3, learning_rate=0.1)
        warnings = []
        adam = AdamState.zeros(beta.shape)
        _, new_beta = _update_scores(model, stats, graph, config, adam, warnings)
        assert any("reset" in w for w in warnings)
        assert np.all(new_beta > 0.0)

    def test_adam_step_properties(self):
        from graphhmm.training import adam_ascent_step
        config = TrainConfig(learning_rate=0.02)
        state = AdamState.zeros((2, 2))
        step = None
        for _ in range(3):
            step = adam_ascent_step(state, np.full((2, 2), 5.0), config)
        # constant gradient: step magnitude approaches the learning rate
        assert np.all(np.abs(step) <= 0.02 * 1.01)
        # bitwise-zero gradient from fresh moments gives a bitwise-zero step
        fresh = AdamState.zeros((2, 2))
        np.testing.assert_array_equal(adam_ascent_step(fresh, np.zeros((2, 2)), config),
                                      np.zeros((2, 2)))


class TestInitialization:
    def test_deterministic_and_invariant(self):
        rng = np.random.default_rng(11)
        data = small_dataset(rng, [1, 2, 1], [10, 12, 8], dim=2)
        a = initialize_model(data, 2, 3, 2, rng_seed=7, with_scores=True)
        b = initialize_model(data, 2, 3, 2, rng_seed=7, with_scores=True)
        np.testing.assert_array_equal(a.alpha, b.alpha)
        np.testing.assert_array_equal(a.beta, b.beta)
        np.testing.assert_array_equal(a.components[0].means, b.components[0].means)
        np.testing.assert_array_equal(a.alpha, reparameterize_rows(a.beta))
        c = initialize_model(data, 2, 3, 2, rng_seed=8, with_scores=True)
        assert not np.array_equal(a.alpha, c.alpha)

    def test_without_scores(self):
        rng = np.random.default_rng(12)
        data = small_dataset(rng, [1], [10])
        model = initialize_model(data, 1, 2, 2, rng_seed=0, with_scores=False)
        assert model.beta is None
        np.testing.assert_allclose(model.alpha.sum(axis=1), 1.0, rtol=0, atol=1e-12)

    def test_kmeans_centers_separate_clusters(self):
        rng = np.random.default_rng(13)
        lo = rng.normal(-5.0, 0.1, size=(40, 1))
        hi = rng.normal(5.0, 0.1, size=(40, 1))
        data = SequenceDataset([(1, np.concatenate([lo, hi]))])
        model = initialize_model(data, 1, 1, 2, rng_seed=0, with_scores=False)
        means = np.sort(model.components[0].means.ravel())
        assert abs(means[0] - (-5.0)) < 0.5 and abs(means[1] - 5.0) < 0.5

    @staticmethod
    def kmeans_oracle(frames, k, rng, max_iters=100):
        """Lloyd iterations with the (N, k, D) distance array summed over features."""
        centers = _kmeans_plus_plus(frames, k, rng)
        labels = None
        for _ in range(max_iters):
            d2 = np.sum((frames[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            new_labels = np.argmin(d2, axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(k):
                members = frames[labels == j]
                if members.shape[0] > 0:
                    centers[j] = members.mean(axis=0)
        return centers

    def test_kmeans_matches_summed_distances(self):
        # below 8 features numpy sums a row of squares in plain order, so the
        # per-feature accumulation gives the same distances bit for bit
        rng = np.random.default_rng(15)
        for case in range(70):
            dim = case % 7 + 1
            n, k = int(rng.integers(5, 120)), int(rng.integers(1, 6))
            frames = rng.normal(size=(n, dim)) * rng.uniform(0.1, 10.0)
            if case % 2:
                # coarse values and duplicated frames give tied distances
                frames = np.round(frames, 1)
                frames[n // 2:] = frames[:n - n // 2]
            got = _kmeans(frames, k, np.random.default_rng(case))
            expected = self.kmeans_oracle(frames, k, np.random.default_rng(case))
            assert np.array_equal(got, expected)

    def test_too_few_frames(self):
        rng = np.random.default_rng(14)
        data = small_dataset(rng, [1], [2])
        with pytest.raises(ValueError, match="frames"):
            initialize_model(data, 1, 1, 5, rng_seed=0, with_scores=False)


class TestFit:
    def test_mode_selection(self):
        rng = np.random.default_rng(15)
        data = small_dataset(rng, [1, 2, 1, 2], [6, 6, 6, 6])
        graph = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        config = TrainConfig(outer_iters=2, inner_iters=3)
        assert fit(data, None, config, InitSpec(2, 2)).mode == "mhmm"
        assert fit(data, graph, config, InitSpec(2, 2)).mode == "mhmm"  # lam = 0
        reg = fit(data, graph, TrainConfig(lam=0.1, outer_iters=2, inner_iters=3),
                  InitSpec(2, 2))
        assert reg.mode == "spamhmm"
        assert reg.model.beta is not None
        assert fit(data, None, config, InitSpec(2, 2)).model.beta is None

    def test_determinism(self):
        rng = np.random.default_rng(16)
        data = small_dataset(rng, [1, 2, 1, 2], [6, 6, 6, 6])
        graph = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        config = TrainConfig(lam=0.1, outer_iters=3, inner_iters=5, rng_seed=3)
        a = fit(data, graph, config, InitSpec(2, 2))
        b = fit(data, graph, config, InitSpec(2, 2))
        np.testing.assert_array_equal(a.model.alpha, b.model.alpha)
        np.testing.assert_array_equal(a.model.components[0].means,
                                      b.model.components[0].means)
        np.testing.assert_array_equal(a.objectives, b.objectives)

    def test_plateau_stops_early(self):
        rng = np.random.default_rng(17)
        data = SequenceDataset([(1, rng.normal(size=(3, 1)))])
        config = TrainConfig(outer_iters=60, plateau_tol=1e-6, plateau_patience=5)
        result = fit(data, None, config, InitSpec(1, 1))
        # a one-state model converges in one step, so the plateau check
        # must fire long before the iteration cap
        assert len(result.objectives) - 1 < 60

    def test_objective_trace_has_final_value(self):
        rng = np.random.default_rng(18)
        data = small_dataset(rng, [1, 1], [5, 5])
        config = TrainConfig(outer_iters=4, plateau_patience=100)
        result = fit(data, None, config, InitSpec(2, 2))
        assert len(result.objectives) == 5
        expected = sum(mixture_log_likelihood(result.model, item.seq, item.node)
                       for item in data.items)
        np.testing.assert_allclose(result.objectives[-1], expected, rtol=0, atol=1e-9)

    def test_node_id_beyond_declared_count(self):
        rng = np.random.default_rng(19)
        data = small_dataset(rng, [1, 3], [5, 5])
        with pytest.raises(ValueError, match="node id 3"):
            fit(data, None, TrainConfig(outer_iters=1), InitSpec(2, 2, num_nodes=2))

    def test_graph_init_node_count_conflict(self):
        rng = np.random.default_rng(20)
        data = small_dataset(rng, [1], [5])
        graph = AffinityGraph(np.zeros((3, 3)))
        with pytest.raises(ValueError, match="nodes"):
            fit(data, graph, TrainConfig(outer_iters=1, lam=0.1),
                InitSpec(2, 2, num_nodes=2))


class TestBaselines:
    def test_parity_state_counts(self):
        assert baseline_state_counts(15, 10, 9) == (39, 13)
        assert baseline_state_counts(4, 3, 4) == (6, 3)
        assert baseline_state_counts(1, 5, 1) == (5, 5)

    def test_single_hmm_shape(self):
        rng = np.random.default_rng(21)
        data = small_dataset(rng, [1, 2, 3], [8, 8, 8])
        result = fit_single_hmm(data, TrainConfig(outer_iters=2), num_states=2)
        assert result.model.num_components == 1
        np.testing.assert_array_equal(result.model.alpha, np.ones((3, 1)))

    def test_per_node_shape(self):
        rng = np.random.default_rng(22)
        data = small_dataset(rng, [1, 2, 1, 2], [8, 8, 8, 8])
        result = fit_per_node(data, TrainConfig(outer_iters=2), num_states=2)
        assert result.model.num_components == 2
        np.testing.assert_array_equal(result.model.alpha, np.eye(2))

    def test_per_node_requires_data_everywhere(self):
        rng = np.random.default_rng(23)
        data = small_dataset(rng, [1, 3], [8, 8])
        with pytest.raises(ValueError, match="node 2"):
            fit_per_node(data, TrainConfig(outer_iters=1), num_states=2)


class TestConfigValidation:
    def test_negative_lam(self):
        with pytest.raises(ValueError, match="lam"):
            TrainConfig(lam=-0.1)

    def test_bad_iteration_counts(self):
        with pytest.raises(ValueError, match="iteration"):
            TrainConfig(outer_iters=0)

    def test_bad_learning_rate(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
