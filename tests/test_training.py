"""EM update checks: closed forms, gradient mode, initialization, baselines."""

import itertools

import numpy as np
import pytest

from graphhmm import kernels, mixture, training
from graphhmm.hmm import VARIANCE_FLOOR, GaussianHmm
from graphhmm.mixture import (AffinityGraph, MixtureSufficientStats, SequenceDataset,
                              SparseMixtureModel, mixture_log_likelihood, mixture_posteriors,
                              regularizer_value, reparameterize_rows)
from graphhmm.training import (AdamState, FitResult, InitSpec, TrainConfig,
                               _update_scores, _weighted_square_deviations,
                               baseline_state_counts, em_step_mhmm,
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


def reference_gradient(alpha, beta, stats, graph, lam):
    """coefficient_gradient as one expression per term, with fresh temporaries."""
    n = stats.eta.shape[0]
    psi = stats.eta_by_node - stats.node_counts[:, None] * alpha
    psi /= n
    overlap = alpha @ alpha.T
    cross = np.sum(graph.weights * overlap, axis=1)
    omega = alpha * (graph.weights @ alpha - cross[:, None])
    pull = psi + lam * omega
    safe_beta = np.where(beta > 0.0, beta, 1.0)
    return np.where(beta > 0.0, (2.0 / safe_beta) * pull, 0.0)


def reference_adam_step(state, grad, config):
    """adam_ascent_step as Kingma & Ba write it, rebinding the moments."""
    state.t += 1
    state.m = training.ADAM_BETA1 * state.m + (1.0 - training.ADAM_BETA1) * grad
    state.v = training.ADAM_BETA2 * state.v + (1.0 - training.ADAM_BETA2) * (grad * grad)
    m_hat = state.m / (1.0 - training.ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - training.ADAM_BETA2 ** state.t)
    return config.learning_rate * m_hat / (np.sqrt(v_hat) + training.ADAM_EPS)


def reference_rectifier(beta):
    r = np.maximum(np.ascontiguousarray(beta, dtype=np.float64), 0.0)
    r = r * r
    total = r.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise ValueError("degenerate score row: no positive entry")
    return r / total


def reference_update_scores(model, stats, graph, config, adam, warnings):
    """_update_scores over the three reference formulas above."""
    beta = model.beta.copy()
    alpha = model.alpha.copy()
    for _ in range(config.inner_iters):
        grad = reference_gradient(alpha, beta, stats, graph, config.lam)
        beta = beta + reference_adam_step(adam, grad, config)
        dead = np.all(beta <= 0.0, axis=1)
        if np.any(dead):
            beta[dead] = 0.1
            adam.reset_rows(dead)
            warnings.append(f"nodes {np.flatnonzero(dead) + 1}: all scores fell to zero, "
                            f"rows reset to uniform")
        alpha = reference_rectifier(beta)
    return alpha, beta


class TestClosedFormUpdates:
    def test_single_component_matches_baum_welch(self):
        rng = np.random.default_rng(0)
        hmm = random_hmm(rng, 2, 1)
        model = SparseMixtureModel([hmm], [[1.0]])
        seqs = [rng.normal(size=(4, 1)), rng.normal(size=(3, 1)), rng.normal(size=(5, 1))]
        data = SequenceDataset([(1, s) for s in seqs])
        updated = em_step_mhmm(model, data).model
        initial, transition, means, variances = baum_welch_oracle(hmm, seqs)
        comp = updated.components[0]
        np.testing.assert_allclose(comp.initial, initial, rtol=0, atol=1e-9)
        np.testing.assert_allclose(comp.transition, transition, rtol=0, atol=1e-9)
        np.testing.assert_allclose(comp.means, means, rtol=0, atol=1e-9)
        np.testing.assert_allclose(comp.variances, variances, rtol=0, atol=1e-9)
        np.testing.assert_array_equal(updated.alpha, [[1.0]])

    @staticmethod
    def summed_square_deviations(gamma, seqs, means):
        """_weighted_square_deviations with (B, C, S, D) deviations and one einsum per chunk."""
        b_count, t_len, s_count = gamma.shape
        chunk = max(1, kernels.CHUNK_CELLS // (b_count * s_count * seqs.shape[2]))
        out = np.zeros(means.shape)
        for start in range(0, t_len, chunk):
            stop = min(start + chunk, t_len)
            diff = seqs[:, start:stop, None, :] - means[:, None, :, :]
            out += np.einsum("bts,btsd->bsd", gamma[:, start:stop], diff * diff)
        return out

    @pytest.mark.parametrize("chunk_cells", [7, 32768])
    def test_square_deviations_match_the_feature_axis_einsum(self, chunk_cells, monkeypatch):
        # each entry is a sum over time in time order, so the per-feature form
        # is bit for bit the (B, C, S, D) einsum at every D, one pair and one
        # state included; gamma[:, 1:] of a time-major (T + 1, B, S) table, as
        # the M-step passes the E-step's posteriors
        monkeypatch.setattr(kernels, "CHUNK_CELLS", chunk_cells)
        rng = np.random.default_rng(23)
        for dim, ones, _ in itertools.product(range(1, 13), range(4), range(2)):
            b_count = 1 if ones & 1 else int(rng.integers(2, 13))
            s_count = 1 if ones & 2 else int(rng.integers(2, 17))
            t_len = int(rng.integers(1, 200))
            gamma = rng.dirichlet(np.ones(s_count), size=(t_len + 1, b_count))
            gamma = gamma.transpose(1, 0, 2)[:, 1:]
            seqs = rng.normal(size=(b_count, t_len, dim)) * 3.0
            means = rng.normal(size=(b_count, s_count, dim))
            got = _weighted_square_deviations(gamma, seqs, means)
            expected = self.summed_square_deviations(gamma, seqs, means)
            assert np.array_equal(got, expected), (dim, b_count, s_count)

    def test_alpha_update_is_mean_responsibility(self):
        rng = np.random.default_rng(1)
        comps = [random_hmm(rng, 2, 1) for _ in range(3)]
        alpha = np.array([[0.2, 0.3, 0.5], [0.6, 0.2, 0.2]])
        model = SparseMixtureModel(comps, alpha)
        data = small_dataset(rng, [1, 1, 2, 1, 2], [3, 4, 3, 2, 5])
        stats = mixture_posteriors(model, data)
        updated = em_step_mhmm(model, data).model
        for node in (1, 2):
            rows = stats.eta[stats.nodes == node]
            np.testing.assert_allclose(updated.alpha[node - 1], rows.mean(axis=0),
                                       rtol=0, atol=1e-12)

    def test_objective_is_pre_update(self):
        rng = np.random.default_rng(2)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.4, 0.6]])
        data = small_dataset(rng, [1, 1], [3, 4])
        objective = em_step_mhmm(model, data).objective
        expected = sum(mixture_log_likelihood(model, item.seq, item.node)
                       for item in data.items)
        np.testing.assert_allclose(objective, expected, rtol=0, atol=1e-12)

    def test_node_without_data_keeps_row_and_warns(self):
        rng = np.random.default_rng(3)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        alpha = np.array([[0.4, 0.6], [0.3, 0.7]])
        model = SparseMixtureModel(comps, alpha)
        data = small_dataset(rng, [1, 1], [3, 3])
        step = em_step_mhmm(model, data)
        np.testing.assert_array_equal(step.model.alpha[1], alpha[1])
        assert step.warnings == ["node 2: no training sequences, mixing row left unchanged"]

    def test_unreachable_state_keeps_its_row_and_warns(self):
        rng = np.random.default_rng(31)
        # state 2 of component 1 is never entered, so its occupancy is exactly zero
        trapped = GaussianHmm([1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]],
                              [[0.0], [3.0]], [[1.0], [2.0]])
        model = SparseMixtureModel([trapped, random_hmm(rng, 2, 1)], [[0.5, 0.5]])
        data = small_dataset(rng, [1, 1, 1], [4, 2, 5])
        step = em_step_mhmm(model, data)
        new = step.model.components[0]
        assert step.warnings == [
            "component 1: transition rows [2] have near-zero occupancy, left unchanged",
            "component 1: emission states [2] have near-zero occupancy, left unchanged"]
        np.testing.assert_array_equal(new.transition[1], [0.5, 0.5])
        assert new.means[1, 0] == 3.0 and new.variances[1, 0] == 2.0
        assert new.means[0, 0] != 0.0 and new.variances[0, 0] != 1.0

    def test_monotone_over_iterations(self):
        rng = np.random.default_rng(4)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.5, 0.5], [0.5, 0.5]])
        data = small_dataset(rng, [1, 2, 1, 2, 1, 2], [4, 5, 3, 4, 5, 3])
        values = []
        for _ in range(15):
            step = em_step_mhmm(model, data)
            model = step.model
            values.append(step.objective)
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
        reg_model = em_step_spamhmm(with_scores, data, graph, config).model
        plain_model = em_step_mhmm(plain, data).model
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
        updated = em_step_spamhmm(model, data, graph, config).model
        np.testing.assert_array_equal(updated.beta, beta)

    def test_objective_is_pre_update_penalized(self):
        rng = np.random.default_rng(7)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        beta = np.array([[0.9, 0.4], [0.3, 1.1]])
        model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1, 2, 2], [3, 4, 3])
        graph = AffinityGraph([[0.0, 0.7], [0.7, 0.0]])
        config = TrainConfig(lam=0.2, inner_iters=5)
        objective = em_step_spamhmm(model, data, graph, config).objective
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

    def test_score_loop_bit_identical_to_reference_formulas(self):
        # random responsibilities, a node without data and a graph with
        # negative weights: scores cross zero and rows die and are reset
        rng = np.random.default_rng(0)
        k, m, n = 5, 4, 12
        nodes = np.sort(rng.integers(1, k, size=n))
        eta = rng.dirichlet(np.full(m, 0.3), size=n)
        stats = MixtureSufficientStats(node_counts=np.bincount(nodes - 1, minlength=k),
                                       eta=eta, blocks=[], nodes=nodes,
                                       log_likelihoods=np.zeros(n))
        weights = np.triu(rng.uniform(-0.5, 1.0, size=(k, k)), 1)
        graph = AffinityGraph(weights + weights.T)
        beta = rng.uniform(-0.3, 0.6, size=(k, m))
        beta[:, 0] = np.abs(beta[:, 0]) + 0.05
        beta[1, 2] = 0.0
        comps = [random_hmm(rng, 2, 1) for _ in range(m)]
        model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
        # lam is no power of 2, whose products would be exact in any order
        config = TrainConfig(lam=0.3, inner_iters=100, learning_rate=0.05)
        adam, ref_adam = AdamState.zeros(beta.shape), AdamState.zeros(beta.shape)
        warnings, ref_warnings = [], []
        alpha, new_beta = _update_scores(model, stats, graph, config, adam, warnings)
        ref_alpha, ref_beta = reference_update_scores(model, stats, graph, config, ref_adam,
                                                      ref_warnings)
        assert ref_warnings and (np.sign(ref_beta) != np.sign(beta)).any()
        for got, want in ((alpha, ref_alpha), (new_beta, ref_beta), (adam.m, ref_adam.m),
                          (adam.v, ref_adam.v)):
            assert np.array_equal(got, want)
        assert adam.t == ref_adam.t == config.inner_iters
        assert warnings == ref_warnings
        np.testing.assert_array_equal(model.beta, beta)  # the model's scores stay intact

    @pytest.mark.parametrize("moment", ["m", "v"])
    @pytest.mark.parametrize("shape", [(1, 2), (3, 1), (4, 2)])
    def test_adam_state_of_another_shape_rejected(self, moment, shape):
        # (1, 2) and (3, 1) would broadcast against (3, 2) scores, sharing moments
        rng = np.random.default_rng(12)
        beta = np.array([[0.9, 0.4], [0.3, 1.1], [0.5, 0.5]])
        model = SparseMixtureModel([random_hmm(rng, 2, 1) for _ in range(2)],
                                   reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1, 2, 3], [3, 4, 3])
        graph = AffinityGraph(np.ones((3, 3)) - np.eye(3))
        adam = AdamState.zeros(beta.shape)
        setattr(adam, moment, np.zeros(shape))
        with pytest.raises(ValueError, match="Adam state") as err:
            em_step_spamhmm(model, data, graph, TrainConfig(lam=0.1, inner_iters=2), adam)
        assert str(shape) in str(err.value) and str(beta.shape) in str(err.value)

    def test_adam_state_owns_float_moments(self):
        # the steps update m and v in place: one integer array passed as both
        # must act as two float zero moments, and the caller's array must stay
        rng = np.random.default_rng(13)
        beta = np.array([[0.9, 0.4], [0.3, 1.1]])
        model = SparseMixtureModel([random_hmm(rng, 2, 1) for _ in range(2)],
                                   reparameterize_rows(beta), beta)
        data = small_dataset(rng, [1, 2], [3, 4])
        graph = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
        config = TrainConfig(lam=0.1, inner_iters=4, learning_rate=0.05)
        moments = np.zeros(beta.shape, dtype=np.int64)
        shared = AdamState(moments, moments)
        fresh = AdamState.zeros(beta.shape)
        got = em_step_spamhmm(model, data, graph, config, shared).model
        want = em_step_spamhmm(model, data, graph, config, fresh).model
        np.testing.assert_array_equal(got.beta, want.beta)
        np.testing.assert_array_equal(shared.m, fresh.m)
        np.testing.assert_array_equal(shared.v, fresh.v)
        assert not moments.any()

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
    def kmeans_oracle(frames, centers, max_iters=100):
        """Lloyd iterations from the given centres, with the (N, k, D) distance
        array summed over features and every centre recomputed each time."""
        centers = centers.copy()
        labels = None
        for _ in range(max_iters):
            d2 = np.sum((frames[:, None, :] - centers[None, :, :]) ** 2, axis=2)
            new_labels = np.argmin(d2, axis=1)
            if labels is not None and np.array_equal(new_labels, labels):
                break
            labels = new_labels
            for j in range(centers.shape[0]):
                members = frames[labels == j]
                if members.shape[0] > 0:
                    centers[j] = members.mean(axis=0)
        return centers

    def test_kmeans_matches_summed_distances(self, monkeypatch):
        # below 8 features numpy sums a row of squares in plain order, so the
        # per-feature accumulation gives the same distances bit for bit, and
        # a centre whose members did not change keeps the same bits
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
            seeds = _kmeans_plus_plus(frames, k, np.random.default_rng(case))
            assert np.array_equal(got, self.kmeans_oracle(frames, seeds))
        # runs cut short by KMEANS_ITERS, on overlapping clusters that take
        # more than 8 Lloyd iterations to settle
        frames = rng.normal(size=(3000, 3))
        full = self.kmeans_oracle(frames, _kmeans_plus_plus(frames, 8, np.random.default_rng(0)))
        for max_iters in (1, 2, 3, 8):
            monkeypatch.setattr(training, "KMEANS_ITERS", max_iters)
            got = _kmeans(frames, 8, np.random.default_rng(0))
            seeds = _kmeans_plus_plus(frames, 8, np.random.default_rng(0))
            expected = self.kmeans_oracle(frames, seeds, max_iters=max_iters)
            assert np.array_equal(got, expected) and not np.array_equal(got, full)
        monkeypatch.undo()
        # a cluster that empties mid-run: from centres 9, 0, 0 the frames 4, 1,
        # 4, 0 go to centre 1 (first of the tie) and 5 to centre 0; then 4, 4
        # and 5 go to centre 0 at 5 and 1, 0 to centre 2 at 0, which empties
        # centre 1, left at 2.25
        frames = np.array([[4.0], [1.0], [4.0], [5.0], [0.0]])
        seeds = np.array([[9.0], [0.0], [0.0]])
        monkeypatch.setattr(training, "_kmeans_plus_plus", lambda frames, k, rng: seeds.copy())
        got = _kmeans(frames, 3, np.random.default_rng(0))
        assert np.array_equal(got, self.kmeans_oracle(frames, seeds))
        assert got[1, 0] == 2.25
        # all-tied frames: every frame lies as far from centre 0 as from centre
        # 1, so all go to centre 0, and centre 1 keeps its seed
        frames = np.zeros((12, 2))
        tied = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        monkeypatch.setattr(training, "_kmeans_plus_plus", lambda frames, k, rng: tied.copy())
        got = _kmeans(frames, 3, np.random.default_rng(0))
        assert np.array_equal(got, self.kmeans_oracle(frames, tied))
        assert np.array_equal(got, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        monkeypatch.undo()
        # thousands of frames and up to 20 centres; 256 and 257 centres, whose
        # labels k - 1 take one and two bytes; D = 1 clusters of far more than
        # 8 members, whose mean numpy sums pairwise, not row by row, on fine
        # and on coarse values; and frames that are all one point
        assert np.min_scalar_type(255) == np.uint8 and np.min_scalar_type(256) == np.uint16
        for n, k, dim, max_iters in ((4000, 12, 3, 100), (3000, 20, 2, 100), (1500, 256, 2, 3),
                                     (1500, 257, 2, 3), (3000, 4, 1, 100), (600, 5, 1, 100),
                                     (40, 3, 2, 100)):
            frames = rng.normal(size=(n, dim)) * rng.uniform(0.5, 50.0, size=dim)
            if k == 5:
                frames = np.round(frames, -1)
            elif k == 3:
                frames[:] = frames[0]
            monkeypatch.setattr(training, "KMEANS_ITERS", max_iters)
            got = _kmeans(frames, k, np.random.default_rng(k))
            seeds = _kmeans_plus_plus(frames, k, np.random.default_rng(k))
            assert np.array_equal(got, self.kmeans_oracle(frames, seeds, max_iters=max_iters)), k
            if dim == 1 and k == 4:
                # summing these members row by row would move bits
                labels = np.argmin((frames - got[:, 0]) ** 2, axis=1)
                assert any(np.cumsum(frames[labels == j, 0])[-1] != frames[labels == j, 0].sum()
                           for j in range(k))

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
        config = TrainConfig(outer_iters=60, plateau_patience=5)
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

    def test_graph_sets_node_count_at_lam_zero(self):
        # the graph term is inert at lam = 0, but the graph still sizes the model
        rng = np.random.default_rng(21)
        data = small_dataset(rng, [1, 2], [5, 5])
        graph = AffinityGraph(np.ones((4, 4)) - np.eye(4))
        result = fit(data, graph, TrainConfig(outer_iters=1), InitSpec(1, 2))
        assert result.mode == "mhmm" and result.model.num_nodes == 4
        assert result.warnings == [f"node {k}: no training sequences, mixing row left unchanged"
                                   for k in (3, 4)]


def _trapped_start(with_scores):
    """A three-component start in which each kind of training warning fires.

    Component 1 never enters its state 2, so that transition row and
    emission state have zero occupancy; component 2's coefficients are zero
    on every node, so its total responsibility is zero.
    """
    trapped = GaussianHmm([1.0, 0.0], [[1.0, 0.0], [0.5, 0.5]], [[0.0], [3.0]], [[1.0], [2.0]])
    unused = GaussianHmm([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[0.5], [-0.5]], [[1.0], [1.0]])
    free = GaussianHmm([0.5, 0.5], [[0.7, 0.3], [0.4, 0.6]], [[-1.0], [1.0]], [[1.0], [1.0]])
    beta = np.array([[0.6, 0.0, 0.5], [0.3, 0.0, 0.7], [0.5, 0.0, 0.5]])
    return SparseMixtureModel([trapped, unused, free], reparameterize_rows(beta),
                              beta if with_scores else None)


TRAPPED = ["component 1: transition rows [2] have near-zero occupancy, left unchanged",
           "component 1: emission states [2] have near-zero occupancy, left unchanged"]
DEAD_2 = "component 2: total responsibility below 1e-12, parameters left unchanged"
DEAD_3 = "component 3: total responsibility below 1e-12, parameters left unchanged"
# the exact lists over three iterations, pinned so that they cannot drift:
# node 2 has no data (warned in plain mode only) and the negative graph
# weights drive rows 1 and 3 to zero in regularized mode
PINNED_WARNINGS = {
    0.0: ["node 2: no training sequences, mixing row left unchanged", *TRAPPED, DEAD_2] * 3,
    5.0: ["nodes [1]: all scores fell to zero, rows reset to uniform", *TRAPPED, DEAD_2,
          "nodes [3]: all scores fell to zero, rows reset to uniform", *TRAPPED, DEAD_2, DEAD_3,
          *TRAPPED, DEAD_2, DEAD_3],
}


class TestStepRecords:
    @pytest.mark.parametrize("lam", sorted(PINNED_WARNINGS))
    def test_fit_warnings_are_the_steps_warnings_in_order(self, lam, monkeypatch):
        rng = np.random.default_rng(0)
        data = SequenceDataset([(node, rng.normal(size=(5, 1))) for node in [1, 3] * 3])
        graph = AffinityGraph([[0.0, -1.0, 1.0], [-1.0, 0.0, -1.0], [1.0, -1.0, 0.0]])
        monkeypatch.setattr(training, "initialize_model",
                            lambda *args, with_scores: _trapped_start(with_scores))
        steps = []
        for name in ("em_step_mhmm", "em_step_spamhmm"):
            def recorded(*args, _step=getattr(training, name), **kwargs):
                steps.append(_step(*args, **kwargs))
                return steps[-1]
            monkeypatch.setattr(training, name, recorded)
        config = TrainConfig(lam=lam, outer_iters=3, inner_iters=50, learning_rate=0.2)
        result = fit(data, graph, config, InitSpec(3, 2))
        assert len(steps) == 3 and all(isinstance(s, training.EmStep) for s in steps)
        assert result.objectives[:-1] == [s.objective for s in steps]
        assert result.model is steps[-1].model
        assert result.warnings == [w for s in steps for w in s.warnings]
        assert result.warnings == PINNED_WARNINGS[lam]

    def test_steps_log_nothing(self, caplog):
        rng = np.random.default_rng(3)
        model = _trapped_start(with_scores=True)
        data = small_dataset(rng, [1, 3], [4, 4])
        graph = AffinityGraph(np.zeros((3, 3)))
        caplog.set_level("DEBUG", logger="graphhmm")
        plain = em_step_mhmm(SparseMixtureModel(model.components, model.alpha), data)
        scored = em_step_spamhmm(model, data, graph, TrainConfig(lam=0.1, inner_iters=2))
        assert plain.warnings[0] == "node 2: no training sequences, mixing row left unchanged"
        assert plain.warnings[1:] == scored.warnings == [*TRAPPED, DEAD_2]
        assert caplog.records == []


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

    def test_per_node_errors_name_the_node(self):
        rng = np.random.default_rng(26)
        data = small_dataset(rng, [1, 2, 3], [20, 3, 20])
        with pytest.raises(ValueError, match=r"^node 2: need at least 5 pooled frames"):
            fit_per_node(data, TrainConfig(outer_iters=1), num_states=5)

    def test_per_node_warnings_name_the_node(self, monkeypatch):
        # node 2's fit places its first state 1e6 away from its data, so that
        # state is never occupied and its fit warns about a dead state
        rng = np.random.default_rng(27)
        data = small_dataset(rng, [1, 2, 3], [20, 20, 20])
        fits = []

        def far_state_on_node_2(*args, **kwargs):
            model = initialize_model(*args, **kwargs)
            fits.append(model)
            if len(fits) == 2:
                model.components.means[0, 0] += 1e6
            return model
        monkeypatch.setattr(training, "initialize_model", far_state_on_node_2)
        result = fit_per_node(data, TrainConfig(outer_iters=1), num_states=2)
        assert len(fits) == 3
        assert result.warnings and all(w.startswith("node 2: component 1: ")
                                       for w in result.warnings)
        assert any("emission states [1]" in w for w in result.warnings)

    def test_node_ids_above_num_nodes_are_refused(self):
        # both baselines and fit apply the one node-id rule to the dataset
        rng = np.random.default_rng(24)
        data = small_dataset(rng, [1, 2, 3] * 3, [8] * 9)
        config = TrainConfig(outer_iters=1)
        message = r"node id 3 out of range \[1\.\.2\]"
        with pytest.raises(ValueError, match=message):
            fit_single_hmm(data, config, num_states=2, num_nodes=2)
        with pytest.raises(ValueError, match=message):
            fit_per_node(data, config, num_states=2, num_nodes=2)
        with pytest.raises(ValueError, match=message):
            fit(data, None, config, InitSpec(2, 2, num_nodes=2))

    def test_records_are_not_checked_again(self, monkeypatch):
        # the dataset checked its records when it was built; both baselines
        # relabel them onto node 1 without running check_record a second time
        rng = np.random.default_rng(25)
        data = small_dataset(rng, [1, 2, 1, 2], [8, 8, 8, 8])
        calls, check = [], mixture.check_record

        def counted(*args, **kwargs):
            calls.append(args)
            return check(*args, **kwargs)
        monkeypatch.setattr(mixture, "check_record", counted)
        single = fit_single_hmm(data, TrainConfig(outer_iters=2), num_states=2)
        per_node = fit_per_node(data, TrainConfig(outer_iters=2), num_states=2)
        assert calls == []
        assert single.model.num_nodes == per_node.model.num_nodes == 2
        assert [item.node for item in data.items] == [1, 2, 1, 2]  # the input is untouched


class TestConfigValidation:
    def test_negative_lam(self):
        for lam in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam"):
                TrainConfig(lam=lam)

    def test_bad_iteration_counts(self):
        with pytest.raises(ValueError, match="iteration"):
            TrainConfig(outer_iters=0)

    def test_bad_learning_rate(self):
        for lr in (0.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=lr)

    def test_bad_plateau_patience(self):
        # a patience below 1 would stop every fit after its first EM iteration
        for patience in (0, -3):
            with pytest.raises(ValueError, match="plateau_patience"):
                TrainConfig(plateau_patience=patience)
