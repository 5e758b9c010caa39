"""Exact-inference checks for the single HMM against enumeration oracles."""

import time
import warnings

import numpy as np
import pytest

from graphhmm import kernels
from graphhmm.hmm import (VARIANCE_FLOOR, GaussianHmm, check_rows_normalized,
                          gaussian_log_densities, log_likelihood, log_params, posteriors,
                          sample, validate_sequence)
from graphhmm.mixture import SequenceDataset, SparseMixtureModel
from graphhmm.training import em_step_mhmm

from conftest import enum_log_likelihood, enum_posteriors, random_hmm


def standard_normal_hmm():
    return GaussianHmm([1.0], [[1.0]], [[0.0]], [[1.0]])


def summed_log_densities(seq, means, variances):
    """gaussian_log_densities with the (..., T, S, D) deviations summed over the feature axis."""
    diff = seq[..., :, None, :] - means[..., None, :, :]
    log_norm = np.sum(np.log(2.0 * np.pi) + np.log(variances), axis=-1)
    with np.errstate(over="ignore"):
        quad = np.sum(diff * diff / variances[..., None, :, :], axis=-1)
    return -0.5 * (log_norm[..., None, :] + quad)


class TestDensities:
    @staticmethod
    def cases(rng, dim):
        """(seq, means, variances): one HMM, a stack of pairs, a sequence against
        a stack, and single frames and states."""
        t_len, s_count, b_count = (int(rng.integers(1, 30)), int(rng.integers(1, 9)),
                                   int(rng.integers(1, 5)))
        for seq_lead, lead, t, s in (((), (), t_len, s_count),
                                     ((b_count,), (b_count,), t_len, s_count),
                                     ((), (b_count,), t_len, s_count),
                                     ((1,), (1,), 1, 1), ((), (), 1, s_count)):
            yield (rng.normal(size=seq_lead + (t, dim)) * 10.0,
                   rng.normal(size=lead + (s, dim)),
                   rng.uniform(0.5, 2.0, size=lead + (s, dim)))

    def test_per_feature_sum_matches_the_feature_axis_sum(self):
        rng = np.random.default_rng(21)
        for dim in range(1, 13):
            for seq, means, variances in self.cases(rng, dim):
                got = gaussian_log_densities(seq, means, variances)
                expected = summed_log_densities(seq, means, variances)
                assert got.shape == expected.shape
                if dim < 8:  # numpy sums fewer than 8 terms in plain order
                    assert np.array_equal(got, expected), dim
                else:  # its pairwise sum groups 8 or more otherwise
                    np.testing.assert_allclose(got, expected, rtol=4 * np.finfo(float).eps,
                                               atol=0)

    @pytest.mark.parametrize("dim", [1, 3, 9])
    def test_overflow_saturates_to_neg_inf(self, dim):
        # (1e200)**2 overflows in the first feature: -inf, as the sum over
        # features gives, with no warning; the other state stays finite
        seq = np.zeros((2, dim))
        seq[1, 0] = 1e200
        means = np.zeros((2, dim))
        means[1, 0] = 1e200
        variances = np.full((2, dim), 1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = gaussian_log_densities(seq, means, variances)
        assert np.array_equal(np.isneginf(got), [[False, True], [True, False]])
        np.testing.assert_allclose(got, summed_log_densities(seq, means, variances),
                                   rtol=4 * np.finfo(float).eps, atol=0)


class TestLogLikelihood:
    def test_single_state_standard_normal(self):
        # two zero observations under N(0, 1): 2 * log(1/sqrt(2 pi))
        ll = log_likelihood(standard_normal_hmm(), np.zeros((2, 1)))
        np.testing.assert_allclose(ll, -np.log(2.0 * np.pi), rtol=0, atol=1e-12)

    def test_duplicate_states_collapse(self):
        seq = np.array([[0.3], [-0.7], [1.1]])
        two = GaussianHmm([0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]],
                          [[0.0], [0.0]], [[1.0], [1.0]])
        np.testing.assert_allclose(log_likelihood(two, seq),
                                   log_likelihood(standard_normal_hmm(), seq),
                                   rtol=0, atol=1e-12)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            model = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                               sparse_transitions=bool(rng.integers(2)))
            seq = rng.normal(size=(int(rng.integers(1, 6)), model.dim))
            np.testing.assert_allclose(log_likelihood(model, seq),
                                       enum_log_likelihood(model, seq),
                                       rtol=0, atol=1e-9)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        model = random_hmm(rng, 3, 2)
        seq = rng.normal(size=(6, 2))
        perm = np.array([2, 0, 1])
        permuted = GaussianHmm(model.initial[perm], model.transition[np.ix_(perm, perm)],
                               model.means[perm], model.variances[perm])
        np.testing.assert_allclose(log_likelihood(model, seq),
                                   log_likelihood(permuted, seq), rtol=0, atol=1e-10)

    def test_longer_sequences_stay_finite(self):
        rng = np.random.default_rng(4)
        model = random_hmm(rng, 4, 3)
        seq = rng.normal(size=(500, 3))
        assert np.isfinite(log_likelihood(model, seq))


class TestPosteriors:
    def test_single_state_gamma_is_one(self):
        post = posteriors(standard_normal_hmm(), np.zeros((4, 1)))
        np.testing.assert_allclose(post.gamma, 1.0, rtol=0, atol=0)
        np.testing.assert_allclose(post.xi, 1.0, rtol=0, atol=0)

    def test_matches_enumeration(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            model = random_hmm(rng, int(rng.integers(1, 4)), int(rng.integers(1, 3)),
                               sparse_transitions=bool(rng.integers(2)))
            seq = rng.normal(size=(int(rng.integers(1, 6)), model.dim))
            post = posteriors(model, seq)
            ll, gamma, xi = enum_posteriors(model, seq)
            np.testing.assert_allclose(post.log_likelihood, ll, rtol=0, atol=1e-9)
            np.testing.assert_allclose(post.gamma, gamma, rtol=0, atol=1e-9)
            np.testing.assert_allclose(post.xi, xi, rtol=0, atol=1e-9)

    def test_marginalization_identities(self):
        rng = np.random.default_rng(2)
        model = random_hmm(rng, 4, 2, sparse_transitions=True)
        seq = rng.normal(size=(12, 2))
        post = posteriors(model, seq)
        np.testing.assert_allclose(post.gamma.sum(axis=1), 1.0, rtol=0, atol=1e-9)
        np.testing.assert_allclose(post.xi.sum(axis=2), post.gamma[:-1], rtol=0, atol=1e-9)
        np.testing.assert_allclose(post.xi.sum(axis=1), post.gamma[1:], rtol=0, atol=1e-9)

    def test_initial_row_posterior(self):
        # gamma[0] must reflect the non-emitting initial state, not observation 1
        model = GaussianHmm([0.25, 0.75], [[0.5, 0.5], [0.5, 0.5]],
                            [[0.0], [0.0]], [[1.0], [1.0]])
        # identical states: no evidence distinguishes them, so gamma[0] == initial
        post = posteriors(model, np.array([[0.4], [1.2]]))
        np.testing.assert_allclose(post.gamma[0], [0.25, 0.75], rtol=0, atol=1e-12)

    def test_structural_zeros_are_exact(self):
        # one-hot initial, and each state has one forbidden successor
        transition = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
        model = GaussianHmm([1.0, 0.0, 0.0], transition,
                            [[0.0], [1.0], [2.0]], [[1.0], [1.0], [1.0]])
        zero = transition == 0.0
        rng = np.random.default_rng(14)
        seqs = [rng.normal(size=(8, 1)) for _ in range(4)]
        for seq in seqs:
            post = posteriors(model, seq)
            assert np.all(post.xi[:, zero] == 0.0)
            assert np.all(post.gamma[0, 1:] == 0.0)
        mixture = SparseMixtureModel([model], [[1.0]])
        updated = em_step_mhmm(mixture, SequenceDataset([(1, seq) for seq in seqs])).model
        new_transition = updated.components[0].transition
        assert np.all(new_transition[zero] == 0.0)
        assert np.all(new_transition[~zero] > 0.0)


class TestSampling:
    def test_shapes_and_determinism(self):
        rng = np.random.default_rng(5)
        model = random_hmm(rng, 3, 2)
        a = sample(model, 7, 123)
        b = sample(model, 7, 123)
        assert a.shape == (7, 2)
        np.testing.assert_array_equal(a, b)

    def test_monte_carlo_mean(self):
        model = GaussianHmm([1.0], [[1.0]], [[2.0]], [[0.25]])
        rng = np.random.default_rng(6)
        draws = np.concatenate([sample(model, 1, rng) for _ in range(10_000)])
        assert 1.97 <= draws.mean() <= 2.03

    @pytest.mark.parametrize("bad", [2.5, np.float64(3.0), True, 0, -2, "4"])
    def test_length_must_be_an_integer(self, bad):
        with pytest.raises(ValueError, match="length must be an integer >= 1"):
            sample(standard_normal_hmm(), bad, 0)

    def test_generator_threading(self):
        model = standard_normal_hmm()
        rng1 = np.random.default_rng(9)
        first = sample(model, 3, rng1)
        second = sample(model, 3, rng1)
        assert not np.array_equal(first, second)  # stream advanced, not reset

    def test_same_draws_as_generator_choice(self):
        def choice_sample(hmm, length, rng):
            """Ancestral sampling with Generator.choice, the stream to reproduce."""
            rng = np.random.default_rng(rng)
            std = np.sqrt(hmm.variances)
            out = np.empty((length, hmm.dim))
            state = rng.choice(hmm.num_states, p=hmm.initial)
            for t in range(length):
                state = rng.choice(hmm.num_states, p=hmm.transition[state])
                out[t] = rng.normal(hmm.means[state], std[state])
            return out

        rng = np.random.default_rng(21)
        for case in range(60):
            s, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            model = random_hmm(rng, s, d, sparse_transitions=True)
            initial, transition = model.initial.copy(), model.transition.copy()
            means = model.means.copy()
            if s > 1 and case % 2:  # the last state is unreachable: trailing zeros
                initial[-1] = transition[:, -1] = 0.0
                transition[:, 0] += 1e-3
                transition /= transition.sum(axis=1, keepdims=True)
                initial /= initial.sum()
                means[-1] = 1e6
            transition[0] *= 1.0 - 5e-10  # a row summing just below 1 is legal
            model = GaussianHmm(initial, transition, means, model.variances)
            got = sample(model, 25, case)
            np.testing.assert_array_equal(got, choice_sample(model, 25, case))
            if s > 1 and case % 2:
                assert np.all(np.abs(got) < 1e5)


class TestValidation:
    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            log_likelihood(standard_normal_hmm(), np.zeros((3, 2)))

    def test_non_finite_sequence(self):
        with pytest.raises(ValueError, match="finite"):
            log_likelihood(standard_normal_hmm(), np.array([[np.nan]]))

    def test_empty_sequence(self):
        with pytest.raises(ValueError, match="at least one"):
            log_likelihood(standard_normal_hmm(), np.zeros((0, 1)))

    def test_unnormalized_rows_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            GaussianHmm([0.6, 0.6], [[0.5, 0.5], [0.5, 0.5]],
                        [[0.0], [0.0]], [[1.0], [1.0]])

    def test_negative_entries_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            GaussianHmm([1.2, -0.2], [[0.5, 0.5], [0.5, 0.5]],
                        [[0.0], [0.0]], [[1.0], [1.0]])

    def test_variance_floor_enforced(self):
        with pytest.raises(ValueError, match="variances"):
            GaussianHmm([1.0], [[1.0]], [[0.0]], [[1e-9]])
        GaussianHmm([1.0], [[1.0]], [[0.0]], [[VARIANCE_FLOOR]])  # boundary is legal

    def test_nan_row_sum_rejected(self):
        with pytest.raises(ValueError, match="sum to 1"):
            check_rows_normalized(np.array([[np.nan, 1.0]]), "alpha")
        with pytest.raises(ValueError, match="sum to 1"):
            SparseMixtureModel([standard_normal_hmm()] * 2, [[np.nan, 1.0]])

    def test_zero_width_sequence_rejected(self):
        with pytest.raises(ValueError, match="at least one feature"):
            validate_sequence(np.zeros((3, 0)))

    def test_zero_transitions_stay_exact_in_log_space(self):
        model = GaussianHmm([1.0, 0.0], [[0.0, 1.0], [1.0, 0.0]],
                            [[0.0], [1.0]], [[1.0], [1.0]])
        _, log_a = log_params(model)
        assert log_a[0, 0] == -np.inf and log_a[1, 1] == -np.inf


class TestStack:
    """A dictionary of HMMs held as one GaussianHmm with a leading component axis."""

    FIELDS = ("initial", "transition", "means", "variances")

    def stacked_arrays(self, rng, count=3):
        comps = [random_hmm(rng, 3, 2) for _ in range(count)]
        return comps, [np.stack([getattr(c, f) for c in comps]) for f in self.FIELDS]

    def test_indexing_gives_each_source_hmm(self):
        rng = np.random.default_rng(40)
        comps = [random_hmm(rng, 3, 2, sparse_transitions=True) for _ in range(4)]
        stack = SparseMixtureModel(comps, np.full((1, 4), 0.25)).components
        assert len(stack) == 4 and stack.initial.shape == (4, 3)
        assert (stack.num_states, stack.dim) == (3, 2)
        for m, (view, source) in enumerate(zip(stack, comps)):
            assert (view.num_states, view.dim) == (3, 2)
            for name in self.FIELDS:
                assert np.array_equal(getattr(view, name), getattr(source, name))
                assert np.array_equal(getattr(stack[m], name), getattr(source, name))

    def test_stack_error_names_the_component(self):
        rng = np.random.default_rng(41)
        _, (initial, transition, means, variances) = self.stacked_arrays(rng)
        GaussianHmm(initial, transition, means, variances)
        bad = transition.copy()
        bad[1, 0] = [1.2, -0.1, -0.1]
        with pytest.raises(ValueError, match="component 2: transition has negative entries"):
            GaussianHmm(initial, bad, means, variances)
        bad = variances.copy()
        bad[2, 1, 0] = 1e-9
        with pytest.raises(ValueError, match="component 3: variances must be >="):
            GaussianHmm(initial, transition, means, bad)

    def test_list_boundary_validates_the_stack(self):
        rng = np.random.default_rng(42)
        comps, _ = self.stacked_arrays(rng)
        comps[1].initial[:] = [0.9, 0.9, 0.9]  # corrupted after its own check
        with pytest.raises(ValueError, match="component 2: initial rows must sum to 1"):
            SparseMixtureModel(comps, np.full((1, 3), 1.0 / 3.0))

    def test_single_hmm_inference_rejects_a_stack(self):
        rng = np.random.default_rng(43)
        _, arrays = self.stacked_arrays(rng)
        stack = GaussianHmm(*arrays)
        seq = rng.normal(size=(4, 2))
        with pytest.raises(ValueError, match="single HMM"):
            posteriors(stack, seq)
        with pytest.raises(ValueError, match="single HMM"):
            log_likelihood(stack, seq)
        with pytest.raises(ValueError, match="single HMM"):
            sample(stack, 4, rng)
        log_likelihood(stack[0], seq)

    def test_single_hmm_has_no_components(self):
        with pytest.raises(TypeError):
            len(standard_normal_hmm())
        with pytest.raises(TypeError):
            standard_normal_hmm()[0]


class TestScaling:
    """Coarse complexity checks: linear in T, quadratic in S."""

    @staticmethod
    def _median_time(model, seq, repeats=9):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            log_likelihood(model, seq)
            times.append(time.perf_counter() - start)
        return float(np.median(times))

    def test_linear_in_length(self):
        rng = np.random.default_rng(8)
        model = random_hmm(rng, 8, 2)
        short = rng.normal(size=(400, 2))
        long = rng.normal(size=(800, 2))
        ratio = self._median_time(model, long) / self._median_time(model, short)
        assert ratio <= 4.0, f"T doubling scaled by {ratio:.2f}x, expected ~2x"

    def test_quadratic_in_states(self):
        # The two models' calls alternate, so a slow spell of the host slows
        # both alike, and each side's minimum is its least disturbed call.
        rng = np.random.default_rng(9)
        small = random_hmm(rng, 64, 2)
        big = random_hmm(rng, 128, 2)
        seq = rng.normal(size=(60, 2))
        times = ([], [])
        for _ in range(9):
            for model, spent in zip((small, big), times):
                start = time.perf_counter()
                log_likelihood(model, seq)
                spent.append(time.perf_counter() - start)
        ratio = min(times[1]) / min(times[0])
        assert 2.0 <= ratio <= 8.0, f"S doubling scaled by {ratio:.2f}x, expected ~4x"
