"""Scoring, ROC area, sparsity, and clustering checks."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhmm.evaluation import (cluster_assignments, relative_sparsity, roc_auc,
                                 score_dataset)
from graphhmm.hmm import GaussianHmm
from graphhmm.mixture import SequenceDataset, SparseMixtureModel

from conftest import random_hmm


class TestRocAuc:
    def test_perfect_separation(self):
        scores = [(-1.0, "normal"), (-2.0, "normal"),
                  (-3.0, "anomalous"), (-4.0, "anomalous")]
        curve, auc = roc_auc(scores)
        assert auc == 1.0
        assert curve[0] == (0.0, 0.0) and curve[-1] == (1.0, 1.0)

    def test_interleaved(self):
        scores = [(-1.0, "normal"), (-3.0, "normal"),
                  (-2.0, "anomalous"), (-4.0, "anomalous")]
        _, auc = roc_auc(scores)
        np.testing.assert_allclose(auc, 0.75, rtol=0, atol=1e-15)

    def test_identical_score_multisets_give_half(self):
        scores = [(-1.0, "normal"), (-2.0, "normal"),
                  (-1.0, "anomalous"), (-2.0, "anomalous")]
        _, auc = roc_auc(scores)
        np.testing.assert_allclose(auc, 0.5, rtol=0, atol=1e-15)

    def test_inverted_separation_gives_zero(self):
        scores = [(-5.0, "normal"), (-6.0, "normal"),
                  (-1.0, "anomalous"), (-2.0, "anomalous")]
        _, auc = roc_auc(scores)
        assert auc == 0.0

    def test_tie_across_classes_is_diagonal_segment(self):
        # one normal and one anomalous share a score: that threshold step
        # moves both rates at once and the area counts it at half weight
        scores = [(-2.0, "normal"), (-2.0, "anomalous"), (-1.0, "normal")]
        curve, auc = roc_auc(scores)
        assert (0.5, 1.0) in curve
        np.testing.assert_allclose(auc, 0.75, rtol=0, atol=1e-15)

    def test_class_swap_symmetry(self):
        rng = np.random.default_rng(0)
        vals = rng.normal(size=12)
        labels = ["normal"] * 6 + ["anomalous"] * 6
        _, auc = roc_auc(list(zip(vals, labels)))
        flipped = ["anomalous"] * 6 + ["normal"] * 6
        _, auc_flipped = roc_auc(list(zip(-vals, flipped)))
        np.testing.assert_allclose(auc, auc_flipped, rtol=0, atol=1e-12)

    def test_monotone_curve(self):
        rng = np.random.default_rng(1)
        scores = [(float(v), "normal" if rng.random() < 0.5 else "anomalous")
                  for v in rng.normal(size=30)]
        labels = {lab for _, lab in scores}
        if len(labels) < 2:
            scores += [(0.0, "normal"), (0.1, "anomalous")]
        curve, auc = roc_auc(scores)
        fprs = [p[0] for p in curve]
        tprs = [p[1] for p in curve]
        assert all(a <= b for a, b in zip(fprs, fprs[1:]))
        assert all(a <= b for a, b in zip(tprs, tprs[1:]))
        assert 0.0 <= auc <= 1.0

    @staticmethod
    def threshold_sweep(scores):
        """The former O(unique x N) implementation, kept as the oracle."""
        values = np.array([float(v) for v, _ in scores])
        anom = np.array([lab == "anomalous" for _, lab in scores])
        n_anom = int(anom.sum())
        n_norm = len(scores) - n_anom
        curve = [(0.0, 0.0)]
        for v in np.unique(values):
            flagged = values <= v
            curve.append((float(np.sum(flagged & ~anom)) / n_norm,
                          float(np.sum(flagged & anom)) / n_anom))
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        auc = float(trapezoid(np.array([p[1] for p in curve]),
                              np.array([p[0] for p in curve])))
        return curve, auc

    def test_matches_threshold_sweep_with_ties(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            n = int(rng.integers(2, 60))
            # few distinct values, so many scores tie within and across classes
            vals = rng.integers(-5, 5, size=n) * 0.25
            labels = ["anomalous" if rng.random() < 0.4 else "normal" for _ in range(n)]
            labels[0], labels[1] = "normal", "anomalous"
            scores = list(zip(vals.tolist(), labels))
            curve, auc = roc_auc(scores)
            ref_curve, ref_auc = self.threshold_sweep(scores)
            assert curve == ref_curve
            assert auc == ref_auc

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(scores=st.lists(st.tuples(
        st.one_of(st.sampled_from([-np.inf, -2.0, -1.0, 0.0]), st.floats(-3.0, 3.0)),
        st.sampled_from(["normal", "anomalous"])), min_size=2, max_size=40).filter(
            lambda scores: len({label for _, label in scores}) == 2))
    def test_area_is_the_pair_count(self, scores):
        # a few repeated values and -inf give ties within and across classes
        anomalous = [s for s, label in scores if label == "anomalous"]
        normal = [s for s, label in scores if label == "normal"]
        wins = sum(1.0 if a < b else 0.5 if a == b else 0.0
                   for a in anomalous for b in normal)
        _, auc = roc_auc(scores)
        assert auc == pytest.approx(wins / (len(anomalous) * len(normal)), rel=0, abs=1e-12)

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            roc_auc([(-1.0, "normal"), (-2.0, "normal")])

    def test_bad_label_rejected(self):
        with pytest.raises(ValueError, match="label"):
            roc_auc([(-1.0, "normal"), (-2.0, "weird")])

    def test_non_finite_score_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([(np.nan, "normal"), (-2.0, "anomalous")])

    def test_positive_infinity_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            roc_auc([(np.inf, "normal"), (-2.0, "anomalous")])

    @pytest.mark.parametrize("scores, message", [
        ([(-1.0, "normal"), (np.nan, "weird"), (np.inf, "normal")],
         r"scores\[1\]: label must be 'normal' or 'anomalous', got 'weird'"),
        ([(-1.0, "normal"), (np.inf, "anomalous"), (-2.0, "weird")],
         r"scores\[1\]: score must be finite or -inf, got inf"),
        ([(-1.0, "normal"), (None, "anomalous"), (-2.0, "weird")],
         r"scores\[1\]: score must be finite or -inf, got None"),
        ([(-1.0, "normal"), ("0.5", "anomalous"), (None, "weird")],
         r"scores\[1\]: score must be finite or -inf, got '0\.5'"),
        ([(-1.0, "normal"), (True, "anomalous")],  # a bool is not a score, as in check_real
         r"scores\[1\]: score must be finite or -inf, got True"),
    ], ids=["bad-label-and-score", "bad-score", "none-score", "string-score", "bool-score"])
    def test_first_bad_item_named_label_first(self, scores, message):
        # the whole list is checked at once; the message still names the first
        # bad item, and for that item its label before its score
        with pytest.raises(ValueError, match=message):
            roc_auc(scores)

    def test_zero_likelihood_ranks_most_anomalous(self):
        scores = [(-1.0, "normal"), (-np.inf, "anomalous"), (-2.0, "anomalous"),
                  (-3.0, "normal")]
        curve, auc = roc_auc(scores)
        assert curve[1] == (0.0, 0.5)
        assert auc == 0.75

    def test_tied_zero_likelihood_scores_are_one_step(self):
        scores = [(-np.inf, "normal"), (-np.inf, "anomalous"), (-np.inf, "anomalous"),
                  (-1.0, "normal")]
        curve, auc = roc_auc(scores)
        assert curve == [(0.0, 0.0), (0.5, 1.0), (1.0, 1.0)]
        assert auc == 0.75
        # -inf orders like a very low finite score
        assert roc_auc([(-1e300 if s == -np.inf else s, lab) for s, lab in scores]) \
            == (curve, auc)


class TestScoreDataset:
    def test_per_timestep_normalization(self):
        model = SparseMixtureModel([GaussianHmm([1.0], [[1.0]], [[0.0]], [[1.0]])],
                                   [[1.0]])
        data = SequenceDataset([(1, np.zeros((2, 1)), "normal"),
                                (1, np.zeros((8, 1)), None)])
        scored = score_dataset(model, data)
        # every frame contributes the same density, so the per-timestep
        # average is length-independent
        np.testing.assert_allclose(scored[0].avg_log_likelihood,
                                   scored[1].avg_log_likelihood, rtol=0, atol=1e-12)
        np.testing.assert_allclose(scored[0].avg_log_likelihood,
                                   -0.5 * np.log(2.0 * np.pi), rtol=0, atol=1e-12)
        assert scored[0].label == "normal" and scored[1].label is None
        assert scored[0].length == 2 and scored[1].node == 1

    def test_scores_follow_node_mixture(self):
        rng = np.random.default_rng(2)
        lo = GaussianHmm([1.0], [[1.0]], [[-4.0]], [[0.5]])
        hi = GaussianHmm([1.0], [[1.0]], [[4.0]], [[0.5]])
        model = SparseMixtureModel([lo, hi], [[1.0, 0.0], [0.0, 1.0]],
                                   beta=[[1.0, -1.0], [-1.0, 1.0]])
        seq = rng.normal(-4.0, 0.5, size=(6, 1))
        data = SequenceDataset([(1, seq), (2, seq)])
        scored = score_dataset(model, data)
        assert scored[0].avg_log_likelihood > scored[1].avg_log_likelihood


class TestSparsity:
    def test_exact_zero_count(self):
        rng = np.random.default_rng(3)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[1.0, 0.0], [0.5, 0.5]],
                                   beta=[[1.0, -1.0], [0.5, 0.5]])
        assert relative_sparsity(model) == 0.25

    def test_thresholded(self):
        rng = np.random.default_rng(4)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[1.0 - 1e-9, 1e-9], [0.5, 0.5]])
        assert relative_sparsity(model) == 0.0
        assert relative_sparsity(model, threshold=1e-6) == 0.25

    def test_negative_threshold_rejected(self):
        rng = np.random.default_rng(5)
        model = SparseMixtureModel([random_hmm(rng, 2, 1)], [[1.0]])
        with pytest.raises(ValueError, match="threshold"):
            relative_sparsity(model, threshold=-0.1)


class TestClustering:
    def test_dominant_component(self):
        rng = np.random.default_rng(6)
        comps = [random_hmm(rng, 2, 1) for _ in range(3)]
        alpha = np.array([[0.7, 0.2, 0.1], [0.1, 0.2, 0.7], [0.2, 0.6, 0.2]])
        model = SparseMixtureModel(comps, alpha)
        np.testing.assert_array_equal(cluster_assignments(model), [1, 3, 2])

    def test_tie_resolves_to_lowest_index(self):
        rng = np.random.default_rng(7)
        comps = [random_hmm(rng, 2, 1) for _ in range(2)]
        model = SparseMixtureModel(comps, [[0.5, 0.5]])
        np.testing.assert_array_equal(cluster_assignments(model), [1])
