"""Acceptance suite: twelve numbered end-to-end checks.

Each test prints one PASS line (run with -s to see them). The checks cover
oracle equivalence of the recursions, EM monotonicity, gradient correctness,
consistency of the two coefficient-update modes, overlap-measure properties,
the sparsity/lambda trend, model recovery, the forecast chain rule, anomaly
detection against capacity-matched baselines, determinism and serialization,
and inference-time scaling.
"""

import time

import numpy as np

from graphhmm.evaluation import (cluster_assignments, relative_sparsity, roc_auc,
                                 score_dataset)
from graphhmm.forecast import condition, predictive_log_likelihood
from graphhmm.hmm import GaussianHmm, log_likelihood, posteriors
from graphhmm.mixture import (AffinityGraph, SequenceDataset, SparseMixtureModel,
                              coefficient_gradient, mixture_log_likelihood,
                              mixture_posteriors, regularizer_value,
                              reparameterize_rows, sample_from_node)
from graphhmm.training import (InitSpec, TrainConfig, baseline_state_counts,
                               em_step_mhmm, em_step_spamhmm, fit, fit_per_node,
                               fit_single_hmm, initialize_model)
from graphhmm import cli, io

from conftest import enum_log_likelihood, enum_posteriors, random_hmm


def _oracle_instances():
    """100 small random (hmm, sequence) pairs shared by criteria 1 and 2."""
    rng = np.random.default_rng(20260817)
    instances = []
    for i in range(100):
        s = int(rng.integers(1, 4))
        t = int(rng.integers(1, 6))
        d = int(rng.integers(1, 3))
        hmm = random_hmm(rng, s, d, sparse_transitions=(i % 3 == 0))
        seq = rng.normal(0.0, 1.5, size=(t, d))
        instances.append((hmm, seq))
    return instances


def test_01_forward_matches_enumeration():
    t0 = time.perf_counter()
    worst = 0.0
    for hmm, seq in _oracle_instances():
        diff = abs(log_likelihood(hmm, seq) - enum_log_likelihood(hmm, seq))
        worst = max(worst, diff)
        assert diff <= 1e-9
    dt = time.perf_counter() - t0
    assert dt < 10.0
    print(f"PASS criterion 1: forward log-likelihood matches path enumeration "
          f"on 100 instances (max diff {worst:.2e}, {dt:.1f}s)")


def test_02_posteriors_match_enumeration():
    worst = 0.0
    for hmm, seq in _oracle_instances():
        _, gamma_ref, xi_ref = enum_posteriors(hmm, seq)
        post = posteriors(hmm, seq)
        dg = float(np.max(np.abs(post.gamma - gamma_ref)))
        dx = float(np.max(np.abs(post.xi - xi_ref)))
        worst = max(worst, dg, dx)
        assert dg <= 1e-9 and dx <= 1e-9
    print(f"PASS criterion 2: state and transition posteriors match enumeration "
          f"on 100 instances (max diff {worst:.2e})")


def test_03_em_objective_monotone(tmp_path):
    t0 = time.perf_counter()
    uniform3 = np.full(3, 1.0 / 3)
    sticky = np.full((3, 3), 0.1) + 0.7 * np.eye(3)
    comps = [GaussianHmm(uniform3, sticky,
                         [[4.0 * m - 4.0, -4.0], [4.0 * m - 4.0, 0.0],
                          [4.0 * m - 4.0, 4.0]],
                         np.full((3, 2), 0.5)) for m in range(4)]
    alpha = np.full((3, 4), 0.1) + 0.6 * np.eye(3, 4)
    spec_path = str(tmp_path / "truth.json")
    io.save_model(SparseMixtureModel(comps, alpha), spec_path)
    data_path = str(tmp_path / "train.jsonl")
    rc = cli.main(["generate", "--spec", spec_path, "--num-seqs", "67",
                   "--length", "12", "--seed", "7", "--out", data_path])
    assert rc == 0
    full = io.load_dataset(data_path)
    assert len(full.items) == 201
    data = SequenceDataset(full.items[:200])  # criterion calls for N=200 total

    model = initialize_model(data, num_nodes=3, num_components=4, num_states=3,
                             rng_seed=0, with_scores=False)
    objectives = []
    for _ in range(51):
        step = em_step_mhmm(model, data)
        model = step.model
        objectives.append(step.objective)
    drops = [objectives[i + 1] - objectives[i] for i in range(50)]
    assert all(d >= -1e-8 for d in drops), f"worst step {min(drops):.3e}"
    dt = time.perf_counter() - t0
    assert dt < 120.0
    print(f"PASS criterion 3: EM objective non-decreasing over 50 iterations "
          f"({objectives[0]:.1f} -> {objectives[-1]:.1f}, {dt:.1f}s)")


def _frozen_objective(beta, stats, graph, lam):
    """Mean responsibility-weighted log coefficients plus the graph term,
    with the responsibilities held fixed."""
    alpha = reparameterize_rows(beta)
    n = stats.eta.shape[0]
    data_term = 0.0
    for i in range(n):
        for m in range(stats.eta.shape[1]):
            if stats.eta[i, m] > 0.0:
                data_term += stats.eta[i, m] * np.log(alpha[stats.nodes[i] - 1, m])
    return data_term / n + lam * regularizer_value(alpha, graph)


def test_04_gradient_matches_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    lam = 0.4
    step = 1e-6
    worst = 0.0
    for _ in range(20):
        k, m = 3, 4
        beta = rng.uniform(0.05, 1.5, size=(k, m))
        comps = [random_hmm(rng, 2, 1) for _ in range(m)]
        model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
        w = np.triu(rng.uniform(0, 1, size=(k, k)), 1)
        graph = AffinityGraph(w + w.T)
        data = SequenceDataset([(int(rng.integers(1, k + 1)), rng.normal(size=(3, 1)))
                                for _ in range(6)])
        stats = mixture_posteriors(model, data)
        grad = coefficient_gradient(model.alpha, model.beta, stats, graph, lam)
        for r in range(k):
            for c in range(m):
                if beta[r, c] <= 1e-3:
                    continue
                up, dn = beta.copy(), beta.copy()
                up[r, c] += step
                dn[r, c] -= step
                fd = (_frozen_objective(up, stats, graph, lam)
                      - _frozen_objective(dn, stats, graph, lam)) / (2 * step)
                rel = abs(grad[r, c] - fd) / max(abs(fd), 1e-8)
                worst = max(worst, rel)
                assert rel < 1e-5, f"grad[{r},{c}]={grad[r, c]:.10g} fd={fd:.10g}"
    dt = time.perf_counter() - t0
    assert dt < 30.0
    print(f"PASS criterion 4: coefficient gradient matches central differences "
          f"on 20 instances (max rel err {worst:.2e}, {dt:.1f}s)")


def test_05_unregularized_modes_agree():
    rng = np.random.default_rng(77)
    comps = [random_hmm(rng, 2, 1) for _ in range(2)]
    beta = rng.uniform(0.3, 1.2, size=(2, 2))
    model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
    data = SequenceDataset([(node, sample_from_node(model, node, 8, rng))
                            for node in (1, 2) for _ in range(6)])
    graph = AffinityGraph([[0.0, 1.0], [1.0, 0.0]])
    config = TrainConfig(lam=0.0, inner_iters=500, learning_rate=0.05)
    by_ascent = em_step_spamhmm(model, data, graph, config).model
    closed = em_step_mhmm(model, data).model
    diff = float(np.max(np.abs(by_ascent.alpha - closed.alpha)))
    assert diff < 1e-3
    print(f"PASS criterion 5: 500-step score ascent at lam=0 reaches the "
          f"closed-form coefficient update (max diff {diff:.2e})")


def _overlap(p, q):
    # regularizer on a two-node unit-weight pair is exactly the dot product
    return regularizer_value(np.vstack([p, q]), AffinityGraph([[0.0, 1.0],
                                                               [1.0, 0.0]]))


def test_06_overlap_measure_properties():
    rng = np.random.default_rng(6)
    for _ in range(1000):
        m = int(rng.integers(2, 7))
        conc = float(rng.choice([0.3, 1.0, 3.0]))
        p = rng.dirichlet(np.full(m, conc))
        q = rng.dirichlet(np.full(m, conc))
        v = _overlap(p, q)
        assert 0.0 <= v <= 1.0
        assert v < 1.0 - 1e-12  # dirichlet draws are never one-hot
    for _ in range(50):
        mp, mq = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        p = np.concatenate([rng.dirichlet(np.ones(mp)), np.zeros(mq)])
        q = np.concatenate([np.zeros(mp), rng.dirichlet(np.ones(mq))])
        assert _overlap(p, q) == 0.0
    for m in range(2, 7):
        e = np.zeros(m)
        e[rng.integers(m)] = 1.0
        assert _overlap(e, e) == 1.0
    near = np.array([1.0 - 1e-6, 1e-6])
    assert _overlap(near, near) < 1.0 - 1e-12
    print("PASS criterion 6: overlap measure bounded in [0, 1], exactly 0 on "
          "disjoint support, exactly 1 only for identical one-hot rows")


def test_07_sparsity_increases_with_lambda():
    t0 = time.perf_counter()
    shared = GaussianHmm([0.5, 0.5], [[0.9, 0.1], [0.1, 0.9]],
                         [[-2.0], [1.0]], [[0.4], [0.4]])
    generator = SparseMixtureModel([shared], np.ones((4, 1)))
    rng = np.random.default_rng(12345)
    data = SequenceDataset([(node, sample_from_node(generator, node, 15, rng))
                            for node in range(1, 5) for _ in range(6)])
    graph = AffinityGraph(np.ones((4, 4)) - np.eye(4))
    means = {}
    for lam in (0.0, 0.1, 1.0):
        vals = []
        for seed in range(5):
            config = TrainConfig(lam=lam, outer_iters=30, inner_iters=100,
                                 learning_rate=1e-2, rng_seed=seed)
            result = fit(data, graph, config, InitSpec(4, 2))
            vals.append(relative_sparsity(result.model))
        means[lam] = float(np.mean(vals))
    dt = time.perf_counter() - t0
    assert means[0.0] <= means[0.1] <= means[1.0]
    assert means[1.0] >= means[0.0] + 0.05
    assert dt < 600.0
    print(f"PASS criterion 7: mean coefficient sparsity non-decreasing in lambda "
          f"({means[0.0]:.3f} / {means[0.1]:.3f} / {means[1.0]:.3f} over 5 seeds, "
          f"{dt:.1f}s)")


def test_08_recovers_generating_structure():
    atom1 = GaussianHmm([0.7, 0.3], [[0.8, 0.2], [0.3, 0.7]],
                        [[-3.0], [-1.0]], [[0.3], [0.3]])
    atom2 = GaussianHmm([0.4, 0.6], [[0.6, 0.4], [0.2, 0.8]],
                        [[1.0], [3.0]], [[0.3], [0.3]])
    truth = SparseMixtureModel([atom1, atom2],
                               [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    rng = np.random.default_rng(999)

    def draw(n_per_node, length):
        return SequenceDataset([(node, sample_from_node(truth, node, length, rng))
                                for node in range(1, 5) for _ in range(n_per_node)])

    train = draw(20, 30)
    held = draw(10, 30)
    w = np.zeros((4, 4))
    w[0, 1] = w[1, 0] = 1.0
    w[2, 3] = w[3, 2] = 1.0
    config = TrainConfig(lam=0.1, outer_iters=40, inner_iters=100,
                         learning_rate=1e-2, rng_seed=0)
    result = fit(train, AffinityGraph(w), config, InitSpec(2, 2))

    def held_avg(model):
        return float(np.mean([mixture_log_likelihood(model, it.seq, it.node)
                              for it in held.items]))

    ll_true = held_avg(truth)
    ll_fit = held_avg(result.model)
    rel = abs(ll_fit - ll_true) / abs(ll_true)
    assert rel <= 0.05
    clusters = cluster_assignments(result.model)
    assert clusters[0] == clusters[1]
    assert clusters[2] == clusters[3]
    assert clusters[0] != clusters[2]
    print(f"PASS criterion 8: held-out average log-likelihood within 5% of the "
          f"generator ({rel:.4f} relative) and node grouping recovered "
          f"({clusters.tolist()})")


def test_09_forecast_chain_rule():
    rng = np.random.default_rng(9)
    worst = 0.0
    for i in range(50):
        s = int(rng.integers(1, 4))
        d = int(rng.integers(1, 3))
        hmm = random_hmm(rng, s, d, sparse_transitions=(i % 4 == 0))
        model = SparseMixtureModel([hmm], np.ones((1, 1)))
        prefix = rng.normal(size=(int(rng.integers(2, 7)), d))
        cont = rng.normal(size=(int(rng.integers(1, 6)), d))
        post = condition(model, prefix, 1)
        lhs = predictive_log_likelihood(post, cont)
        rhs = (mixture_log_likelihood(model, np.vstack([prefix, cont]), 1)
               - mixture_log_likelihood(model, prefix, 1))
        worst = max(worst, abs(lhs - rhs))
        assert abs(lhs - rhs) <= 1e-9
    print(f"PASS criterion 9: conditional forecast likelihood equals the "
          f"likelihood-ratio identity on 50 instances (max diff {worst:.2e})")


def test_10_beats_capacity_matched_baselines():
    k_nodes, m_comp, s_states = 8, 2, 2
    trans = [[0.8, 0.2], [0.3, 0.7]]
    init = [0.6, 0.4]

    def make_truth(shift=0.0):
        comps = [GaussianHmm(init, trans,
                             [[base + shift], [base + 3.0 + shift]],
                             [[0.25], [0.25]]) for base in (4.0, 12.0)]
        alpha = np.zeros((k_nodes, m_comp))
        for k in range(k_nodes):
            alpha[k, k % m_comp] = 1.0
        return SparseMixtureModel(comps, alpha)

    w = np.zeros((k_nodes, k_nodes))
    for a in range(k_nodes):
        for b in range(a + 1, k_nodes):
            if a % m_comp == b % m_comp:
                w[a, b] = w[b, a] = 1.0
    graph = AffinityGraph(w)
    pooled_states, per_node_states = baseline_state_counts(m_comp, s_states, k_nodes)
    truth = make_truth()
    shifted = make_truth(shift=0.8)

    aucs = {name: [] for name in ("mhmm", "spamhmm", "single", "per_node")}
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        train = SequenceDataset([(k, sample_from_node(truth, k, 12, rng))
                                 for k in range(1, k_nodes + 1) for _ in range(8)])
        test_items = []
        for k in range(1, k_nodes + 1):
            for _ in range(5):
                test_items.append((k, sample_from_node(truth, k, 12, rng), "normal"))
            for _ in range(5):
                test_items.append((k, sample_from_node(shifted, k, 12, rng),
                                   "anomalous"))
        test = SequenceDataset(test_items)
        cfg = TrainConfig(outer_iters=25, rng_seed=seed)
        reg_cfg = TrainConfig(lam=0.1, outer_iters=25, inner_iters=100,
                              learning_rate=1e-2, rng_seed=seed)
        models = {
            "mhmm": fit(train, None, cfg, InitSpec(m_comp, s_states)).model,
            "spamhmm": fit(train, graph, reg_cfg, InitSpec(m_comp, s_states)).model,
            "single": fit_single_hmm(train, cfg, pooled_states).model,
            "per_node": fit_per_node(train, cfg, per_node_states).model,
        }
        for name, model in models.items():
            scored = [(s.avg_log_likelihood, s.label)
                      for s in score_dataset(model, test)]
            aucs[name].append(roc_auc(scored)[1])
    means = {name: float(np.mean(v)) for name, v in aucs.items()}
    assert means["mhmm"] >= means["single"]
    assert means["mhmm"] >= means["per_node"]
    assert means["spamhmm"] >= means["single"]
    assert means["spamhmm"] >= means["per_node"]
    print(f"PASS criterion 10: mean AUC over 5 seeds — mixture {means['mhmm']:.3f} "
          f"and regularized mixture {means['spamhmm']:.3f} vs pooled "
          f"{means['single']:.3f} and per-node {means['per_node']:.3f} baselines")


def test_11_determinism_and_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    data = SequenceDataset([(node, rng.normal(loc=2.0 * node, size=(6, 1)))
                            for node in range(1, 4) for _ in range(8)])
    graph = AffinityGraph(np.ones((3, 3)) - np.eye(3))
    config = TrainConfig(lam=0.2, outer_iters=6, inner_iters=30,
                         learning_rate=1e-2, rng_seed=42)
    first = fit(data, graph, config, InitSpec(2, 2)).model
    second = fit(data, graph, config, InitSpec(2, 2)).model
    p1, p2, p3 = (str(tmp_path / name) for name in ("a.json", "b.json", "c.json"))
    io.save_model(first, p1, metadata={"run": "acceptance"})
    io.save_model(second, p2, metadata={"run": "acceptance"})
    b1 = open(p1, "rb").read()
    assert b1 == open(p2, "rb").read()

    loaded, meta = io.load_model(p1)
    assert meta == {"run": "acceptance"}
    io.save_model(loaded, p3, metadata=meta)
    assert open(p3, "rb").read() == b1
    assert np.array_equal(loaded.alpha, first.alpha)
    assert np.array_equal(loaded.beta, first.beta)
    for got, want in zip(loaded.components, first.components):
        assert np.array_equal(got.initial, want.initial)
        assert np.array_equal(got.transition, want.transition)
        assert np.array_equal(got.means, want.means)
        assert np.array_equal(got.variances, want.variances)
    print("PASS criterion 11: fixed-seed training is byte-identical across runs "
          "and the model file roundtrips exactly")


def test_12_inference_scales_linearly():
    rng = np.random.default_rng(12)

    def build(m_count):
        comps = []
        for _ in range(m_count):
            pi = rng.dirichlet(np.ones(3))
            a = rng.dirichlet(np.ones(3), size=3)
            comps.append(GaussianHmm(pi, a, rng.normal(size=(3, 2)),
                                     rng.uniform(0.5, 1.5, size=(3, 2))))
        return SparseMixtureModel(comps, np.full((1, m_count), 1.0 / m_count))

    small, large = build(4), build(8)
    seq_short = rng.normal(size=(200, 2))
    seq_long = rng.normal(size=(400, 2))
    cases = [(small, seq_short), (large, seq_short), (small, seq_long)]
    for model, seq in cases:
        mixture_log_likelihood(model, seq, 1)  # warm any lazy compilation
    # The three cases' calls alternate, so a slow spell of the host slows
    # all alike, and each case's minimum is its least disturbed call.
    times = [[] for _ in cases]
    for _ in range(20):
        for slot, (model, seq) in enumerate(cases):
            t0 = time.perf_counter()
            mixture_log_likelihood(model, seq, 1)
            times[slot].append(time.perf_counter() - t0)
    base, doubled_m, doubled_t = (min(ts) for ts in times)
    m_ratio = doubled_m / base
    t_ratio = doubled_t / base
    assert m_ratio <= 2.2
    assert t_ratio <= 2.2
    print(f"PASS criterion 12: minimum inference time grows {m_ratio:.2f}x when "
          f"components double and {t_ratio:.2f}x when length doubles "
          f"(budget 2.2x)")
