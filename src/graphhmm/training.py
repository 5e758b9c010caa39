"""Expectation-maximization training for the node-mixed HMM dictionary.

Two modes share one E-step and one component re-estimation routine:

* plain mode: mixing coefficients get their closed-form update (per-node
  mean of the responsibilities);
* regularized mode: coefficients live behind the squared-rectifier scores,
  which an inner Adam loop pushes along the penalized-objective gradient.
  The graph term rewards overlap between the mixing rows of well-connected
  nodes and the rectifier produces exact zeros, so the learned rows are
  sparse.

Both step functions return an EmStep: the updated model, the step's warnings,
and the objective at the parameters they were given (before the update):
total data log-likelihood in plain mode, and mean data log-likelihood plus
the weighted graph term in regularized mode. Nothing here logs.
"""

import copy
import functools
import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from . import kernels
from .hmm import VARIANCE_FLOOR, GaussianHmm, check_count, check_real
from .mixture import (AffinityGraph, MixtureSufficientStats, SequenceDataset,
                      SparseMixtureModel, check_node, coefficient_gradient,
                      mixture_log_likelihoods, mixture_posteriors, regularizer_value,
                      reparameterize_rows)

RESPONSIBILITY_EPS = 1e-12
# Adam's moment decay rates and denominator guard on the score updates.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
# A relative objective improvement below this counts toward the plateau.
PLATEAU_TOL = 1e-6
_ITERATIONS = "an integer iteration count"


@dataclass
class TrainConfig:
    """Training hyperparameters.

    lam is the regularization strength; outer_iters caps EM iterations and
    inner_iters the per-M-step Adam iterations on the scores. Training stops
    early once the relative objective improvement stays below PLATEAU_TOL
    for plateau_patience consecutive iterations. hmm.check_count and
    check_real check each field: lam finite >= 0, learning_rate finite > 0,
    rng_seed an integer >= 0, the counts integers >= 1; all kept as int or float.
    """

    lam: float = 0.0
    outer_iters: int = 100
    inner_iters: int = 100
    learning_rate: float = 1e-3
    plateau_patience: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        self.lam = check_real(self.lam, "lam")
        self.outer_iters = check_count(self.outer_iters, "outer_iters", what=_ITERATIONS)
        self.inner_iters = check_count(self.inner_iters, "inner_iters", what=_ITERATIONS)
        self.learning_rate = check_real(self.learning_rate, "learning_rate", positive=True)
        self.plateau_patience = check_count(self.plateau_patience, "plateau_patience")
        self.rng_seed = check_count(self.rng_seed, "rng_seed", minimum=0)


@dataclass
class InitSpec:
    """Model shape for a fresh fit: component count, states per component,
    and (optionally) the node count, which otherwise comes from the graph
    or from the largest node id in the data. Each is a count for
    hmm.check_count, kept as int."""

    num_components: int
    num_states: int
    num_nodes: int = None

    def __post_init__(self):
        self.num_components = check_count(self.num_components, "num_components")
        self.num_states = check_count(self.num_states, "num_states")
        if self.num_nodes is not None:
            self.num_nodes = check_count(self.num_nodes, "num_nodes")


@dataclass
class AdamState:
    """First/second moment estimates for the score updates. One instance
    persists across all outer iterations of a fit, so the inner loop resumes
    with warm moments. m and v are float copies owned by the state, because
    each step updates them in place."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    def __post_init__(self):
        self.m = np.array(self.m, dtype=np.float64)
        self.v = np.array(self.v, dtype=np.float64)

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)

    def reset_rows(self, rows: np.ndarray) -> None:
        self.m[rows] = 0.0
        self.v[rows] = 0.0


def adam_ascent_step(state: AdamState, grad: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Bias-corrected Adam step in the ascent direction.

    state.m and state.v, float arrays of grad's shape, are updated in place.
    The operations are those of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g^2
    and lr m_hat / (sqrt(v_hat) + eps), in that order, so the bits are too.
    """
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    square = grad * grad
    square *= 1.0 - ADAM_BETA2
    state.v *= ADAM_BETA2
    state.v += square
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.t)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.t)
    np.sqrt(v_hat, out=v_hat)
    v_hat += ADAM_EPS
    m_hat *= config.learning_rate
    m_hat /= v_hat
    return m_hat


def _reestimate_components(model: SparseMixtureModel, dataset: SequenceDataset,
                           stats: MixtureSufficientStats, warnings: list) -> GaussianHmm:
    """Closed-form updates of initial/transition/means/variances, as one stack.

    The eta-weighted sums run over the E-step's blocks of live pairs, one
    array expression per block. A component whose total responsibility is
    below RESPONSIBILITY_EPS keeps all its parameters; within a live
    component, a state whose occupancy denominator is that small keeps its
    row; each such case appends a message to warnings. Variances are floored
    after the update. Variance updates use the freshly updated means.
    """
    m_count = model.num_components
    s_count, dim = model.num_states, model.dim
    eta = stats.eta
    comp_resp = eta.sum(axis=0)
    pi_num = np.zeros((m_count, s_count))
    trans_num = np.zeros((m_count, s_count, s_count))
    trans_den = np.zeros((m_count, s_count))
    occ = np.zeros((m_count, s_count))
    mean_num = np.zeros((m_count, s_count, dim))
    block_seqs = []
    for block in stats.blocks:
        w = eta[block.seq, block.comp]
        seqs = np.stack([dataset.items[i].seq for i in block.seq])
        emit_gamma = block.gamma[:, 1:]
        np.add.at(pi_num, block.comp, w[:, None] * block.gamma[:, 0])
        np.add.at(trans_num, block.comp, w[:, None, None] * block.transitions)
        np.add.at(trans_den, block.comp, w[:, None] * block.gamma[:, :-1].sum(axis=1))
        np.add.at(occ, block.comp, w[:, None] * emit_gamma.sum(axis=1))
        np.add.at(mean_num, block.comp,
                  w[:, None, None] * np.einsum("bts,btd->bsd", emit_gamma, seqs))
        block_seqs.append(seqs)
    old = model.components
    live_comp = comp_resp >= RESPONSIBILITY_EPS
    dead_rows = live_comp[:, None] & (trans_den < RESPONSIBILITY_EPS)
    dead_states = live_comp[:, None] & (occ < RESPONSIBILITY_EPS)
    live_trans = live_comp[:, None] & ~dead_rows
    live_emit = live_comp[:, None] & ~dead_states
    means = old.means.copy()
    means[live_emit] = mean_num[live_emit] / occ[live_emit, None]
    var_num = np.zeros((m_count, s_count, dim))
    for block, seqs in zip(stats.blocks, block_seqs):
        w = eta[block.seq, block.comp]
        np.add.at(var_num, block.comp,
                  w[:, None, None] * _weighted_square_deviations(
                      block.gamma[:, 1:], seqs, means[block.comp]))
    initial = old.initial.copy()
    initial[live_comp] = pi_num[live_comp] / comp_resp[live_comp, None]
    transition = old.transition.copy()
    transition[live_trans] = trans_num[live_trans] / trans_den[live_trans, None]
    variances = old.variances.copy()
    variances[live_emit] = var_num[live_emit] / occ[live_emit, None]
    # a no-op on unchanged entries, which are already validated >= the floor
    variances = np.maximum(variances, VARIANCE_FLOOR)
    for m in np.flatnonzero(~live_comp | dead_rows.any(axis=1) | dead_states.any(axis=1)):
        if not live_comp[m]:
            warnings.append(f"component {m + 1}: total responsibility below "
                            f"{RESPONSIBILITY_EPS:g}, parameters left unchanged")
            continue
        if dead_rows[m].any():
            warnings.append(f"component {m + 1}: transition rows "
                            f"{np.flatnonzero(dead_rows[m]) + 1} have near-zero occupancy, "
                            f"left unchanged")
        if dead_states[m].any():
            warnings.append(f"component {m + 1}: emission states "
                            f"{np.flatnonzero(dead_states[m]) + 1} have near-zero occupancy, "
                            f"left unchanged")
    return GaussianHmm(initial, transition, means, variances)


def _weighted_square_deviations(gamma: np.ndarray, seqs: np.ndarray,
                                means: np.ndarray) -> np.ndarray:
    """sum_t gamma[b, t, s] * (seqs[b, t] - means[b, s])**2 per pair, shape (B, S, D).

    Summed over time chunks so that the deviations stay near
    kernels.CHUNK_CELLS cells. They are written one feature at a time into a
    time-major (C, D, B, S) buffer, so each write and the einsum's inner loop
    run over the contiguous (pair, state) cells, never over the short
    feature axis. Each entry is still summed over t in time order, so for the
    time-major gamma of the E-step it is bit for bit the sum of a
    (B, C, S, D) einsum per chunk, at any D.
    """
    b_count, t_len, s_count = gamma.shape
    dim = seqs.shape[2]
    chunk = max(1, kernels.CHUNK_CELLS // (b_count * s_count * dim))
    gamma, seqs = gamma.transpose(1, 0, 2), seqs.transpose(1, 0, 2)  # time-major
    diff = np.empty((min(chunk, t_len), dim, b_count, s_count))
    out = np.zeros((dim, b_count, s_count))
    for start in range(0, t_len, chunk):
        stop = min(start + chunk, t_len)
        part = diff[:stop - start]
        for d in range(dim):
            np.subtract(seqs[start:stop, :, None, d], means[None, :, :, d], out=part[:, d])
        part *= part
        out += np.einsum("tbs,tdbs->dbs", gamma[start:stop], part)
    return out.transpose(1, 2, 0)


def _objective(lls: np.ndarray, alpha: np.ndarray, graph: AffinityGraph, lam: float) -> float:
    """The objective: the sum of lls without a graph, else their mean plus lam * graph term."""
    if graph is None:
        return float(np.sum(lls))
    return float(np.mean(lls) + lam * regularizer_value(alpha, graph))


class EmStep(NamedTuple):
    """One EM iteration: the updated model, the objective under the parameters
    the step was given, and the step's warnings in the order they were raised."""

    model: SparseMixtureModel
    objective: float
    warnings: list


def em_step_mhmm(model: SparseMixtureModel, dataset: SequenceDataset) -> EmStep:
    """One EM iteration with the closed-form coefficient update.

    The step's objective is the total data log-likelihood under the
    parameters passed in. Nodes with no sequences keep their mixing row.
    """
    stats = mixture_posteriors(model, dataset)
    objective = _objective(stats.log_likelihoods, model.alpha, None, 0.0)
    alpha = model.alpha.copy()
    has_data = stats.node_counts > 0
    alpha[has_data] = stats.eta_by_node[has_data] / stats.node_counts[has_data, None]
    warnings = [f"node {k + 1}: no training sequences, mixing row left unchanged"
                for k in np.flatnonzero(~has_data)]
    components = _reestimate_components(model, dataset, stats, warnings)
    return EmStep(SparseMixtureModel(components, alpha, beta=None), objective, warnings)


def _update_scores(model: SparseMixtureModel, stats: MixtureSufficientStats,
                   graph: AffinityGraph, config: TrainConfig, adam: AdamState,
                   warnings: list):
    """Inner ascent loop on the scores with frozen responsibilities.

    The graph term is re-evaluated at the live coefficients on every
    iteration. A row whose entries all fall to or below zero is reset to a
    uniform positive value, its Adam moments are cleared and warnings gets a message.
    """
    beta = model.beta.copy()
    alpha = model.alpha.copy()
    for _ in range(config.inner_iters):
        grad = coefficient_gradient(alpha, beta, stats, graph, config.lam)
        beta += adam_ascent_step(adam, grad, config)
        # array methods: np.all and np.any add a Python wrapper per call
        dead = (beta <= 0.0).all(axis=1)
        if dead.any():
            beta[dead] = 0.1
            adam.reset_rows(dead)
            warnings.append(f"nodes {np.flatnonzero(dead) + 1}: all scores fell to zero, "
                            f"rows reset to uniform")
        alpha = reparameterize_rows(beta)
    return alpha, beta


def em_step_spamhmm(model: SparseMixtureModel, dataset: SequenceDataset,
                    graph: AffinityGraph, config: TrainConfig,
                    adam: AdamState = None) -> EmStep:
    """One EM iteration with the gradient-based coefficient update.

    The step's objective is the penalized objective under the parameters
    passed in: mean data log-likelihood plus lam times the graph term.
    Passing the same AdamState across calls keeps the score moments warm,
    which is what fit() does.
    """
    if model.beta is None:
        raise ValueError("regularized step requires a model with scores (beta)")
    if graph.num_nodes != model.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but model has {model.num_nodes}")
    if adam is None:
        adam = AdamState.zeros(model.beta.shape)
    elif adam.m.shape != model.beta.shape or adam.v.shape != model.beta.shape:
        # a broadcastable state would share one row of moments across all nodes
        raise ValueError(f"Adam state has moments of shape m {adam.m.shape}, "
                         f"v {adam.v.shape}; the scores (beta) have shape {model.beta.shape}")
    stats = mixture_posteriors(model, dataset)
    objective = _objective(stats.log_likelihoods, model.alpha, graph, config.lam)
    warnings = []
    alpha, beta = _update_scores(model, stats, graph, config, adam, warnings)
    components = _reestimate_components(model, dataset, stats, warnings)
    return EmStep(SparseMixtureModel(components, alpha, beta), objective, warnings)


def _kmeans_plus_plus(frames: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = frames.shape[0]
    centers = np.empty((k, frames.shape[1]))
    centers[0] = frames[rng.integers(n)]
    d2 = np.sum((frames - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            centers[j] = frames[rng.integers(n)]
        else:
            centers[j] = frames[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((frames - centers[j]) ** 2, axis=1))
    return centers


def _kmeans(frames: np.ndarray, k: int, rng: np.random.Generator,
            max_iters: int = 100) -> np.ndarray:
    """Lloyd's algorithm from k-means++ seeds; returns the (k, D) centres.

    A (k, N) table holds each centre's squared distances, added up one
    feature at a time from a contiguous (D, N) copy of the frames, and the
    labels carry over between iterations. A frame's label is the first
    centre at its smallest distance, as argmin takes it: np.minimum.reduce
    gives the smallest distances, and a pass from centre k - 1 down to 0
    writes each centre's index where its row equals them, so the first tied
    centre writes last. Only the centres whose membership changed, the old
    and new labels of the frames that moved, are recomputed, and only their
    rows of the table: an unchanged centre has the same members, so its
    mean and its distances are the same bits. The members are gathered
    once per iteration by a stable sort of the labels, held in the smallest
    unsigned dtype that holds k - 1 so that numpy radix-sorts them, and a
    centre is np.add.reduce over its members, in frame order, divided by
    their count: the operations of mean on the same rows, so the centres are
    the per-centre means bit for bit at every D. A centre left without
    members stays where it is.
    """
    centers = _kmeans_plus_plus(frames, k, rng)
    n, dim = frames.shape
    columns = np.ascontiguousarray(frames.T)  # (D, N)
    d2, square, best = np.empty((k, n)), np.empty(n), np.empty(n)
    tied = np.empty(n, dtype=bool)
    labels, new_labels = None, np.zeros(n, dtype=np.min_scalar_type(k - 1))
    stale = range(k)  # centres whose table rows are out of date
    for _ in range(max_iters):
        for j in stale:
            row = np.subtract(columns[0], centers[j, 0], out=d2[j])
            row *= row
            for f in range(1, dim):
                np.subtract(columns[f], centers[j, f], out=square)
                square *= square
                row += square
        np.minimum.reduce(d2, axis=0, out=best)
        for j in range(k - 1, -1, -1):
            np.equal(d2[j], best, out=tied)
            np.putmask(new_labels, tied, j)
        if labels is None:
            changed = range(k)
            labels, new_labels = new_labels, np.zeros_like(new_labels)
        else:
            moved = new_labels != labels
            if not moved.any():
                break
            # a mask, not np.union1d, whose np.unique imports numpy.ma (1.7 MiB)
            changed = np.zeros(k, dtype=bool)
            changed[labels[moved]] = changed[new_labels[moved]] = True
            changed = np.flatnonzero(changed).tolist()
            labels, new_labels = new_labels, labels
        members = frames.take(np.argsort(labels, kind="stable"), axis=0)
        counts = np.bincount(labels, minlength=k)
        ends, counts = counts.cumsum().tolist(), counts.tolist()
        stale = []
        for j in changed:
            if counts[j]:
                rows = members[ends[j] - counts[j]:ends[j]]
                centers[j] = np.add.reduce(rows, axis=0) / counts[j]
                stale.append(j)
    return centers


def initialize_model(dataset: SequenceDataset, num_nodes: int, num_components: int,
                     num_states: int, rng_seed: int, with_scores: bool) -> SparseMixtureModel:
    """Seeded initialization shared by both training modes.

    Mixing rows are uniform random draws normalized per node (scores are
    their square roots so the reparameterization reproduces them exactly).
    State means come from k-means on the pooled frames, perturbed per
    component by Gaussian noise at 1% of the per-feature spread; variances
    start at the pooled per-feature variance; initial and transition
    distributions start uniform.
    """
    rng = np.random.default_rng(rng_seed)
    alpha = rng.uniform(size=(num_nodes, num_components))
    alpha /= alpha.sum(axis=1, keepdims=True)
    beta = None
    if with_scores:
        # scores are primary so the exact alpha == reparameterize_rows(beta)
        # invariant holds; this re-normalization only moves alpha by rounding
        beta = np.sqrt(alpha)
        alpha = reparameterize_rows(beta)
    frames = dataset.frames()
    if frames.shape[0] < num_states:
        raise ValueError(
            f"need at least {num_states} pooled frames to place {num_states} states, "
            f"got {frames.shape[0]}")
    centers = _kmeans(frames, num_states, rng)
    spread = frames.std(axis=0)
    pooled_var = np.maximum(frames.var(axis=0), VARIANCE_FLOOR)
    shape = (num_components, num_states)
    # one (M, S, D) draw consumes the stream exactly as M draws of (S, D)
    means = centers + rng.normal(0.0, 1.0, size=shape + frames.shape[1:]) * (0.01 * spread)
    components = GaussianHmm(np.full(shape, 1.0 / num_states),
                             np.full(shape + (num_states,), 1.0 / num_states), means,
                             np.tile(pooled_var, shape + (1,)))
    return SparseMixtureModel(components, alpha, beta)


@dataclass
class FitResult:
    """Final model plus the objective trace (one value per EM iteration,
    evaluated before that iteration's update, with the final model's
    objective appended) and every step's warnings, in order. fit_per_node's
    objectives hold one such trace per node instead."""

    model: SparseMixtureModel
    objectives: list
    mode: str
    warnings: list = field(default_factory=list)


def fit(dataset: SequenceDataset, graph: AffinityGraph, config: TrainConfig,
        init: InitSpec) -> FitResult:
    """Train a mixture from scratch.

    With a graph and lam > 0 the regularized mode runs; otherwise the
    closed-form mode does (the graph term would be inert at lam = 0). The
    objective is non-decreasing up to the tolerance of the inner loop, and
    training stops early on a plateau.
    """
    if graph is not None and init.num_nodes is not None \
            and graph.num_nodes != init.num_nodes:
        raise ValueError(
            f"init declares {init.num_nodes} nodes but graph has {graph.num_nodes}")
    num_nodes = init.num_nodes
    if num_nodes is None:
        num_nodes = graph.num_nodes if graph is not None else dataset.max_node
    check_node(dataset.max_node, num_nodes)
    regularized = graph is not None and config.lam > 0
    graph = graph if regularized else None
    model = initialize_model(dataset, num_nodes, init.num_components, init.num_states,
                             config.rng_seed, with_scores=regularized)
    em_step = em_step_mhmm
    if regularized:
        em_step = functools.partial(em_step_spamhmm, graph=graph, config=config,
                                    adam=AdamState.zeros(model.alpha.shape))
    warnings, objectives, plateau_run = [], [], 0
    for _ in range(config.outer_iters):
        step = em_step(model, dataset)
        model = step.model
        objectives.append(step.objective)
        warnings.extend(step.warnings)
        if len(objectives) > 1:
            rel = (objectives[-1] - objectives[-2]) / max(abs(objectives[-2]), RESPONSIBILITY_EPS)
            plateau_run = plateau_run + 1 if rel < PLATEAU_TOL else 0
        if plateau_run >= config.plateau_patience:
            break
    objectives.append(_objective(mixture_log_likelihoods(model, dataset), model.alpha,
                                 graph, config.lam))
    return FitResult(model, objectives, "spamhmm" if regularized else "mhmm", warnings)


def baseline_state_counts(num_components: int, num_states: int, num_nodes: int):
    """Parameter-parity state counts for the two reference baselines.

    A single pooled HMM gets ceil(S * sqrt(M)) states; per-node HMMs get
    ceil(S * sqrt(M / K)) states each, so either baseline spends roughly the
    same parameter budget as an M-component, S-state mixture.
    """
    pooled = math.ceil(num_states * math.sqrt(num_components))
    per_node = math.ceil(num_states * math.sqrt(num_components / num_nodes))
    return pooled, per_node


def fit_single_hmm(dataset: SequenceDataset, config: TrainConfig, num_states: int,
                   num_nodes: int = None) -> FitResult:
    """Pooled baseline: one HMM for all nodes, exposed as a mixture whose
    every node row is the one-hot on that single component."""
    k = dataset.max_node if num_nodes is None else check_count(num_nodes, "num_nodes")
    check_node(dataset.max_node, k)
    pooled = copy.copy(dataset)  # the records were checked once; relabel, do not recheck
    pooled.items = [item._replace(node=1) for item in dataset.items]
    result = fit(pooled, None, config, InitSpec(1, num_states, 1))
    single = result.model.components[0]
    model = SparseMixtureModel([single], np.ones((k, 1)))
    return replace(result, model=model)


def fit_per_node(dataset: SequenceDataset, config: TrainConfig, num_states: int,
                 num_nodes: int = None) -> FitResult:
    """Per-node baseline: an independent HMM per node, exposed as a mixture
    with identity mixing (node k always uses component k)."""
    k = dataset.max_node if num_nodes is None else check_count(num_nodes, "num_nodes")
    check_node(dataset.max_node, k)
    components, objectives, warnings = [], [], []
    for node in range(1, k + 1):
        sub = copy.copy(dataset)
        sub.items = [item._replace(node=1) for item in dataset.items if item.node == node]
        if not sub.items:
            raise ValueError(f"node {node}: per-node baseline needs at least one sequence")
        result = fit(sub, None, config, InitSpec(1, num_states, 1))
        components.append(result.model.components[0])
        objectives.append(result.objectives)
        warnings.extend(result.warnings)
    model = SparseMixtureModel(components, np.eye(k))
    return FitResult(model=model, objectives=objectives, mode="mhmm", warnings=warnings)
