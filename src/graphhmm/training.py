"""Expectation-maximization training for the node-mixed HMM dictionary.

Two modes share one E-step and one component re-estimation routine:

* plain mode: mixing coefficients get their closed-form update (per-node
  mean of the responsibilities);
* regularized mode: coefficients live behind the squared-rectifier scores,
  which an inner Adam loop pushes along the penalized-objective gradient.
  The graph term rewards overlap between the mixing rows of well-connected
  nodes and the rectifier produces exact zeros, so the learned rows are
  sparse.

Both step functions return the objective evaluated at the parameters they
were given (before the update): total data log-likelihood in plain mode, and
mean data log-likelihood plus the weighted graph term in regularized mode.
"""

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .hmm import VARIANCE_FLOOR, GaussianHmm
from .mixture import (AffinityGraph, MixtureSufficientStats, SequenceDataset,
                      SparseMixtureModel, coefficient_gradient, mixture_log_likelihoods,
                      mixture_posteriors, regularizer_value, reparameterize_rows)

logger = logging.getLogger(__name__)

RESPONSIBILITY_EPS = 1e-12


@dataclass
class TrainConfig:
    """Training hyperparameters.

    lam is the regularization strength; outer_iters caps EM iterations and
    inner_iters the per-M-step Adam iterations on the scores. Training stops
    early once the relative objective improvement stays below plateau_tol
    for plateau_patience consecutive iterations.
    """

    lam: float = 0.0
    outer_iters: int = 100
    inner_iters: int = 100
    learning_rate: float = 1e-3
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    plateau_tol: float = 1e-6
    plateau_patience: int = 5
    rng_seed: int = 0

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("lam must be >= 0")
        if self.outer_iters < 1 or self.inner_iters < 1:
            raise ValueError("iteration counts must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if not (0 <= self.adam_beta1 < 1 and 0 <= self.adam_beta2 < 1):
            raise ValueError("Adam decay rates must lie in [0, 1)")


@dataclass
class InitSpec:
    """Model shape for a fresh fit: component count, states per component,
    and (optionally) the node count, which otherwise comes from the graph
    or from the largest node id in the data."""

    num_components: int
    num_states: int
    num_nodes: int = None

    def __post_init__(self):
        if self.num_components < 1 or self.num_states < 1:
            raise ValueError("num_components and num_states must be >= 1")
        if self.num_nodes is not None and self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")


@dataclass
class AdamState:
    """First/second moment estimates for the score updates. One instance
    persists across all outer iterations of a fit, so the inner loop resumes
    with warm moments."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0

    @classmethod
    def zeros(cls, shape) -> "AdamState":
        return cls(m=np.zeros(shape), v=np.zeros(shape), t=0)

    def reset_rows(self, rows: np.ndarray) -> None:
        self.m[rows] = 0.0
        self.v[rows] = 0.0


def adam_ascent_step(state: AdamState, grad: np.ndarray, config: TrainConfig) -> np.ndarray:
    """Bias-corrected Adam step in the ascent direction."""
    state.t += 1
    state.m = config.adam_beta1 * state.m + (1.0 - config.adam_beta1) * grad
    state.v = config.adam_beta2 * state.v + (1.0 - config.adam_beta2) * (grad * grad)
    m_hat = state.m / (1.0 - config.adam_beta1 ** state.t)
    v_hat = state.v / (1.0 - config.adam_beta2 ** state.t)
    return config.learning_rate * m_hat / (np.sqrt(v_hat) + config.adam_eps)


def _warn(warnings: list, msg: str) -> None:
    logger.warning(msg)
    if warnings is not None:
        warnings.append(msg)


def _reestimate_components(model: SparseMixtureModel, dataset: SequenceDataset,
                           stats: MixtureSufficientStats, warnings: list = None) -> list:
    """Closed-form updates of initial/transition/means/variances per component.

    The eta-weighted sums run over the E-step's blocks of live pairs, one
    array expression per block. A component whose total responsibility is
    below RESPONSIBILITY_EPS keeps all its parameters; within a live
    component, a state whose occupancy denominator is that small keeps its
    row. Variances are floored after the update. Variance updates use the
    freshly updated means.
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
    live_comp = comp_resp >= RESPONSIBILITY_EPS
    live_trans = trans_den >= RESPONSIBILITY_EPS
    live_emit = occ >= RESPONSIBILITY_EPS
    means = np.stack([comp.means for comp in model.components])
    means[live_emit] = mean_num[live_emit] / occ[live_emit, None]
    var_num = np.zeros((m_count, s_count, dim))
    for block, seqs in zip(stats.blocks, block_seqs):
        w = eta[block.seq, block.comp]
        np.add.at(var_num, block.comp,
                  w[:, None, None] * _weighted_square_deviations(
                      block.gamma[:, 1:], seqs, means[block.comp]))
    new_components = []
    for m, old in enumerate(model.components):
        if not live_comp[m]:
            _warn(warnings, f"component {m + 1}: total responsibility below "
                            f"{RESPONSIBILITY_EPS:g}, parameters left unchanged")
            new_components.append(old)
            continue
        initial = pi_num[m] / comp_resp[m]
        transition = old.transition.copy()
        rows = live_trans[m]
        transition[rows] = trans_num[m, rows] / trans_den[m, rows, None]
        if not np.all(rows):
            _warn(warnings, f"component {m + 1}: transition rows "
                            f"{np.flatnonzero(~rows) + 1} have near-zero occupancy, "
                            f"left unchanged")
        states = live_emit[m]
        if not np.all(states):
            _warn(warnings, f"component {m + 1}: emission states "
                            f"{np.flatnonzero(~states) + 1} have near-zero occupancy, "
                            f"left unchanged")
        variances = old.variances.copy()
        variances[states] = var_num[m, states] / occ[m, states, None]
        variances = np.maximum(variances, VARIANCE_FLOOR)
        new_components.append(GaussianHmm(initial, transition, means[m], variances))
    return new_components


def _weighted_square_deviations(gamma: np.ndarray, seqs: np.ndarray,
                                means: np.ndarray) -> np.ndarray:
    """sum_t gamma[b, t, s] * (seqs[b, t] - means[b, s])**2 per pair, shape (B, S, D).

    Summed over time chunks so that the (B, C, S, D) deviations stay near
    kernels.CHUNK_CELLS cells.
    """
    b_count, t_len, s_count = gamma.shape
    chunk = max(1, kernels.CHUNK_CELLS // (b_count * s_count * seqs.shape[2]))
    out = np.zeros(means.shape)
    for start in range(0, t_len, chunk):
        stop = min(start + chunk, t_len)
        diff = seqs[:, start:stop, None, :] - means[:, None, :, :]
        out += np.einsum("bts,btsd->bsd", gamma[:, start:stop], diff * diff)
    return out


def em_step_mhmm(model: SparseMixtureModel, dataset: SequenceDataset,
                 warnings: list = None):
    """One EM iteration with the closed-form coefficient update.

    Returns (updated model, total data log-likelihood under the parameters
    passed in). Nodes with no sequences keep their mixing row.
    """
    stats = mixture_posteriors(model, dataset)
    objective = float(np.sum(stats.log_likelihoods))
    alpha = model.alpha.copy()
    has_data = stats.node_counts > 0
    alpha[has_data] = stats.eta_by_node[has_data] / stats.node_counts[has_data, None]
    for k in np.flatnonzero(~has_data):
        _warn(warnings, f"node {k + 1}: no training sequences, mixing row left unchanged")
    components = _reestimate_components(model, dataset, stats, warnings)
    return SparseMixtureModel(components, alpha, beta=None), objective


def _update_scores(model: SparseMixtureModel, stats: MixtureSufficientStats,
                   graph: AffinityGraph, config: TrainConfig, adam: AdamState,
                   warnings: list = None):
    """Inner ascent loop on the scores with frozen responsibilities.

    The graph term is re-evaluated at the live coefficients on every
    iteration. A row whose entries all fall to or below zero is reset to a
    uniform positive value and its Adam moments are cleared.
    """
    beta = model.beta.copy()
    alpha = model.alpha.copy()
    for _ in range(config.inner_iters):
        grad = coefficient_gradient(alpha, beta, stats, graph, config.lam)
        beta = beta + adam_ascent_step(adam, grad, config)
        dead = np.all(beta <= 0.0, axis=1)
        if np.any(dead):
            beta[dead] = 0.1
            adam.reset_rows(dead)
            _warn(warnings, f"nodes {np.flatnonzero(dead) + 1}: all scores fell to zero, "
                            f"rows reset to uniform")
        alpha = reparameterize_rows(beta)
    return alpha, beta


def em_step_spamhmm(model: SparseMixtureModel, dataset: SequenceDataset,
                    graph: AffinityGraph, config: TrainConfig,
                    adam: AdamState = None, warnings: list = None):
    """One EM iteration with the gradient-based coefficient update.

    Returns (updated model, penalized objective under the parameters passed
    in): mean data log-likelihood plus lam times the graph term. Passing the
    same AdamState across calls keeps the score moments warm, which is what
    fit() does.
    """
    if model.beta is None:
        raise ValueError("regularized step requires a model with scores (beta)")
    if graph.num_nodes != model.num_nodes:
        raise ValueError(
            f"graph has {graph.num_nodes} nodes but model has {model.num_nodes}")
    stats = mixture_posteriors(model, dataset)
    objective = float(np.mean(stats.log_likelihoods)
                      + config.lam * regularizer_value(model.alpha, graph))
    if adam is None:
        adam = AdamState.zeros(model.beta.shape)
    alpha, beta = _update_scores(model, stats, graph, config, adam, warnings)
    components = _reestimate_components(model, dataset, stats, warnings)
    return SparseMixtureModel(components, alpha, beta), objective


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
    centers = _kmeans_plus_plus(frames, k, rng)
    labels = None
    for _ in range(max_iters):
        # one feature at a time into one (N, k) array; no (N, k, D) array is built
        d2 = np.zeros((frames.shape[0], k))
        for j in range(frames.shape[1]):
            d2 += (frames[:, None, j] - centers[None, :, j]) ** 2
        new_labels = np.argmin(d2, axis=1)
        if labels is not None and np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            members = frames[labels == j]
            if members.shape[0] > 0:
                centers[j] = members.mean(axis=0)
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
        # scores are primary so the exact alpha == reparameterize(beta)
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
    dim = frames.shape[1]
    initial = np.full(num_states, 1.0 / num_states)
    transition = np.full((num_states, num_states), 1.0 / num_states)
    components = []
    for _ in range(num_components):
        means = centers + rng.normal(0.0, 1.0, size=(num_states, dim)) * (0.01 * spread)
        variances = np.tile(pooled_var, (num_states, 1))
        components.append(GaussianHmm(initial, transition, means, variances))
    return SparseMixtureModel(components, alpha, beta)


@dataclass
class FitResult:
    """Final model plus the objective trace (one value per EM iteration,
    evaluated before that iteration's update, with the final model's
    objective appended) and any warnings raised along the way."""

    model: SparseMixtureModel
    objectives: list
    mode: str
    warnings: list = field(default_factory=list)


def _current_objective(model: SparseMixtureModel, dataset: SequenceDataset,
                       graph: AffinityGraph, mode: str, lam: float) -> float:
    lls = mixture_log_likelihoods(model, dataset)
    if mode == "mhmm":
        return float(np.sum(lls))
    return float(np.mean(lls) + lam * regularizer_value(model.alpha, graph))


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
    if dataset.max_node > num_nodes:
        raise ValueError(
            f"dataset contains node id {dataset.max_node} but only {num_nodes} nodes declared")
    mode = "spamhmm" if (graph is not None and config.lam > 0) else "mhmm"
    model = initialize_model(dataset, num_nodes, init.num_components, init.num_states,
                             config.rng_seed, with_scores=(mode == "spamhmm"))
    adam = AdamState.zeros(model.alpha.shape) if mode == "spamhmm" else None
    warnings = []
    objectives = []
    plateau_run = 0
    prev = None
    for _ in range(config.outer_iters):
        if mode == "spamhmm":
            model, objective = em_step_spamhmm(model, dataset, graph, config, adam, warnings)
        else:
            model, objective = em_step_mhmm(model, dataset, warnings)
        objectives.append(objective)
        if prev is not None:
            rel = (objective - prev) / max(abs(prev), RESPONSIBILITY_EPS)
            plateau_run = plateau_run + 1 if rel < config.plateau_tol else 0
        prev = objective
        if plateau_run >= config.plateau_patience:
            break
    objectives.append(_current_objective(model, dataset, graph, mode, config.lam))
    return FitResult(model=model, objectives=objectives, mode=mode, warnings=warnings)


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
    pooled = SequenceDataset([(1, item.seq, item.label) for item in dataset.items])
    k = num_nodes if num_nodes is not None else dataset.max_node
    result = fit(pooled, None, config, InitSpec(1, num_states, 1))
    single = result.model.components[0]
    model = SparseMixtureModel([single], np.ones((k, 1)))
    return FitResult(model=model, objectives=result.objectives, mode=result.mode,
                     warnings=result.warnings)


def fit_per_node(dataset: SequenceDataset, config: TrainConfig, num_states: int,
                 num_nodes: int = None) -> FitResult:
    """Per-node baseline: an independent HMM per node, exposed as a mixture
    with identity mixing (node k always uses component k)."""
    k = num_nodes if num_nodes is not None else dataset.max_node
    components = []
    objectives = []
    warnings = []
    for node in range(1, k + 1):
        sub_items = [(1, item.seq, item.label) for item in dataset.items if item.node == node]
        if not sub_items:
            raise ValueError(f"node {node}: per-node baseline needs at least one sequence")
        result = fit(SequenceDataset(sub_items), None, config, InitSpec(1, num_states, 1))
        components.append(result.model.components[0])
        objectives.append(result.objectives)
        warnings.extend(result.warnings)
    model = SparseMixtureModel(components, np.eye(k))
    return FitResult(model=model, objectives=objectives, mode="mhmm", warnings=warnings)
