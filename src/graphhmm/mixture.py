"""Shared dictionary of HMMs mixed per node of a weighted graph.

Each node k of a K-node graph owns a distribution alpha[k] over M shared
HMM components, so a sequence observed at node k has density
p(X | k) = sum_m alpha[k, m] * p(X | component m). Mixing coefficients may
be parameterized through per-entry scores beta via a squared-rectifier map,
which can drive coefficients exactly to zero.

Node ids are 1-based throughout the public API, matching the file formats;
component indices returned to callers (sampling traces, cluster labels)
are 1-based as well.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .hmm import (check_rows_normalized, gaussian_log_densities, log_params, sample,
                  validate_sequence)

# Live pairs per block: one recursion step then covers about BLOCK_CELLS
# (pair, state, state) cells, whatever the state count.
BLOCK_CELLS = 4096
# (pair, t, state, dim) cells of the deviations in one batched density call.
DENSITY_CELLS = 8192


@dataclass
class AffinityGraph:
    """Symmetric node-affinity matrix with an exactly-zero diagonal.

    weights[j, k] > 0 pulls the mixing distributions of nodes j and k toward
    each other during regularized training; negative weights push them apart.
    """

    weights: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        w = self.weights
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weights must be square, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights contains non-finite values")
        if np.any(w != w.T):
            raise ValueError("weights must be exactly symmetric")
        if np.any(np.diag(w) != 0.0):
            raise ValueError("weights must have an exactly zero diagonal")

    @property
    def num_nodes(self) -> int:
        return self.weights.shape[0]

    def normalized(self) -> "AffinityGraph":
        """Rescale so the largest weight is 1. Requires a positive maximum."""
        mx = self.weights.max()
        if mx <= 0.0:
            raise ValueError("graph normalization requires a positive maximum weight")
        return AffinityGraph(self.weights / mx)


class SequenceItem(NamedTuple):
    node: int
    seq: np.ndarray
    label: Optional[str] = None


@dataclass
class SequenceDataset:
    """Sequences tagged with the 1-based id of the node that produced them.

    Sequences may have different lengths but must share one feature
    dimension. The optional per-item label is "normal" or "anomalous".
    """

    items: list

    def __post_init__(self):
        checked = []
        dim = None
        for i, item in enumerate(self.items):
            node, seq = item[0], item[1]
            label = item[2] if len(item) > 2 else None
            if not isinstance(node, (int, np.integer)) or isinstance(node, bool) or node < 1:
                raise ValueError(f"item {i}: node id must be an integer >= 1, got {node!r}")
            if label is not None and label not in ("normal", "anomalous"):
                raise ValueError(f"item {i}: label must be 'normal' or 'anomalous', got {label!r}")
            seq = np.asarray(seq, dtype=np.float64)
            if seq.ndim != 2 or seq.shape[0] < 1:
                raise ValueError(f"item {i}: sequence must be a non-empty (T, D) array")
            if not np.all(np.isfinite(seq)):
                raise ValueError(f"item {i}: sequence contains non-finite values")
            if dim is None:
                dim = seq.shape[1]
            elif seq.shape[1] != dim:
                raise ValueError(
                    f"item {i}: dimension {seq.shape[1]} differs from earlier items ({dim})")
            checked.append(SequenceItem(int(node), seq, label))
        if not checked:
            raise ValueError("dataset contains no sequences")
        self.items = checked

    def __len__(self) -> int:
        return len(self.items)

    @property
    def dim(self) -> int:
        return self.items[0].seq.shape[1]

    @property
    def max_node(self) -> int:
        return max(item.node for item in self.items)

    def node_counts(self, num_nodes: int) -> np.ndarray:
        counts = np.zeros(num_nodes, dtype=np.int64)
        for item in self.items:
            if item.node > num_nodes:
                raise ValueError(f"node id {item.node} exceeds declared node count {num_nodes}")
            counts[item.node - 1] += 1
        return counts

    def frames(self) -> np.ndarray:
        return np.concatenate([item.seq for item in self.items], axis=0)


def reparameterize_rows(beta: np.ndarray) -> np.ndarray:
    """Map score rows to mixing coefficients: rectify, square, normalize.

    Entries with beta <= 0 map to exactly zero. Every row must have at least
    one positive entry, otherwise it is degenerate.
    """
    # C order makes each row sum bit-identical to summing that row on its own
    r = np.maximum(np.ascontiguousarray(beta, dtype=np.float64), 0.0)
    r = r * r
    total = r.sum(axis=-1, keepdims=True)
    if np.any(total == 0.0):
        raise ValueError("degenerate score row: no positive entry")
    return r / total


def reparameterize(beta_row: np.ndarray) -> np.ndarray:
    """Map one score row to mixing coefficients (see reparameterize_rows)."""
    return reparameterize_rows(beta_row)


@dataclass
class SparseMixtureModel:
    """K nodes sharing M HMM components through per-node mixing rows.

    alpha is (K, M) row-stochastic. beta, when present, holds the score
    parameterization and alpha must equal reparameterize_rows(beta) exactly;
    models trained without the graph regularizer carry beta = None.
    """

    components: list
    alpha: np.ndarray
    beta: Optional[np.ndarray] = None

    def __post_init__(self):
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
        if not self.components:
            raise ValueError("model must have at least one component")
        s, d = self.components[0].num_states, self.components[0].dim
        for m, comp in enumerate(self.components):
            if comp.num_states != s or comp.dim != d:
                raise ValueError(
                    f"component {m + 1} has shape (S={comp.num_states}, D={comp.dim}), "
                    f"expected (S={s}, D={d})")
        if self.alpha.ndim != 2 or self.alpha.shape[1] != len(self.components):
            raise ValueError(
                f"alpha must be (K, {len(self.components)}), got {self.alpha.shape}")
        check_rows_normalized(self.alpha, "alpha")
        if self.beta is not None:
            self.beta = np.asarray(self.beta, dtype=np.float64)
            if self.beta.shape != self.alpha.shape:
                raise ValueError(
                    f"beta shape {self.beta.shape} != alpha shape {self.alpha.shape}")
            if np.any(reparameterize_rows(self.beta) != self.alpha):
                raise ValueError("alpha does not equal the reparameterization of beta")

    @property
    def num_nodes(self) -> int:
        return self.alpha.shape[0]

    @property
    def num_components(self) -> int:
        return self.alpha.shape[1]

    @property
    def num_states(self) -> int:
        return self.components[0].num_states

    @property
    def dim(self) -> int:
        return self.components[0].dim


@dataclass
class PairBlock:
    """Posteriors of a block of live (sequence, component) pairs of one length T.

    Pair b is record seq[b] under component comp[b] (both 0-based).
    gamma[b, t, s] = P(state_t = s | sequence, component) for t = 0..T, and
    transitions[b, s, u] = sum_t P(state_{t-1} = s, state_t = u | sequence,
    component) is the expected transition count. A pair whose likelihood is
    zero under its component has all-zero gamma and transitions.
    """

    seq: np.ndarray
    comp: np.ndarray
    gamma: np.ndarray
    transitions: np.ndarray


@dataclass
class MixtureSufficientStats:
    """Everything the M-step needs, cached from one E-step sweep.

    eta[i, m] is the posterior probability that sequence i came from
    component m given its node. blocks holds the state posteriors of the
    live pairs, those with alpha[node_i, m] > 0, stacked in PairBlocks; a
    pair absent from every block has a zero prior, so its eta is exactly zero
    and it contributes nothing. log_likelihoods[i] is log p(seq_i | node_i).
    """

    node_counts: np.ndarray
    eta: np.ndarray
    blocks: list
    nodes: np.ndarray = None
    log_likelihoods: np.ndarray = None

    @cached_property
    def eta_by_node(self) -> np.ndarray:
        """Responsibilities summed per node, shape (K, M); computed once, read-only."""
        total = np.zeros((self.node_counts.shape[0], self.eta.shape[1]))
        np.add.at(total, self.nodes - 1, self.eta)
        total.flags.writeable = False
        return total


def check_node(model: SparseMixtureModel, node: int) -> int:
    if not isinstance(node, (int, np.integer)) or isinstance(node, bool):
        raise ValueError(f"node id must be an integer, got {node!r}")
    if node < 1 or node > model.num_nodes:
        raise ValueError(f"node id {node} out of range [1..{model.num_nodes}]")
    return int(node)


class StackedComponents(NamedTuple):
    """The parameters of M components as stacked arrays.

    log_initial is (M, S) and log_transition (M, S, S), both with exact -inf
    at zeros; means and variances are (M, S, D).
    """

    log_initial: np.ndarray
    log_transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray


def stack_components(components: list) -> StackedComponents:
    """Stack the parameters of equally shaped components, in order."""
    logs = [log_params(comp) for comp in components]
    return StackedComponents(np.stack([pi for pi, _ in logs]), np.stack([a for _, a in logs]),
                             np.stack([comp.means for comp in components]),
                             np.stack([comp.variances for comp in components]))


def pair_log_densities(stacked: StackedComponents, seqs: list, seq: np.ndarray,
                       comp: np.ndarray) -> np.ndarray:
    """Emission log-densities of seqs[seq[b]] under component comp[b], shape (B, T, S).

    The sequences share one length T. Each gaussian_log_densities call
    covers as many pairs as fit in about DENSITY_CELLS (pair, t, s, d) cells;
    every entry is the same arithmetic as a call per pair. The result is a
    view of a time-major (T, B, S) array, the layout the recursions step in.
    """
    _, s_count, dim = stacked.means.shape
    t_len = seqs[seq[0]].shape[0]
    size = max(1, DENSITY_CELLS // (t_len * s_count * dim))
    out = np.empty((t_len, seq.size, s_count))
    for start in range(0, seq.size, size):
        part = slice(start, start + size)
        dens = gaussian_log_densities(np.stack([seqs[i] for i in seq[part]]),
                                      stacked.means[comp[part]], stacked.variances[comp[part]])
        out[:, part] = dens.transpose(1, 0, 2)
    return out.transpose(1, 0, 2)


def _live_pair_blocks(model: SparseMixtureModel, seqs: list, nodes: np.ndarray):
    """Yield (seq, comp) index arrays of blocks of live pairs.

    Pair (i, m) is live when alpha[nodes[i] - 1, m] > 0. Live pairs are ordered
    by sequence length, then record, then component, and cut into blocks of
    one length and at most max(1, BLOCK_CELLS // S**2) pairs.
    """
    lengths = np.array([x.shape[0] for x in seqs])
    seq, comp = np.nonzero(model.alpha[nodes - 1] > 0.0)
    order = np.argsort(lengths[seq], kind="stable")
    seq, comp = seq[order], comp[order]
    size = max(1, BLOCK_CELLS // (model.num_states * model.num_states))
    cuts = np.flatnonzero(np.diff(lengths[seq])) + 1
    for run_seq, run_comp in zip(np.split(seq, cuts), np.split(comp, cuts)):
        for start in range(0, run_seq.size, size):
            yield run_seq[start:start + size], run_comp[start:start + size]


def _block_forward(stacked: StackedComponents, seqs: list, seq: np.ndarray, comp: np.ndarray):
    """Forward pass over one block of live pairs.

    Returns the log transitions (B, S, S), emission log-densities, forward
    tables and each pair's log-likelihood under its component alone.
    """
    log_obs = pair_log_densities(stacked, seqs, seq, comp)
    log_a = stacked.log_transition[comp]
    la = kernels.forward_pairs(stacked.log_initial[comp], log_a, log_obs)
    return log_a, log_obs, la, kernels.logsumexp(la[:, -1], axis=1)


def _block_posteriors(stacked: StackedComponents, seqs: list, seq: np.ndarray,
                      comp: np.ndarray):
    """Posteriors of one block and each pair's log-likelihood under its component.

    The block's forward and backward tables are freed on return, so only one
    block's tables are held at a time.
    """
    log_a, log_obs, la, ll = _block_forward(stacked, seqs, seq, comp)
    lb = kernels.backward_pairs(log_a, log_obs)
    # at zero likelihood la + lb is -inf (or too small for exp) at every
    # cell, so normalizing by log 1 instead of log 0 leaves exact zeros, not nan
    safe_ll = np.where(ll == -np.inf, 0.0, ll)
    gamma = np.exp(la + lb - safe_ll[:, None, None])
    transitions = kernels.transition_counts(la, lb, log_a, log_obs, safe_ll)
    return PairBlock(seq, comp, gamma, transitions), ll


def _checked_nodes(model: SparseMixtureModel, dataset: SequenceDataset) -> np.ndarray:
    return np.array([check_node(model, item.node) for item in dataset.items], dtype=np.int64)


def _mixture_log_weights(model: SparseMixtureModel, seqs: list, nodes: np.ndarray) -> np.ndarray:
    """log alpha[node_i, m] + log p(seq_i | component m), shape (N, M); -inf where not live."""
    stacked = stack_components(model.components)
    log_w = np.full((len(seqs), model.num_components), -np.inf)
    for seq, comp in _live_pair_blocks(model, seqs, nodes):
        # keep only the log-likelihoods, so the block's tables are freed here
        ll = _block_forward(stacked, seqs, seq, comp)[3]
        log_w[seq, comp] = np.log(model.alpha[nodes[seq] - 1, comp]) + ll
    return log_w


def mixture_log_likelihoods(model: SparseMixtureModel, dataset: SequenceDataset) -> np.ndarray:
    """log p(seq_i | node_i) for every record, shape (N,).

    Runs only the forward pass, batched over blocks of live pairs; pairs
    whose coefficient is exactly zero are skipped. A record with zero
    likelihood under every live component gets -inf.
    """
    seqs = [item.seq for item in dataset.items]
    return kernels.logsumexp(_mixture_log_weights(model, seqs, _checked_nodes(model, dataset)),
                             axis=1)


def mixture_log_likelihood(model: SparseMixtureModel, seq: np.ndarray, node: int) -> float:
    """log p(seq | node) = log sum_m alpha[node, m] p(seq | component m).

    Components whose coefficient is exactly zero are skipped, so sparse
    mixing rows reduce inference cost.
    """
    node = check_node(model, node)
    seq = validate_sequence(seq, model.dim)
    return float(kernels.logsumexp(_mixture_log_weights(model, [seq], np.array([node]))[0]))


def mixture_posteriors(model: SparseMixtureModel, dataset: SequenceDataset) -> MixtureSufficientStats:
    """One E-step sweep: component responsibilities and state posteriors.

    Forward, backward and the transition counts run once per timestep per
    block of live pairs of one length (see _live_pair_blocks). Pairs with
    alpha[node_i, m] == 0 are skipped; their eta is exactly zero and they
    appear in no block. A live pair with zero likelihood under its own
    component also gets eta exactly zero and zero posteriors. A record with
    zero likelihood under every live component raises ValueError.
    """
    nodes = _checked_nodes(model, dataset)
    seqs = [item.seq for item in dataset.items]
    stacked = stack_components(model.components)
    log_w = np.full((len(seqs), model.num_components), -np.inf)
    blocks = []
    for seq, comp in _live_pair_blocks(model, seqs, nodes):
        block, ll = _block_posteriors(stacked, seqs, seq, comp)
        log_w[seq, comp] = np.log(model.alpha[nodes[seq] - 1, comp]) + ll
        blocks.append(block)
    seq_ll = kernels.logsumexp(log_w, axis=1)
    zero = np.flatnonzero(seq_ll == -np.inf)
    if zero.size:
        i = int(zero[0])
        raise ValueError(f"record {i} (node {nodes[i]}) has zero likelihood under every "
                         f"live component")
    eta = np.exp(log_w - seq_ll[:, None])
    counts = dataset.node_counts(model.num_nodes)
    return MixtureSufficientStats(node_counts=counts, eta=eta, blocks=blocks,
                                  nodes=nodes, log_likelihoods=seq_ll)


def regularizer_value(alpha: np.ndarray, graph: AffinityGraph) -> float:
    """Graph affinity of the mixing rows: 0.5 * sum_{j != k} G[j,k] <alpha_j, alpha_k>.

    The regularization strength is applied by the caller, not here.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape[0] != graph.num_nodes:
        raise ValueError(
            f"alpha has {alpha.shape[0]} rows but graph has {graph.num_nodes} nodes")
    overlap = alpha @ alpha.T
    return float(0.5 * np.sum(graph.weights * overlap))


def coefficient_gradient(alpha: np.ndarray, beta: np.ndarray,
                         stats: MixtureSufficientStats, graph: AffinityGraph,
                         lam: float) -> np.ndarray:
    """Ascent direction on beta for the penalized mixing objective.

    Combines the data pull (responsibilities minus current coefficients,
    averaged over the dataset) with the graph pull, then maps through the
    reparameterization. alpha must equal reparameterize_rows(beta).
    Coordinates with beta <= 0 get an exact zero.
    """
    if beta is None:
        raise ValueError("model has no score parameterization (beta is None)")
    n = stats.eta.shape[0]
    psi = stats.eta_by_node - stats.node_counts[:, None] * alpha
    psi /= n
    overlap = alpha @ alpha.T
    cross = np.sum(graph.weights * overlap, axis=1)
    omega = alpha * (graph.weights @ alpha - cross[:, None])
    pull = psi + lam * omega
    safe_beta = np.where(beta > 0.0, beta, 1.0)
    return np.where(beta > 0.0, (2.0 / safe_beta) * pull, 0.0)


def sample_from_node(model: SparseMixtureModel, node: int, length: int, rng,
                     return_component: bool = False):
    """Draw one sequence from a node: pick a component, then sample it.

    ``rng`` is an integer seed or a Generator; the same stream is threaded
    through the component draw and the sequence draw. With
    ``return_component=True`` the chosen component's 1-based index is
    returned alongside the sequence.
    """
    node = check_node(model, node)
    rng = np.random.default_rng(rng)
    z = int(rng.choice(model.num_components, p=model.alpha[node - 1]))
    seq = sample(model.components[z], length, rng)
    if return_component:
        return seq, z + 1
    return seq
