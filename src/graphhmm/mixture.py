"""Shared dictionary of HMMs mixed per node of a weighted graph.

Each node k of a K-node graph owns a distribution alpha[k] over M shared
HMM components, so a sequence observed at node k has density
p(X | k) = sum_m alpha[k, m] * p(X | component m). Mixing coefficients may
be parameterized through per-entry scores beta via a squared-rectifier map,
which can drive coefficients exactly to zero.

Node ids are 1-based throughout the public API, matching the file formats;
component indices returned to callers (sampling traces, cluster labels)
are 1-based as well. The dictionary is one GaussianHmm stack with a leading
component axis. One driver, _live_pairs, runs the E-step, forecast conditioning
and dataset and single-sequence scoring (predictive scoring is the latter on the
conditioned mixture) over live (sequence, component) pairs.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .hmm import (GaussianHmm, _cdf, _draw, check_count, check_rows_normalized,
                  gaussian_log_densities, sample, validate_sequence)

# Live pairs per block: one recursion step then covers about BLOCK_CELLS
# (pair, state, state) cells, whatever the state count.
BLOCK_CELLS = 4096

LABELS = ("normal", "anomalous")  # the dataset label vocabulary


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


def check_record(node, seq, label=None, dim: int = None) -> SequenceItem:
    """One checked dataset record (dim: that of earlier records); callers prefix errors."""
    node = check_count(node, "'node'")
    if label is not None and label not in LABELS:
        raise ValueError(f"'label' must be 'normal' or 'anomalous', got {label!r}")
    seq = validate_sequence(seq)
    if dim is not None and seq.shape[1] != dim:
        raise ValueError(f"dimension {seq.shape[1]} differs from earlier records ({dim})")
    return SequenceItem(node, seq, label)


class RecordError(ValueError):
    """A dataset record failed check_record: index is the item, reason the bare message."""

    def __init__(self, index: int, reason: str):
        super().__init__(f"item {index}: {reason}")
        self.index, self.reason = index, reason


@dataclass
class SequenceDataset:
    """Sequences tagged with the 1-based id of the node that produced them.

    Sequences may have different lengths but must share one feature
    dimension. The optional per-item label is "normal" or "anomalous".
    Every item is checked here, once, by check_record; a failure raises
    RecordError naming the item.
    """

    items: list

    def __post_init__(self):
        checked = []
        for i, item in enumerate(self.items):
            dim = checked[0].seq.shape[1] if checked else None
            try:
                checked.append(check_record(*item[:3], dim=dim))
            except ValueError as exc:
                raise RecordError(i, str(exc)) from None
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

    def frames(self) -> np.ndarray:
        return np.concatenate([item.seq for item in self.items], axis=0)


def reparameterize_rows(beta: np.ndarray) -> np.ndarray:
    """Map score rows to mixing coefficients: rectify, square, normalize.

    Entries with beta <= 0 map to exactly zero. Every row must have at least
    one positive entry, otherwise it is degenerate.
    """
    # C order makes each row sum bit-identical to summing that row on its own
    r = np.maximum(np.ascontiguousarray(beta, dtype=np.float64), 0.0)
    r *= r
    total = r.sum(axis=-1, keepdims=True)
    if (total == 0.0).any():
        raise ValueError("degenerate score row: no positive entry")
    r /= total
    return r


@dataclass
class SparseMixtureModel:
    """K nodes sharing M HMM components through per-node mixing rows.

    components is one GaussianHmm stack of the M components; a list of
    equally shaped single HMMs is stacked once here, and components[m] is
    component m. alpha is (K, M) row-stochastic. beta, when present, holds
    the score parameterization and alpha must equal reparameterize_rows(beta)
    exactly; models trained without the graph regularizer carry beta = None.
    """

    components: GaussianHmm
    alpha: np.ndarray
    beta: Optional[np.ndarray] = None

    def __post_init__(self):
        if not isinstance(self.components, GaussianHmm):
            hmms = list(self.components)
            if not hmms:
                raise ValueError("model must have at least one component")
            shape = hmms[0].means.shape
            bad = [m for m, hmm in enumerate(hmms) if hmm.means.shape != shape]
            if bad:
                raise ValueError(f"component {bad[0] + 1} has (S, D) = "
                                 f"{hmms[bad[0]].means.shape}, expected {shape}")
            # GaussianHmm turns each list of equally shaped arrays into one stack
            self.components = GaussianHmm(*([getattr(hmm, name) for hmm in hmms] for name in
                                            ("initial", "transition", "means", "variances")))
        self.alpha = np.asarray(self.alpha, dtype=np.float64)
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
        return self.components.num_states

    @property
    def dim(self) -> int:
        return self.components.dim


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
    and it contributes nothing. nodes[i] is record i's node id, node_counts
    the records per node, and log_likelihoods[i] is log p(seq_i | node_i).
    """

    node_counts: np.ndarray
    eta: np.ndarray
    blocks: list
    nodes: np.ndarray
    log_likelihoods: np.ndarray

    @cached_property
    def eta_by_node(self) -> np.ndarray:
        """Responsibilities summed per node, shape (K, M); computed once, read-only."""
        total = np.zeros((self.node_counts.shape[0], self.eta.shape[1]))
        np.add.at(total, self.nodes - 1, self.eta)
        total.flags.writeable = False
        return total

    @cached_property
    def node_count_column(self) -> np.ndarray:
        """node_counts as a float64 column, shape (K, 1); computed once, read-only."""
        column = self.node_counts[:, None].astype(np.float64)
        column.flags.writeable = False
        return column


def check_node(node: int, num_nodes: int) -> int:
    """The one node-id rule: an integer in [1..num_nodes], as int."""
    node = check_count(node, "node id", minimum=None)
    if not 1 <= node <= num_nodes:
        raise ValueError(f"node id {node} out of range [1..{num_nodes}]")
    return node


def pair_log_densities(components: GaussianHmm, seqs: list, seq: np.ndarray,
                       comp: np.ndarray) -> np.ndarray:
    """Emission log-densities of seqs[seq[b]] under component comp[b], shape (B, T, S).

    The sequences share one length T. Each gaussian_log_densities call
    covers as many pairs as fit in about kernels.CHUNK_CELLS (pair, t, s)
    cells, the size of each of its per-feature temporaries; every entry is
    the same arithmetic as a call per pair. The result is a view of a
    time-major (T, B, S) array, the layout the recursions step in.
    """
    s_count = components.num_states
    t_len = seqs[seq[0]].shape[0]
    size = max(1, kernels.CHUNK_CELLS // (t_len * s_count))
    out = np.empty((t_len, seq.size, s_count))
    for start in range(0, seq.size, size):
        part = slice(start, start + size)
        dens = gaussian_log_densities(np.stack([seqs[i] for i in seq[part]]),
                                      components.means[comp[part]],
                                      components.variances[comp[part]])
        out[:, part] = dens.transpose(1, 0, 2)
    return out.transpose(1, 0, 2)


def _live_pair_blocks(weights: np.ndarray, seqs: list, num_states: int):
    """Yield (seq, comp) index arrays of blocks of live pairs.

    Pair (i, m), seqs[i] under component m, is live when weights[i, m] > 0.
    Live pairs are ordered by sequence length, then record, then component,
    and cut into blocks of one length and at most max(1, BLOCK_CELLS // S**2) pairs.
    """
    seq, comp = np.nonzero(weights > 0.0)  # ordered by record, then component
    lengths = [x.shape[0] for x in seqs]
    if min(lengths) == max(lengths):  # one run, already in order
        runs = [(seq, comp)]
    else:
        lengths = np.array(lengths)
        order = np.argsort(lengths[seq], kind="stable")
        seq, comp = seq[order], comp[order]
        cuts = np.flatnonzero(np.diff(lengths[seq])) + 1
        runs = zip(np.split(seq, cuts), np.split(comp, cuts))
    size = max(1, BLOCK_CELLS // (num_states * num_states))
    for run_seq, run_comp in runs:
        for start in range(0, run_seq.size, size):
            yield run_seq[start:start + size], run_comp[start:start + size]


def _live_pairs(components: GaussianHmm, weights: np.ndarray, seqs: list, kernel):
    """Run kernel on every block of live pairs of weights (N, M); return (log_w, blocks).

    Each block of _live_pair_blocks takes one kernel(log_pi, log_a, log_obs)
    call on its pairs' components' initial and transition rows and
    pair_log_densities. The kernel's last output is each pair's log-likelihood
    ll, so log_w[i, m] = log weights[i, m] + ll for a live pair and -inf for
    any other. blocks holds (seq, comp, kernel output) per block.
    """
    log_w = np.full(weights.shape, -np.inf)
    blocks = []
    for seq, comp in _live_pair_blocks(weights, seqs, components.num_states):
        # gather only the two parameter arrays the kernel reads, not components[comp]'s four
        with np.errstate(divide="ignore"):
            log_a = np.log(components.transition[comp])
            log_pi = np.log(components.initial[comp])
        out = kernel(log_pi, log_a, pair_log_densities(components, seqs, seq, comp))
        log_w[seq, comp] = np.log(weights[seq, comp]) + out[-1]
        blocks.append((seq, comp, out))
    return log_w, blocks


def _end_rows(log_pi, log_a, log_obs):
    """_live_pairs' forward-only kernel: each pair's last forward row and log-likelihood."""
    end = kernels.forward_ends(log_pi, log_a, log_obs)
    return end, kernels.logsumexp(end, axis=1)


def check_dim(model: SparseMixtureModel, dataset: SequenceDataset) -> None:
    """Raise ValueError unless the dataset's feature dimension is the model's."""
    if dataset.dim != model.dim:
        raise ValueError(f"dataset has dimension {dataset.dim}, model expects {model.dim}")


def _checked_nodes(model: SparseMixtureModel, dataset: SequenceDataset) -> np.ndarray:
    """The records' node ids as one array, checked against K in one pass.

    The dataset's feature dimension is checked against the model's here too.
    """
    check_dim(model, dataset)
    nodes = np.array([item.node for item in dataset.items], dtype=np.int64)
    check_node(nodes.max(), model.num_nodes)  # the dataset already holds ids >= 1
    return nodes


def mixture_log_likelihoods(model: SparseMixtureModel, dataset: SequenceDataset) -> np.ndarray:
    """log p(seq_i | node_i) for every record, shape (N,).

    Runs only the forward pass, batched over blocks of live pairs; pairs
    whose coefficient is exactly zero are skipped. A record with zero
    likelihood under every live component gets -inf.
    """
    weights = model.alpha[_checked_nodes(model, dataset) - 1]
    log_w, _ = _live_pairs(model.components, weights, [item.seq for item in dataset.items],
                           _end_rows)
    return kernels.logsumexp(log_w, axis=1)


def mixture_log_likelihood(model: SparseMixtureModel, seq: np.ndarray, node: int) -> float:
    """log p(seq | node) = log sum_m alpha[node, m] p(seq | component m).

    Components whose coefficient is exactly zero are skipped, so sparse
    mixing rows reduce inference cost.
    """
    node = check_node(node, model.num_nodes)
    seq = validate_sequence(seq, model.dim)
    log_w, _ = _live_pairs(model.components, model.alpha[node - 1:node], [seq], _end_rows)
    return float(kernels.logsumexp(log_w[0]))


def mixture_posteriors(model: SparseMixtureModel, dataset: SequenceDataset) -> MixtureSufficientStats:
    """One E-step sweep: component responsibilities and state posteriors.

    Each block of live pairs of one length (see _live_pairs) takes one
    kernels.pair_posteriors call: the scaled forward-backward, or its log
    form where the scaled form's guard fails. Pairs with
    alpha[node_i, m] == 0 are skipped; their eta is exactly zero and they
    appear in no block. A live pair with zero likelihood under its own
    component also gets eta exactly zero and zero posteriors. A record with
    zero likelihood under every live component raises ValueError.
    """
    nodes = _checked_nodes(model, dataset)
    log_w, blocks = _live_pairs(model.components, model.alpha[nodes - 1],
                                [item.seq for item in dataset.items], kernels.pair_posteriors)
    seq_ll = kernels.logsumexp(log_w, axis=1)
    zero = np.flatnonzero(seq_ll == -np.inf)
    if zero.size:
        i = int(zero[0])
        raise ValueError(f"record {i} (node {nodes[i]}) has zero likelihood under every "
                         f"live component")
    eta = np.exp(log_w - seq_ll[:, None])
    counts = np.bincount(nodes - 1, minlength=model.num_nodes)
    blocks = [PairBlock(seq, comp, gamma, transitions)
              for seq, comp, (gamma, transitions, _) in blocks]
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
    # in place on few temporaries: each Adam step calls this on (K, M)
    # arrays, where numpy's per-call cost outweighs the arithmetic
    psi = stats.node_count_column * alpha
    np.subtract(stats.eta_by_node, psi, out=psi)
    psi /= stats.eta.shape[0]
    overlap = alpha @ alpha.T
    overlap *= graph.weights
    omega = graph.weights @ alpha
    omega -= overlap.sum(axis=1, keepdims=True)
    omega *= alpha
    omega *= lam
    psi += omega  # the pull
    with np.errstate(divide="ignore", invalid="ignore"):
        grad = 2.0 / beta
        grad *= psi
    grad[beta <= 0.0] = 0.0
    return grad


def sample_from_node(model: SparseMixtureModel, node: int, length: int, rng,
                     return_component: bool = False):
    """Draw one sequence from a node: pick a component, then sample it.

    ``rng`` is an integer seed or a Generator; the same stream is threaded
    through the component draw and the sequence draw. With
    ``return_component=True`` the chosen component's 1-based index is
    returned alongside the sequence.
    """
    node = check_node(node, model.num_nodes)
    rng = np.random.default_rng(rng)
    z = int(_draw(_cdf(model.alpha[node - 1]), rng.random()))
    seq = sample(model.components[z], length, rng)
    if return_component:
        return seq, z + 1
    return seq
