"""Gaussian-emission hidden Markov model: exact inference and sampling.

A model over a length-T sequence has hidden states at t = 0..T. The state at
t = 0 is drawn from the initial distribution and emits nothing; every later
state emits one observation from a diagonal Gaussian. All inference runs in
log space, so long sequences cannot underflow. A GaussianHmm may also hold
a stack of equally shaped HMMs; inference and sampling take a single one.
"""

from bisect import bisect_right
import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import kernels

VARIANCE_FLOOR = 1e-6
ROW_SUM_TOL = 1e-9
_LOG_2PI = np.log(2.0 * np.pi)


def check_rows_normalized(arr: np.ndarray, name: str) -> None:
    if np.any(arr < 0.0):
        raise ValueError(f"{name} has negative entries")
    sums = arr.sum(axis=-1)
    if not np.all(np.abs(sums - 1.0) <= ROW_SUM_TOL):  # a nan sum fails too
        raise ValueError(f"{name} rows must sum to 1 within {ROW_SUM_TOL:g}, got sums {sums}")


def _check_values(hmm: "GaussianHmm") -> None:
    for arr, name in ((hmm.initial, "initial"), (hmm.transition, "transition"),
                      (hmm.means, "means"), (hmm.variances, "variances")):
        if not np.all(np.isfinite(arr)):
            raise ValueError(f"{name} contains non-finite values")
    check_rows_normalized(hmm.initial, "initial")
    check_rows_normalized(hmm.transition, "transition")
    if np.any(hmm.variances < VARIANCE_FLOOR):
        raise ValueError(f"variances must be >= {VARIANCE_FLOOR:g}")


@dataclass
class GaussianHmm:
    """HMM with a non-emitting initial state and diagonal Gaussian emissions.

    Parameters
    ----------
    initial : (S,) initial state distribution.
    transition : (S, S) row-stochastic transition matrix. Exact zeros are
        legal and are kept as -inf in log space, never replaced by an epsilon.
    means : (S, D) per-state emission means.
    variances : (S, D) per-state diagonal variances, each >= VARIANCE_FLOOR.

    A stack of M equally shaped HMMs carries a leading component axis on
    every array, is checked in one pass, and an error names the first
    failing component, 1-based. ``stack[m]`` is component m, an unchecked
    view of the checked arrays; ``len()`` and iteration run over components.

    Instances are treated as immutable; training code builds new ones.
    """

    initial: np.ndarray
    transition: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        self.initial = np.asarray(self.initial, dtype=np.float64)
        self.transition = np.asarray(self.transition, dtype=np.float64)
        self.means = np.atleast_2d(np.asarray(self.means, dtype=np.float64))
        self.variances = np.atleast_2d(np.asarray(self.variances, dtype=np.float64))
        if self.initial.ndim not in (1, 2):
            raise ValueError(f"initial must be (S,) or (M, S), got {self.initial.shape}")
        lead, s = self.initial.shape[:-1], self.initial.shape[-1]
        if self.transition.shape != lead + (s, s):
            raise ValueError(f"transition must be {lead + (s, s)}, got {self.transition.shape}")
        if self.means.shape[:-1] != lead + (s,):
            raise ValueError(f"means must be {lead + (s,)} + (D,), got {self.means.shape}")
        if self.variances.shape != self.means.shape:
            raise ValueError(
                f"variances shape {self.variances.shape} != means shape {self.means.shape}")
        try:
            _check_values(self)
        except ValueError:
            for m, comp in enumerate(self if lead else []):  # name the failing component
                try:
                    _check_values(comp)
                except ValueError as exc:
                    raise ValueError(f"component {m + 1}: {exc}") from None
            raise

    def __len__(self) -> int:
        if self.initial.ndim == 1:
            raise TypeError("a single HMM has no components")
        return self.initial.shape[0]

    def __getitem__(self, index) -> "GaussianHmm":
        if self.initial.ndim == 1:
            raise TypeError("a single HMM has no components")
        view = object.__new__(GaussianHmm)
        view.initial, view.transition = self.initial[index], self.transition[index]
        view.means, view.variances = self.means[index], self.variances[index]
        return view

    @property
    def num_states(self) -> int:
        return self.initial.shape[-1]

    @property
    def dim(self) -> int:
        return self.means.shape[-1]


def _require_single(hmm: GaussianHmm) -> None:
    if hmm.initial.ndim != 1:
        raise ValueError(f"expected a single HMM, got a stack of {len(hmm)} components")


@dataclass
class StatePosteriors:
    """Exact smoothing posteriors for one (model, sequence) pair.

    gamma[t, s] = P(state_t = s | sequence) for t = 0..T; row 0 is the
    non-emitting initial state. xi[t - 1, s, u] = P(state_{t-1} = s,
    state_t = u | sequence) for t = 1..T.
    """

    log_likelihood: float
    gamma: np.ndarray
    xi: np.ndarray


def log_params(hmm: GaussianHmm):
    """Return (log initial, log transition) with exact -inf at zeros; stacks too."""
    with np.errstate(divide="ignore"):
        return np.log(hmm.initial), np.log(hmm.transition)


def gaussian_log_densities(seq: np.ndarray, means: np.ndarray,
                           variances: np.ndarray) -> np.ndarray:
    """Per-frame, per-state diagonal Gaussian log-densities, shape (..., T, S).

    seq is (..., T, D) and means/variances are (..., S, D); leading axes
    broadcast, so a stack of (sequence, component) pairs takes one call. An
    observation far enough away to overflow the quadratic term saturates to
    -inf, the structural-zero convention of the forward pass.

    The quadratic term is summed one feature at a time, in place on
    (..., T, S) arrays, so no (..., T, S, D) array is built. Below 8
    features that is numpy's sum over the feature axis bit for bit; from 8
    on numpy's pairwise sum groups the terms otherwise, and an entry can
    differ in its last bits.
    """
    log_norm = np.sum(_LOG_2PI + np.log(variances), axis=-1)
    with np.errstate(over="ignore"):
        quad = term = None
        for d in range(seq.shape[-1]):
            term = np.subtract(seq[..., :, None, d], means[..., None, :, d], out=term)
            term *= term
            term /= variances[..., None, :, d]
            if quad is None:  # the first feature's term starts the sum
                quad, term = term, None
            else:
                quad += term
        quad += log_norm[..., None, :]
        quad *= -0.5
    return quad


def validate_sequence(seq: np.ndarray, dim: int = None) -> np.ndarray:
    """A finite (T, D) float array with T, D >= 1, and D == dim when dim is given."""
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ValueError(f"sequence must be 2-d (T, D), got shape {seq.shape}")
    if seq.shape[0] < 1:
        raise ValueError("sequence must contain at least one observation")
    if seq.shape[1] < 1:
        raise ValueError("sequence must have at least one feature")
    if dim is not None and seq.shape[1] != dim:
        raise ValueError(f"sequence has dimension {seq.shape[1]}, model expects {dim}")
    if not np.all(np.isfinite(seq)):
        raise ValueError("sequence contains non-finite values")
    return seq


def log_likelihood(hmm: GaussianHmm, seq: np.ndarray) -> float:
    """Exact log p(sequence | hmm), marginalizing over all state paths."""
    _require_single(hmm)
    seq = validate_sequence(seq, hmm.dim)
    log_pi, log_a = log_params(hmm)
    log_obs = gaussian_log_densities(seq, hmm.means, hmm.variances)
    end = kernels.forward_ends(log_pi[None], log_a[None], log_obs[None])[0]
    return float(kernels.logsumexp(end))


def posteriors(hmm: GaussianHmm, seq: np.ndarray) -> StatePosteriors:
    """Forward-backward smoothing: state and transition posteriors."""
    _require_single(hmm)
    seq = validate_sequence(seq, hmm.dim)
    log_pi, log_a = log_params(hmm)
    log_obs = gaussian_log_densities(seq, hmm.means, hmm.variances)
    log_alpha = kernels.forward(log_pi, log_a, log_obs)
    log_beta = kernels.backward(log_a, log_obs)
    ll = float(kernels.logsumexp(log_alpha[-1]))
    if ll == -np.inf:
        raise ValueError("sequence has zero likelihood under the model")
    gamma = np.exp(log_alpha + log_beta - ll)
    xi = kernels.transition_posteriors(log_alpha, log_beta, log_a, log_obs, ll)
    return StatePosteriors(log_likelihood=ll, gamma=gamma, xi=xi)


def _cdf(p: np.ndarray) -> np.ndarray:
    """Cumulative rows of p, scaled so the last entry of each is exactly 1.0."""
    c = np.cumsum(p, axis=-1)
    return c / c[..., -1:]


def _draw(cdf: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF draw: per row of cdf, the number of its entries <= u.

    With u in [0, 1) and the last entry exactly 1.0, an entry of zero
    probability (a flat step of the cdf) is never the result. One row and
    one uniform draw from Generator.random() give the index that
    Generator.choice(len(row), p=row) gives on the same stream.
    """
    return np.add.reduce(cdf <= np.asarray(u)[..., None], axis=-1)


def _shown(value) -> str:
    """repr(value) for an error message, or "an int of N digits" for an int
    too long for Python to render as a string."""
    try:
        return repr(value)
    except ValueError:
        size = abs(value)
        digits = int(math.log10(size)) + 1  # the float log can be one off near 10**k
        digits += (size >= 10 ** digits) - (size < 10 ** (digits - 1))
        return f"{'a negative' if value < 0 else 'an'} int of {digits} digits"


def check_count(value, name: str, minimum=1, what: str = "an integer") -> int:
    """The one integer rule: an int or numpy integer, not bool, >= minimum, as int.

    minimum is 1 for counts, 0 for seeds and None to test the type only; a
    ValueError reads "<name> must be <what> >= <minimum>, got <value>"."""
    if (not isinstance(value, (int, np.integer)) or isinstance(value, bool)
            or (minimum is not None and value < minimum)):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be {what}{bound}, got {_shown(value)}")
    return int(value)


def check_real(value, name: str, positive: bool = False) -> float:
    """check_count's twin for settings: a finite real, not bool, >= 0 (> 0 if positive).

    An int beyond float range counts as not finite."""
    try:
        finite = (isinstance(value, numbers.Real) and not isinstance(value, bool)
                  and math.isfinite(value))
    except OverflowError:
        finite = False
    if not finite or value < 0 or (positive and value == 0):
        raise ValueError(f"{name} must be finite and {'>' if positive else '>='} 0, "
                         f"got {_shown(value)}")
    return float(value)


def _chains(hmm: GaussianHmm, comp, state: np.ndarray, length: int, rng) -> np.ndarray:
    """The (length, n, D) emissions of n chains run from state[i], for forecasts.

    comp[i] is the stack component that chain i runs.
    Each step draws n uniforms for the transitions, then n * D normals for
    the emissions, the stream order that sample keeps for one chain. The
    step loop draws only the states, held as flat comp * S + state row
    indices, and the noise; means + std * noise is then formed for all steps
    at once, the same operations on the same values as forming each step's
    emissions in turn.
    """
    s, n = hmm.num_states, state.size
    rows = _cdf(hmm.transition).reshape(-1, s)
    base = comp * s
    states = np.empty((length, n), dtype=np.intp)
    noise = np.empty((length, n, hmm.dim))
    below = np.empty((n, s), dtype=bool)
    flat = base + state
    for t in range(length):
        np.less_equal(rows.take(flat, axis=0), rng.random(n)[:, None], out=below)
        flat = np.add.reduce(below, axis=-1, out=states[t])
        flat += base
        rng.standard_normal(out=noise[t])
    noise *= np.sqrt(hmm.variances).reshape(-1, hmm.dim).take(states, axis=0)
    noise += hmm.means.reshape(-1, hmm.dim).take(states, axis=0)
    return noise


def sample(hmm: GaussianHmm, length: int, rng) -> np.ndarray:
    """Draw one sequence of the given length by ancestral sampling.

    ``rng`` is an integer seed or a ``numpy.random.Generator``; passing a
    generator threads one stream through nested sampling calls.

    One chain needs no arrays in its step loop: each step draws a uniform,
    finds the next state with bisect_right on the state's CDF row held as
    a Python list (the count of entries <= u, which is _draw's result as
    the row is non-decreasing), and fills that step's D normals. The
    emissions are then formed in one pass, as _chains forms them.
    """
    _require_single(hmm)
    length = check_count(length, "length")
    rng = np.random.default_rng(rng)
    random, normal = rng.random, rng.standard_normal
    rows = _cdf(hmm.transition).tolist()
    state = bisect_right(_cdf(hmm.initial).tolist(), random())
    states = []
    noise = np.empty((length, hmm.dim))
    for step in noise:
        state = bisect_right(rows[state], random())
        states.append(state)
        normal(out=step)
    noise *= np.sqrt(hmm.variances).take(states, axis=0)
    noise += hmm.means.take(states, axis=0)
    return noise
