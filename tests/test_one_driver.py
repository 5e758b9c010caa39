"""Only the mixture's live-pair driver runs the pair kernels.

mixture._live_pairs cuts the live (sequence, component) pairs into blocks,
computes their densities with pair_log_densities, runs one kernel per block
and writes each pair's log-weight into one (N, M) table. The E-step passes
kernels.pair_posteriors; scoring, conditioning and predictive scoring pass
mixture._end_rows, which calls kernels.forward_ends. A call to any of these
anywhere else in src/graphhmm would be a second driver with its own scatter
and its own sum, so this scan allows exactly those call sites, plus
hmm.log_likelihood's forward_ends on a single HMM. The driver gathers only
the parameter arrays each block reads, never a component view of all four.
It takes those from hmm.log_params, the one place that logs initial or
transition arrays, and it alone sums its table into each record's
log-likelihood, so no pass that calls it repeats that sum."""

import ast
import pathlib
from collections import Counter

import numpy as np

import graphhmm
from graphhmm import forecast
from graphhmm.hmm import GaussianHmm
from graphhmm.mixture import (SequenceDataset, SparseMixtureModel, mixture_log_likelihoods,
                              mixture_posteriors)

from conftest import random_hmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
PAIR_KERNELS = {"pair_log_densities", "pair_posteriors", "forward_ends"}
ALLOWED = Counter({("mixture.py", "_live_pairs", "pair_log_densities"): 1,
                   ("mixture.py", "_end_rows", "forward_ends"): 1,
                   ("hmm.py", "log_likelihood", "forward_ends"): 1})


def _calls(callees: set):
    """(file name, enclosing top-level definition, callee, call) of each call to one of callees."""
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in callees:
                    yield path.name, top, name, node


def _owner(top: ast.stmt) -> str:
    return getattr(top, "name", "<module>")


def _names(nodes: list) -> set:
    """Every variable and attribute name read anywhere in nodes."""
    return {getattr(n, "id", None) or getattr(n, "attr", None)
            for node in nodes for n in ast.walk(node)}


def test_live_pair_driver_is_the_only_caller():
    found = Counter((name, _owner(top), callee) for name, top, callee, _ in _calls(PAIR_KERNELS))
    assert found == ALLOWED, (f"unexpected pair kernel calls {sorted(found - ALLOWED)}, "
                              f"missing {sorted(ALLOWED - found)}")


def test_only_log_params_logs_initial_or_transition_arrays():
    found = Counter((name, _owner(top)) for name, top, _, call in _calls({"log"})
                    if {"initial", "transition"} & _names(call.args))
    assert found == Counter({("hmm.py", "log_params"): 2}), f"logged elsewhere: {found}"


def test_no_pass_sums_the_drivers_table():
    # the driver's table is the first name a call to _live_pairs is unpacked into
    tables = {}
    for name, top, _, call in _calls({"_live_pairs"}):
        for node in ast.walk(top):
            if isinstance(node, ast.Assign) and node.value is call:
                tables.setdefault((name, _owner(top)), set()).add(node.targets[0].elts[0].id)
    found = [(name, _owner(top), call.lineno) for name, top, _, call in _calls({"logsumexp"})
             if tables.get((name, _owner(top)), set()) & _names(call.args)]
    assert tables and not found, f"a pass sums the driver's log-weight table itself: {found}"


def test_driver_builds_no_component_views(monkeypatch):
    rng = np.random.default_rng(0)
    model = SparseMixtureModel([random_hmm(rng, 2, 1) for _ in range(3)],
                               [[0.5, 0.0, 0.5], [0.2, 0.3, 0.5]])
    data = SequenceDataset([(1, rng.normal(size=(4, 1))), (2, rng.normal(size=(3, 1))),
                            (2, rng.normal(size=(4, 1)))])

    def no_view(self, index):
        raise AssertionError("a mixture pass built a component view")
    monkeypatch.setattr(GaussianHmm, "__getitem__", no_view)
    assert np.all(np.isfinite(mixture_log_likelihoods(model, data)))
    mixture_posteriors(model, data)
    posterior = forecast.condition(model, data.items[0].seq, 1)
    assert np.isfinite(forecast.predictive_log_likelihood(posterior, rng.normal(size=(2, 1))))


