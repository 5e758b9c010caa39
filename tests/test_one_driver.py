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
"""

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


def _kernel_calls(tree: ast.Module):
    """(enclosing top-level definition, callee) of each call to a pair kernel."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in PAIR_KERNELS:
                yield owner, name


def test_live_pair_driver_is_the_only_caller():
    found = Counter((path.name, owner, name) for path in sorted(PACKAGE.glob("*.py"))
                    for owner, name in _kernel_calls(ast.parse(path.read_text(encoding="utf-8"))))
    assert found == ALLOWED, (f"unexpected pair kernel calls {sorted(found - ALLOWED)}, "
                              f"missing {sorted(ALLOWED - found)}")


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
