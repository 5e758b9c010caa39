"""Refusals that no other test reaches, one table row each.

Each row builds a bad input in the smallest way that reaches one refusal of
the library and asserts its exact message: HMM shapes and values, the
zero-likelihood smoothing pass, the canonical writer, the dataset, graph,
model and standardization stats readers, the graph and mixture
constructors, and roc_auc's check of an int score beyond float range.
"""

import re

import numpy as np
import pytest

from graphhmm import io
from graphhmm.evaluation import roc_auc
from graphhmm.hmm import GaussianHmm, posteriors
from graphhmm.mixture import AffinityGraph, SparseMixtureModel

UNIFORM = np.full(2, 0.5)
STAY = np.eye(2)
MEANS = np.array([[0.0], [1.0]])
ONES = np.ones((2, 1))
HMM = GaussianHmm(UNIFORM, STAY, MEANS, ONES)


def _file(tmp_path, text):
    path = tmp_path / "input.json"
    path.write_text(text, encoding="utf-8")
    return str(path)


def _model_with_beta(tmp_path, beta):
    """A saved one-node, two-component model file whose 'beta' is replaced."""
    path = str(tmp_path / "model.json")
    io.save_model(SparseMixtureModel([HMM, HMM], [[0.5, 0.5]]), path)
    doc = io.read_json(path)
    doc["beta"] = beta
    io.save_json(doc, path)
    return path


# (id, call on a fresh tmp_path, exception type, the whole message after any path prefix)
CASES = [
    ("hmm-non-finite", lambda tmp: GaussianHmm(UNIFORM, STAY, [[np.nan], [0.0]], ONES),
     ValueError, "means contains non-finite values"),
    ("hmm-initial-shape", lambda tmp: GaussianHmm(np.ones((1, 1, 2)), STAY, MEANS, ONES),
     ValueError, "initial must be (S,) or (M, S), got (1, 1, 2)"),
    ("hmm-transition-shape", lambda tmp: GaussianHmm(UNIFORM, np.ones((2, 3)), MEANS, ONES),
     ValueError, "transition must be (2, 2), got (2, 3)"),
    ("hmm-means-shape", lambda tmp: GaussianHmm(UNIFORM, STAY, np.zeros((3, 1)), ONES),
     ValueError, "means must be (2,) + (D,), got (3, 1)"),
    ("hmm-variances-shape", lambda tmp: GaussianHmm(UNIFORM, STAY, MEANS, np.ones((2, 2))),
     ValueError, "variances shape (2, 2) != means shape (2, 1)"),
    ("hmm-posteriors-zero-likelihood", lambda tmp: posteriors(HMM, [[1e200]]),
     ValueError, "sequence has zero likelihood under the model"),
    ("io-cannot-serialize", lambda tmp: io.canonical_dumps({"x": {1, 2}}),
     TypeError, "cannot serialize set"),
    ("io-record-not-object", lambda tmp: io.load_dataset(_file(tmp, "[1, 2]\n")),
     ValueError, ":1: record must be an object with 'node' and 'seq' fields"),
    ("io-graph-keys", lambda tmp: io.load_graph(_file(tmp, '{"weights": [[0]]}')),
     ValueError, ": graph file must contain 'num_nodes' and 'weights'"),
    ("io-model-not-object", lambda tmp: io.load_model(_file(tmp, "[1]")),
     ValueError, ": model file must be a JSON object"),
    ("io-model-beta-shape", lambda tmp: io.load_model(_model_with_beta(tmp, [[1.0]])),
     ValueError, ": beta must be 1x2, got (1, 1)"),
    ("io-stats-entry-not-object",
     lambda tmp: io.mean_std({"per_node": True, "nodes": {"1": [0.0]}}, 1, 1),
     ValueError, "standardization stats for node 1: must be a JSON object"),
    ("io-stats-nan-mean", lambda tmp: io.mean_std({"mean": [np.nan], "std": [1.0]}, 1, 1),
     ValueError, "standardization stats: 'mean' must be finite"),
    ("graph-not-square", lambda tmp: AffinityGraph([[0.0, 1.0, 1.0]]),
     ValueError, "weights must be square, got shape (1, 3)"),
    ("graph-non-finite", lambda tmp: AffinityGraph([[0.0, np.inf], [np.inf, 0.0]]),
     ValueError, "weights contains non-finite values"),
    ("model-no-components", lambda tmp: SparseMixtureModel([], np.ones((1, 0))),
     ValueError, "model must have at least one component"),
    ("model-alpha-shape", lambda tmp: SparseMixtureModel([HMM], [[0.5, 0.5]]),
     ValueError, "alpha must be (K, 1), got (1, 2)"),
    ("model-beta-shape", lambda tmp: SparseMixtureModel([HMM], [[1.0]], beta=[[1.0, 1.0]]),
     ValueError, "beta shape (1, 2) != alpha shape (1, 1)"),
    ("roc-auc-int-beyond-float", lambda tmp: roc_auc([(10**400, "normal"), (0.0, "anomalous")]),
     ValueError, "scores[0]: score must be finite or -inf, got " + repr(10**400)),
]


@pytest.mark.parametrize("call, error, message",
                         [pytest.param(*case[1:], id=case[0]) for case in CASES])
def test_refusal_message(tmp_path, call, error, message):
    with pytest.raises(error) as caught:
        call(tmp_path)
    assert re.fullmatch(r"(.*\.json)?" + re.escape(message), str(caught.value)), caught.value
