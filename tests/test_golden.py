"""Byte-for-byte guard on fixed-seed training and forecasting output.

A tiny seed-0 fit in each training mode, and a three-feature closed-form
fit, must save exactly the model file committed under tests/data/. A refactor that changes any parameter by one
ulp, the parameter order or the file layout fails here. Forecasting is
pinned the same way: the conditioned weights and initials, the predictive
log-likelihood and fixed-seed forecast means of a small sparse model must
render exactly as in golden_forecast.json. The data, the graph and the
forecast model are drawn with numpy alone, so the guard does not lean on
the package's own sampling code. Dataset generation is pinned last: the
``generate`` command, run on a small model at a fixed seed, must write
exactly golden_generate.jsonl, so the sampler and the dataset writer are
held to their bytes together.

To rewrite the files after an intended change of numbers:
``PYTHONPATH=src python tests/test_golden.py``. It prints, per file, the
largest absolute difference between the numbers of the committed file and
the new one (each line read as one JSON document) before it rewrites the
file.
"""

import json
import math
import os
import shutil
import sys
import tempfile

import numpy as np
import pytest

from graphhmm.cli import main as cli_main
from graphhmm.forecast import condition, forecast_mean, predictive_log_likelihood
from graphhmm.hmm import GaussianHmm
from graphhmm.io import canonical_dumps, save_model
from graphhmm.mixture import AffinityGraph, SequenceDataset, SparseMixtureModel
from graphhmm.training import InitSpec, TrainConfig, fit

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
MODES = {"mhmm": 0.0, "spamhmm": 0.5}


def golden_inputs():
    """K=3 nodes, 20 one-feature sequences of T=15 from two regimes."""
    rng = np.random.default_rng(0)
    items = []
    for i in range(20):
        node = i % 3 + 1
        regime = rng.integers(2) if node == 2 else node - 1
        steps = np.where(rng.random(15) < 0.8, 1.0, -1.0) * (2.0 if regime else 0.5)
        items.append((node, (np.cumsum(steps) % 4.0 + rng.normal(0.0, 0.3, 15))[:, None]))
    weights = np.array([[0.0, 1.0, 0.2], [1.0, 0.0, 0.5], [0.2, 0.5, 0.0]])
    return SequenceDataset(items), AffinityGraph(weights)


def golden_fit(mode: str, path: str) -> None:
    dataset, graph = golden_inputs()
    config = TrainConfig(lam=MODES[mode], outer_iters=3, inner_iters=20,
                         learning_rate=0.05, rng_seed=0)
    result = fit(dataset, graph, config, InitSpec(num_components=2, num_states=2))
    assert result.mode == mode
    save_model(result.model, path, metadata={"objectives": result.objectives})


def golden_inputs_3d() -> SequenceDataset:
    """K=2 nodes, 12 three-feature sequences of T=60 around four overlapping centres.

    The overlap keeps k-means moving a few frames per Lloyd iteration for
    about 20 iterations, and D=3 makes every feature sum order visible.
    """
    rng = np.random.default_rng(4)
    centres = rng.normal(0.0, 1.0, size=(4, 3))
    items = []
    for i in range(12):
        states = rng.integers(4, size=60)
        items.append((i % 2 + 1, centres[states] + rng.normal(0.0, 1.0, size=(60, 3))))
    return SequenceDataset(items)


def golden_fit_3d(path: str) -> None:
    config = TrainConfig(outer_iters=3, rng_seed=0)
    result = fit(golden_inputs_3d(), None, config, InitSpec(num_components=2, num_states=4))
    assert result.mode == "mhmm"
    save_model(result.model, path, metadata={"objectives": result.objectives})


def forecast_model() -> SparseMixtureModel:
    """K=2 nodes over M=4 components with S=3 states and D=2 features.

    Node 1 gives component 4 and node 2 component 1 a zero coefficient.
    Component 2 is left-right, with zeros in its initial distribution and
    transitions. Component 3 sits so far from the data that its posterior
    weight underflows to exactly zero though its coefficient is positive.
    """
    rng = np.random.default_rng(1)
    transition = rng.uniform(0.2, 1.0, size=(4, 3, 3))
    transition[1] = [[0.6, 0.4, 0.0], [0.0, 0.7, 0.3], [0.0, 0.0, 1.0]]
    transition /= transition.sum(axis=2, keepdims=True)
    initial = np.array([[0.2, 0.5, 0.3], [1.0, 0.0, 0.0], [0.4, 0.3, 0.3], [0.1, 0.1, 0.8]])
    means = rng.normal(0.0, 1.5, size=(4, 3, 2))
    means[2] += 60.0
    variances = rng.uniform(0.3, 1.2, size=(4, 3, 2))
    alpha = np.array([[0.5, 0.2, 0.3, 0.0], [0.0, 0.6, 0.1, 0.3]])
    return SparseMixtureModel(GaussianHmm(initial, transition, means, variances), alpha)


def golden_forecasts(path: str) -> None:
    """Condition on one prefix per node, score a continuation, forecast at seeds 0 and 1."""
    model = forecast_model()
    rng = np.random.default_rng(2)
    doc = {}
    for node in (1, 2):
        prefix = rng.normal(0.0, 1.5, size=(6, 2))
        continuation = rng.normal(0.0, 1.5, size=(3, 2))
        post = condition(model, prefix, node)
        doc[f"node_{node}"] = {
            "weights": post.weights.tolist(),
            "conditional_initials": post.conditional_initials.tolist(),
            "inert": post.inert.tolist(),
            "predictive_log_likelihood": predictive_log_likelihood(post, continuation),
            "forecast_mean": [forecast_mean(model, prefix, node, 3, 25, seed).tolist()
                              for seed in (0, 1)],
        }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fit_reproduces_committed_model_file(mode, tmp_path):
    out = tmp_path / f"{mode}.json"
    golden_fit(mode, str(out))
    with open(os.path.join(DATA_DIR, f"golden_{mode}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_three_feature_fit_reproduces_committed_model_file(tmp_path):
    out = tmp_path / "mhmm_d3.json"
    golden_fit_3d(str(out))
    with open(os.path.join(DATA_DIR, "golden_mhmm_d3.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_forecasts_reproduce_committed_file(tmp_path):
    out = tmp_path / "forecast.json"
    golden_forecasts(str(out))
    with open(os.path.join(DATA_DIR, "golden_forecast.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def generate_model() -> SparseMixtureModel:
    """K=3 nodes over M=2 components with S=3 states and D=2 features.

    Component 1 has an exact-zero transition and component 2 an unreachable
    last state (zero in its initial entry and in every transition into it).
    Node 3 gives component 1 a zero coefficient. The first feature of
    component 1's first state sits at 1e16 with the smallest legal variance,
    so its draws are integral floats that need a forced decimal point.
    """
    rng = np.random.default_rng(3)
    transition = rng.uniform(0.2, 1.0, size=(2, 3, 3))
    transition[0, 1, 2] = 0.0
    transition[1, :, 2] = 0.0
    transition /= transition.sum(axis=2, keepdims=True)
    initial = np.array([[0.3, 0.3, 0.4], [0.6, 0.4, 0.0]])
    means = rng.normal(0.0, 3.0, size=(2, 3, 2))
    means[1, 2] = 1e6
    variances = rng.uniform(0.1, 2.0, size=(2, 3, 2))
    means[0, 0, 0], variances[0, 0, 0] = 1e16, 1e-6
    alpha = np.array([[0.5, 0.5], [0.9, 0.1], [0.0, 1.0]])
    return SparseMixtureModel(GaussianHmm(initial, transition, means, variances), alpha)


def golden_generate(path: str) -> None:
    """Two seeded generate runs, lengths 1 and 40, their files joined in order."""
    with tempfile.TemporaryDirectory() as tmp:
        spec = os.path.join(tmp, "spec.json")
        save_model(generate_model(), spec)
        pieces = []
        for length, seed, label in ((1, 7, []), (40, 8, ["--label", "anomalous"])):
            out = os.path.join(tmp, f"length_{length}.jsonl")
            assert cli_main(["generate", "--spec", spec, "--num-seqs", "3",
                             "--length", str(length), "--seed", str(seed),
                             "--out", out] + label) == 0
            with open(out, "rb") as fh:
                pieces.append(fh.read())
    with open(path, "wb") as fh:
        fh.write(b"".join(pieces))


def test_generate_reproduces_committed_dataset_file(tmp_path, capsys):
    out = tmp_path / "generate.jsonl"
    golden_generate(str(out))
    with open(os.path.join(DATA_DIR, "golden_generate.jsonl"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def largest_difference(old, new) -> float:
    """Largest absolute difference between the numbers of two JSON documents.

    Any other difference, in keys, lengths, strings or booleans, reads as inf.
    """
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        return max((largest_difference(old[k], new[k]) for k in old), default=0.0)
    if isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        return max((largest_difference(a, b) for a, b in zip(old, new)), default=0.0)
    if all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (old, new)):
        return 0.0 if old == new else abs(new - old)
    return 0.0 if old == new else math.inf


def rewrite(name: str, write) -> None:
    """Write a golden file with write(path), first printing its difference from the old one."""
    path = os.path.join(DATA_DIR, name)
    with tempfile.TemporaryDirectory() as tmp:
        new_path = os.path.join(tmp, name)
        write(new_path)
        if os.path.exists(path):
            with open(path, encoding="utf-8") as old, open(new_path, encoding="utf-8") as new:
                diff = largest_difference([json.loads(line) for line in old],
                                          [json.loads(line) for line in new])
            print(f"{name}: largest difference, old to new: {diff:.3g}")
        shutil.copyfile(new_path, path)
    print(f"wrote {path}", file=sys.stderr)


if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    for mode in sorted(MODES):
        rewrite(f"golden_{mode}.json", lambda path, mode=mode: golden_fit(mode, path))
    rewrite("golden_mhmm_d3.json", golden_fit_3d)
    rewrite("golden_forecast.json", golden_forecasts)
    rewrite("golden_generate.jsonl", golden_generate)
