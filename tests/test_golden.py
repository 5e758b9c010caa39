"""Byte-for-byte guard on fixed-seed training output.

A tiny seed-0 fit in each training mode must save exactly the model file
committed under tests/data/. A refactor that changes any parameter by one
ulp, the parameter order or the file layout fails here. The data and the
graph are drawn with numpy alone, so the guard does not lean on the
package's own sampling code.

To rewrite the files after an intended change of numbers:
``PYTHONPATH=src python tests/test_golden.py``.
"""

import os
import sys

import numpy as np
import pytest

from graphhmm.io import save_model
from graphhmm.mixture import AffinityGraph, SequenceDataset
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


@pytest.mark.parametrize("mode", sorted(MODES))
def test_fit_reproduces_committed_model_file(mode, tmp_path):
    out = tmp_path / f"{mode}.json"
    golden_fit(mode, str(out))
    with open(os.path.join(DATA_DIR, f"golden_{mode}.json"), "rb") as fh:
        assert out.read_bytes() == fh.read()


if __name__ == "__main__":
    os.makedirs(DATA_DIR, exist_ok=True)
    for name in sorted(MODES):
        golden_fit(name, os.path.join(DATA_DIR, f"golden_{name}.json"))
        print(f"wrote {os.path.join(DATA_DIR, f'golden_{name}.json')}", file=sys.stderr)
