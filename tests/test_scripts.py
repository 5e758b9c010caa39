"""Smoke tests for the repository scripts (grid sweep)."""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from graphhmm import io
from graphhmm.mixture import AffinityGraph, SequenceDataset
from graphhmm.training import fit

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_script(relpath):
    path = REPO_ROOT / relpath
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def grid_sweep():
    return _load_script("scripts/grid_sweep.py")


@pytest.fixture()
def sweep_inputs(tmp_path):
    rng = np.random.default_rng(5)
    items = [(node, rng.normal(loc=3.0 * node, size=(6, 1)))
             for node in (1, 2) for _ in range(8)]
    train_path = str(tmp_path / "train.jsonl")
    io.save_dataset(SequenceDataset(items), train_path)
    graph_path = str(tmp_path / "graph.json")
    io.save_graph(AffinityGraph([[0.0, 1.0], [1.0, 0.0]]), graph_path)
    return train_path, graph_path


class TestGridSweep:
    def test_sweeps_cartesian_product(self, grid_sweep, sweep_inputs, tmp_path,
                                      capsys):
        train_path, graph_path = sweep_inputs
        grid = {"num_components": [1, 2], "num_states": 2, "lam": [0.0, 0.1],
                "outer_iters": 3, "inner_iters": 10, "learning_rate": 0.01}
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump(grid, fh)
        out_path = str(tmp_path / "results.csv")
        rc = grid_sweep.main(["--train", train_path, "--val", train_path,
                              "--graph", graph_path, "--grid", grid_path,
                              "--out", out_path])
        assert rc == 0
        lines = open(out_path, encoding="utf-8").read().strip().splitlines()
        assert len(lines) == 5  # header + 2 x 2 combinations
        header = lines[0].split(",")
        assert "mean_avg_ll" in header and "sparsity" in header
        scores = [float(line.split(",")[header.index("mean_avg_ll")])
                  for line in lines[1:]]
        assert all(np.isfinite(scores))
        assert "best: " in capsys.readouterr().out

    def test_training_warnings_go_to_stderr(self, grid_sweep, tmp_path, capsys):
        # node 2 has no sequences, so every EM iteration of each fit warns
        rng = np.random.default_rng(5)
        train_path = str(tmp_path / "train.jsonl")
        io.save_dataset(SequenceDataset([(node, rng.normal(loc=3.0 * node, size=(6, 1)))
                                         for node in (1, 3) for _ in range(4)]), train_path)
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump({"num_components": 2, "num_states": 2, "outer_iters": 3,
                       "rng_seed": [0, 1]}, fh)
        rc = grid_sweep.main(["--train", train_path, "--val", train_path, "--grid", grid_path,
                              "--out", str(tmp_path / "r.csv")])
        assert rc == 0
        out, err = capsys.readouterr()
        train = io.load_dataset(train_path)
        expected = [f"warning: [{i}/2] {msg}"
                    for i, (config, init) in enumerate(grid_sweep.load_grid(grid_path), start=1)
                    for msg in fit(train, None, config, init).warnings]
        assert err.splitlines() == expected
        assert expected.count(
            "warning: [2/2] node 2: no training sequences, mixing row left unchanged") == 3
        assert not any(line.startswith("warning") for line in out.splitlines())
        assert out.splitlines()[0].startswith("[1/2] M=2 S=2 lam=0.0 seed=0: mean_avg_ll=")

    def test_missing_val_warns_on_stderr(self, grid_sweep, sweep_inputs, tmp_path, capsys):
        train_path, _ = sweep_inputs
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump({"num_components": 1, "num_states": 2, "outer_iters": 2,
                       "rng_seed": [0, 1]}, fh)
        out_path = str(tmp_path / "r.csv")
        rc = grid_sweep.main(["--train", train_path, "--grid", grid_path, "--out", out_path])
        assert rc == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == ["warning: no --val given, scoring the training set"]
        lines = out.splitlines()
        assert [line.split(" ")[0] for line in lines] == ["[1/2]", "[2/2]", "wrote", "best:"]
        assert lines[2] == f"wrote {out_path} (2 rows)"

    def test_lam_without_graph_errors(self, grid_sweep, sweep_inputs, tmp_path,
                                      capsys):
        train_path, _ = sweep_inputs
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump({"num_components": 1, "num_states": 2, "lam": 0.5,
                       "outer_iters": 2}, fh)
        rc = grid_sweep.main(["--train", train_path, "--grid", grid_path,
                              "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_lam_without_graph_errors_before_any_fit(self, grid_sweep, sweep_inputs, tmp_path,
                                                     capsys):
        train_path, _ = sweep_inputs
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump({"num_components": 1, "num_states": 2, "lam": [0.0, 0.1],
                       "outer_iters": 2}, fh)
        rc = grid_sweep.main(["--train", train_path, "--grid", grid_path,
                              "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        out, err = capsys.readouterr()
        assert "[1/" not in out
        assert err.startswith("error: grid contains lam > 0 but no --graph was given")
        assert not (tmp_path / "r.csv").exists()

    def test_unknown_grid_key_errors(self, grid_sweep, sweep_inputs, tmp_path,
                                     capsys):
        train_path, _ = sweep_inputs
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump({"num_components": 1, "num_states": 2, "momentum": 0.9}, fh)
        rc = grid_sweep.main(["--train", train_path, "--grid", grid_path,
                              "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert "momentum" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("outer_iters", 2.9), ("outer_iters", True),
                                            ("lam", "0.5"), ("learning_rate", None)])
    def test_grid_values_must_be_json_numbers(self, grid_sweep, sweep_inputs, tmp_path,
                                              capsys, key, value):
        train_path, _ = sweep_inputs
        grid_path = str(tmp_path / "grid.json")
        with open(grid_path, "w", encoding="utf-8") as fh:
            json.dump({"num_components": 1, "num_states": 2, key: value}, fh)
        rc = grid_sweep.main(["--train", train_path, "--grid", grid_path,
                              "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {grid_path}: {key} must be")
        assert not (tmp_path / "r.csv").exists()

    def test_malformed_grid_names_the_file(self, grid_sweep, sweep_inputs, tmp_path, capsys):
        train_path, _ = sweep_inputs
        grid_path = tmp_path / "grid.json"
        grid_path.write_text('{"num_components": 1,', encoding="utf-8")
        rc = grid_sweep.main(["--train", train_path, "--grid", str(grid_path),
                              "--out", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {grid_path}: invalid JSON")
