"""Every count and training setting goes through hmm.check_count or check_real.

One table feeds the same bad values to each count the library, the CLI and
the grid script take, and checks that each is refused with an error naming
the argument: a ValueError from the library, exit 1 or 2 from the CLI and
the script. numpy integers are counts too, and a seed may be 0.
"""

import importlib.util
import json
import pathlib

import numpy as np
import pytest

from graphhmm import io
from graphhmm.cli import main
from graphhmm.evaluation import relative_sparsity
from graphhmm.forecast import forecast_mean
from graphhmm.hmm import sample
from graphhmm.mixture import SequenceDataset, SparseMixtureModel, sample_from_node
from graphhmm.training import InitSpec, TrainConfig, fit_per_node, fit_single_hmm

from conftest import random_hmm

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
BAD_COUNTS = [2.5, True, "3", np.float64(3.0), 0, -1]
BAD_REALS = [True, "3", None, np.nan, np.inf, -np.inf, -1]

_rng = np.random.default_rng(31)
HMM = random_hmm(_rng, 2, 1)
MODEL = SparseMixtureModel([HMM, random_hmm(_rng, 2, 1)], [[0.5, 0.5], [1.0, 0.0]])
PREFIX = _rng.normal(size=(3, 1))
DATA = SequenceDataset([(1, _rng.normal(size=(5, 1))), (2, _rng.normal(size=(5, 1)))])

# (argument name, call with the value in that argument's place)
COUNTS = [
    ("outer_iters", lambda v: TrainConfig(outer_iters=v)),
    ("inner_iters", lambda v: TrainConfig(inner_iters=v)),
    ("plateau_patience", lambda v: TrainConfig(plateau_patience=v)),
    ("rng_seed", lambda v: TrainConfig(rng_seed=v)),
    ("num_components", lambda v: InitSpec(v, 2)),
    ("num_states", lambda v: InitSpec(2, v)),
    ("num_nodes", lambda v: InitSpec(2, 2, v)),
    ("num_nodes", lambda v: fit_single_hmm(DATA, TrainConfig(outer_iters=1), 2, v)),
    ("num_nodes", lambda v: fit_per_node(DATA, TrainConfig(outer_iters=1), 2, v)),
    ("horizon", lambda v: forecast_mean(MODEL, PREFIX, 1, v, 5, 0)),
    ("num_samples", lambda v: forecast_mean(MODEL, PREFIX, 1, 2, v, 0)),
    ("length", lambda v: sample(HMM, v, 0)),
    ("node id", lambda v: sample_from_node(MODEL, v, 3, 0)),
]
REALS = [
    ("lam", lambda v: TrainConfig(lam=v)),
    ("learning_rate", lambda v: TrainConfig(learning_rate=v)),
    ("threshold", lambda v: relative_sparsity(MODEL, threshold=v)),
]


def _cases(table, bad_values):
    return [pytest.param(name, call, bad, id=f"{name}-{i}-{bad!r}")
            for i, (name, call) in enumerate(table) for bad in bad_values
            if not (name == "rng_seed" and bad == 0)]


@pytest.mark.parametrize("name, call, bad", _cases(COUNTS, BAD_COUNTS))
def test_bad_count_is_refused_by_name(name, call, bad):
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value).startswith(f"{name} "), str(err.value)


@pytest.mark.parametrize("name, call, bad",
                         _cases(REALS, BAD_REALS) + _cases(REALS[1:2], [0, 0.0]))
def test_bad_real_is_refused_by_name(name, call, bad):
    with pytest.raises(ValueError, match=f"^{name} must be finite and >"):
        call(bad)


@pytest.mark.parametrize("sign", [1, -1], ids=["plus", "minus"])
@pytest.mark.parametrize("name, call", REALS, ids=[n for n, _ in REALS])
def test_real_beyond_float_range_is_refused_by_name(name, call, sign):
    # math.isfinite raises OverflowError on such an int; it counts as not finite
    with pytest.raises(ValueError, match=f"^{name} must be finite and >"):
        call(sign * 10**400)


@pytest.mark.parametrize("name, call, bad, shown", [
    ("lam", lambda v: TrainConfig(lam=v), 10**5000, "an int of 5001 digits"),
    ("outer_iters", lambda v: TrainConfig(outer_iters=v), -10**5000,
     "a negative int of 5001 digits"),
    ("rng_seed", lambda v: TrainConfig(rng_seed=v), -10**5000, "a negative int of 5001 digits"),
    ("lam", lambda v: TrainConfig(lam=v), 10**5000 - 1, "an int of 5000 digits"),
], ids=["lam", "outer_iters", "rng_seed", "lam-all-nines"])
def test_int_too_long_to_print_is_refused_by_name(name, call, bad, shown):
    # repr of an int past Python's 4300-digit limit raises; the message must not
    with pytest.raises(ValueError) as err:
        call(bad)
    assert str(err.value).startswith(f"{name} "), str(err.value)
    assert str(err.value).endswith(f", got {shown}")


@pytest.mark.parametrize("name, call", COUNTS, ids=[f"{n}-{i}" for i, (n, _) in enumerate(COUNTS)])
def test_numpy_integer_count_accepted(name, call):
    call(np.int64(2))


def test_checked_values_are_plain_python_numbers():
    config = TrainConfig(lam=np.float64(0.5), outer_iters=np.int64(3), inner_iters=np.int32(4),
                         learning_rate=1, plateau_patience=np.uint8(2), rng_seed=0)
    assert [type(getattr(config, f)) for f in ("lam", "learning_rate")] == [float, float]
    assert (config.outer_iters, config.inner_iters, config.plateau_patience,
            config.rng_seed) == (3, 4, 2, 0)
    assert all(type(getattr(config, f)) is int
               for f in ("outer_iters", "inner_iters", "plateau_patience", "rng_seed"))
    init = InitSpec(np.int64(2), np.int16(3), np.int64(4))
    assert (type(init.num_components), type(init.num_states), type(init.num_nodes)) == (int,) * 3


def _exit_code(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.mark.parametrize("flag", ["--num-seqs", "--length"])
@pytest.mark.parametrize("bad", ["2.5", "True", "3.0", "0", "-1"])
def test_generate_refuses_bad_counts_by_flag(tmp_path, capsys, flag, bad):
    spec, out = tmp_path / "spec.json", tmp_path / "d.jsonl"
    io.save_model(MODEL, str(spec))
    argv = {"--num-seqs": "2", "--length": "3"}
    argv[flag] = bad
    assert _exit_code(["generate", "--spec", str(spec), *(x for kv in argv.items() for x in kv),
                       "--out", str(out)]) in (1, 2)
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.fixture(scope="module")
def grid_sweep():
    path = REPO_ROOT / "scripts" / "grid_sweep.py"
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture()
def train_path(tmp_path):
    path = str(tmp_path / "train.jsonl")
    io.save_dataset(DATA, path)
    return path


VALID_KNOBS = {"num_components": 1, "num_states": 2, "lam": 0.0, "outer_iters": 2,
               "inner_iters": 2, "learning_rate": 0.01, "rng_seed": 0}
JSON_BAD_COUNTS = [2.5, True, "3", 3.0, 0, -1]
GRID_CASES = ([(key, bad) for key in ("num_components", "num_states", "outer_iters",
                                      "inner_iters", "rng_seed")
               for bad in JSON_BAD_COUNTS if not (key == "rng_seed" and bad == 0)]
              + [(key, bad) for key in ("lam", "learning_rate") for bad in (True, "3", None, -1)]
              + [("learning_rate", 0)])


@pytest.mark.parametrize("key, bad", GRID_CASES)
def test_grid_refuses_a_bad_second_value_before_any_fit(grid_sweep, train_path, tmp_path,
                                                        capsys, monkeypatch, key, bad):
    monkeypatch.setattr(grid_sweep, "fit", lambda *a: pytest.fail("fit ran"))
    grid_path = str(tmp_path / "grid.json")
    with open(grid_path, "w", encoding="utf-8") as fh:
        json.dump({**VALID_KNOBS, key: [VALID_KNOBS[key], bad]}, fh)
    rc = grid_sweep.main(["--train", train_path, "--grid", grid_path,
                          "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {grid_path}: {key} must be"), err
    assert "[1/" not in out
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("key", ["lam", "learning_rate"])
@pytest.mark.parametrize("sign", ["", "-"], ids=["plus", "minus"])
def test_grid_refuses_a_real_beyond_float_range(grid_sweep, train_path, tmp_path, capsys,
                                                monkeypatch, key, sign):
    monkeypatch.setattr(grid_sweep, "fit", lambda *a: pytest.fail("fit ran"))
    grid_path = tmp_path / "grid.json"
    knobs = json.dumps({k: v for k, v in VALID_KNOBS.items() if k != key})
    grid_path.write_text(f'{knobs[:-1]}, "{key}": {sign}1{"0" * 400}}}', encoding="utf-8")
    rc = grid_sweep.main(["--train", train_path, "--grid", str(grid_path),
                          "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {grid_path}: {key} must be finite")
    assert not (tmp_path / "r.csv").exists()


def test_grid_is_checked_before_the_dataset_is_read(grid_sweep, tmp_path, capsys):
    grid_path = str(tmp_path / "grid.json")
    with open(grid_path, "w", encoding="utf-8") as fh:
        json.dump({"num_components": [1, 2], "num_states": 2, "rng_seed": [0, -1]}, fh)
    rc = grid_sweep.main(["--train", str(tmp_path / "missing.jsonl"), "--grid", grid_path,
                          "--out", str(tmp_path / "r.csv")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(f"error: {grid_path}: rng_seed must be")


def test_grid_without_a_shape_knob_names_it(grid_sweep, train_path, tmp_path, capsys):
    grid_path = str(tmp_path / "grid.json")
    with open(grid_path, "w", encoding="utf-8") as fh:
        json.dump({"num_states": 2}, fh)
    assert grid_sweep.main(["--train", train_path, "--grid", grid_path,
                            "--out", str(tmp_path / "r.csv")]) == 1
    assert capsys.readouterr().err.startswith(
        f"error: {grid_path}: num_components must be an integer >= 1, got None")
