"""Hyperparameter grid sweep over mixture size, state count, and penalty.

Reads a JSON grid file in which each training knob is either a single value
or a list of values to sweep; the cartesian product of all list-valued knobs
is trained and scored on a validation set. Example grid:

    {
      "num_components": [2, 4],
      "num_states": [2, 3],
      "lam": [0.0, 0.1, 1.0],
      "outer_iters": 30,
      "inner_iters": 100,
      "learning_rate": 0.01,
      "rng_seed": [0, 1]
    }

    python3 scripts/grid_sweep.py --train train.jsonl --val val.jsonl \
        --graph graph.json --grid grid.json --out results.csv

Each row of the CSV records the knob values, the training mode, the final
coefficient sparsity, and the mean per-timestep held-out log-likelihood;
the best row by that metric is printed last. Without --val the training
set is scored instead (useful only for smoke runs, and flagged as such).
"""

import argparse
import itertools
import json
import math
import sys

import numpy as np

from graphhmm import io
from graphhmm.evaluation import relative_sparsity, score_dataset
from graphhmm.training import InitSpec, TrainConfig, fit

KNOBS = ("num_components", "num_states", "lam", "outer_iters", "inner_iters",
         "learning_rate", "rng_seed")
DEFAULTS = {"lam": 0.0, "outer_iters": 50, "inner_iters": 100,
            "learning_rate": 0.01, "rng_seed": 0}
INT_KNOBS = {"num_components", "num_states", "outer_iters", "inner_iters",
             "rng_seed"}


def _knob_value(path, key, value):
    """One grid value under the rules io applies to every input file.

    Only JSON numbers are accepted: strings, booleans and null are refused,
    and an integer knob takes a JSON integer (not 2.9, not 2.0).
    """
    if key in INT_KNOBS:
        if type(value) is not int:
            raise ValueError(f"{path}: {key} must be a JSON integer, got {json.dumps(value)}")
        return value
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{path}: {key} must be a finite JSON number, got {json.dumps(value)}")
    return float(value)


def load_grid(path):
    grid = io.read_json(path)
    if not isinstance(grid, dict):
        raise ValueError(f"{path}: grid file must be a JSON object")
    unknown = sorted(set(grid) - set(KNOBS))
    if unknown:
        raise ValueError(f"{path}: unknown grid keys {unknown}; "
                         f"allowed: {sorted(KNOBS)}")
    for key in ("num_components", "num_states"):
        if key not in grid:
            raise ValueError(f"{path}: grid must set {key}")
    axes = []
    for key in KNOBS:
        values = grid.get(key, DEFAULTS.get(key))
        if not isinstance(values, list):
            values = [values]
        if not values:
            raise ValueError(f"{path}: {key} must not be an empty list")
        axes.append([_knob_value(path, key, v) for v in values])
    return [dict(zip(KNOBS, combo)) for combo in itertools.product(*axes)]


def mean_score(model, dataset):
    scores = [s.avg_log_likelihood for s in score_dataset(model, dataset)]
    return float(np.mean(scores))


def run_sweep(combos, train, val, graph, out_path):
    if graph is None and any(knobs["lam"] > 0.0 for knobs in combos):
        raise ValueError("grid contains lam > 0 but no --graph was given")
    rows = []
    for i, knobs in enumerate(combos, start=1):
        config = TrainConfig(lam=knobs["lam"], outer_iters=knobs["outer_iters"],
                             inner_iters=knobs["inner_iters"],
                             learning_rate=knobs["learning_rate"],
                             rng_seed=knobs["rng_seed"])
        init = InitSpec(knobs["num_components"], knobs["num_states"])
        result = fit(train, graph if knobs["lam"] > 0.0 else None, config, init)
        row = dict(knobs)
        row["mode"] = result.mode
        row["sparsity"] = relative_sparsity(result.model)
        row["mean_avg_ll"] = mean_score(result.model, val)
        rows.append(row)
        print(f"[{i}/{len(combos)}] M={knobs['num_components']} "
              f"S={knobs['num_states']} lam={knobs['lam']} "
              f"seed={knobs['rng_seed']}: mean_avg_ll={row['mean_avg_ll']:.4f} "
              f"sparsity={row['sparsity']:.3f}")
    fields = list(KNOBS) + ["mode", "sparsity", "mean_avg_ll"]
    io.save_csv(out_path, fields, [[row[f] for f in fields] for row in rows])
    best = max(rows, key=lambda r: r["mean_avg_ll"])
    print(f"wrote {out_path} ({len(rows)} rows)")
    print(f"best: M={best['num_components']} S={best['num_states']} "
          f"lam={best['lam']} seed={best['rng_seed']} "
          f"mean_avg_ll={best['mean_avg_ll']:.4f}")
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--train", required=True, help="training dataset (JSON Lines)")
    parser.add_argument("--val", help="validation dataset scored for model selection "
                                      "(default: score the training set)")
    parser.add_argument("--graph", help="affinity graph JSON (required if any lam > 0)")
    parser.add_argument("--grid", required=True, help="JSON grid file (see module docstring)")
    parser.add_argument("--out", required=True, help="output CSV path")
    args = parser.parse_args(argv)

    try:
        combos = load_grid(args.grid)
        train = io.load_dataset(args.train)
        if args.val:
            val = io.load_dataset(args.val)
        else:
            print("warning: no --val given, scoring the training set")
            val = train
        graph = io.load_graph(args.graph) if args.graph else None
        run_sweep(combos, train, val, graph, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
