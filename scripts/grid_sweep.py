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
the best row by that metric is printed last. Each training warning goes to
stderr as "warning: [i/n] <message>" for the i-th of n fits. Without --val
the training set is scored instead (useful only for smoke runs, and flagged
as such by a warning on stderr), so stdout holds only result lines.
"""

import argparse
import itertools
import sys

import numpy as np

from graphhmm import io
from graphhmm.evaluation import relative_sparsity, score_dataset
from graphhmm.training import InitSpec, TrainConfig, fit

KNOBS = ("num_components", "num_states", "lam", "outer_iters", "inner_iters",
         "learning_rate", "rng_seed")  # InitSpec's two, then TrainConfig's
DEFAULTS = {"lam": 0.0, "outer_iters": 50, "inner_iters": 100,
            "learning_rate": 0.01, "rng_seed": 0}


def load_grid(path):
    """Every grid point, each checked by TrainConfig and InitSpec before any fit."""
    grid = io.read_json(path)
    if not isinstance(grid, dict):
        raise ValueError(f"{path}: grid file must be a JSON object")
    unknown = sorted(set(grid) - set(KNOBS))
    if unknown:
        raise ValueError(f"{path}: unknown grid keys {unknown}; "
                         f"allowed: {sorted(KNOBS)}")
    axes = []
    for key in KNOBS:
        values = grid.get(key, DEFAULTS.get(key))
        if not isinstance(values, list):
            values = [values]
        if not values:
            raise ValueError(f"{path}: {key} must not be an empty list")
        axes.append(values)
    try:
        return [(TrainConfig(**dict(zip(KNOBS[2:], combo[2:]))), InitSpec(*combo[:2]))
                for combo in itertools.product(*axes)]
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def mean_score(model, dataset):
    scores = [s.avg_log_likelihood for s in score_dataset(model, dataset)]
    return float(np.mean(scores))


def run_sweep(combos, train, val, graph, out_path):
    """Fit and score each (TrainConfig, InitSpec) pair from load_grid.

    val None scores the training set, with a warning on stderr."""
    if graph is None and any(config.lam > 0.0 for config, _ in combos):
        raise ValueError("grid contains lam > 0 but no --graph was given")
    if val is None:
        print("warning: no --val given, scoring the training set", file=sys.stderr)
        val = train
    rows = []
    for i, (config, init) in enumerate(combos, start=1):
        result = fit(train, graph if config.lam > 0.0 else None, config, init)
        for msg in result.warnings:
            print(f"warning: [{i}/{len(combos)}] {msg}", file=sys.stderr)
        checked = {**vars(init), **vars(config)}
        row = {key: checked[key] for key in KNOBS}
        row["mode"] = result.mode
        row["sparsity"] = relative_sparsity(result.model)
        row["mean_avg_ll"] = mean_score(result.model, val)
        rows.append(row)
        print(f"[{i}/{len(combos)}] M={row['num_components']} "
              f"S={row['num_states']} lam={row['lam']} "
              f"seed={row['rng_seed']}: mean_avg_ll={row['mean_avg_ll']:.4f} "
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
        val = io.load_dataset(args.val) if args.val else None
        graph = io.load_graph(args.graph) if args.graph else None
        run_sweep(combos, train, val, graph, args.out)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
