"""Command-line interface.

Every flag can also be supplied through an environment variable named
GRAPHHMM_<FLAG> (dashes become underscores), e.g. GRAPHHMM_OUTER_ITERS=50.
Exit codes: 0 on success, 1 on runtime or file-validation errors, 2 on
usage errors.
"""

import argparse
import os
import sys

import numpy as np

from . import io
from .evaluation import (ANOMALOUS, cluster_assignments, relative_sparsity, roc_auc,
                         score_dataset)
from .forecast import forecast_mean
from .hmm import check_count
from .mixture import LABELS, SequenceDataset, check_dim, sample_from_node
from .training import InitSpec, TrainConfig, fit


def _env_name(flag: str) -> str:
    return "GRAPHHMM_" + flag.lstrip("-").upper().replace("-", "_")


_SWITCHES = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


def _add(parser, flag, *, required=False, type=str, default=None, help="",
         choices=None, flag_only=False, dest=None):
    """add_argument with an environment-variable default; a bad one exits 2 naming it."""
    env_key = _env_name(flag)
    raw = os.environ.get(env_key)
    extra = {} if dest is None else {"dest": dest}
    if raw is not None and (raw.strip() or not flag_only):  # an empty switch is unset
        try:
            default = _SWITCHES[raw.strip().lower()] if flag_only else type(raw)
            if choices is not None and default not in choices:
                raise ValueError(default)
        except (KeyError, TypeError, ValueError):
            print(f"error: environment variable {env_key}={raw!r} is not a valid "
                  f"value for {flag}", file=sys.stderr)
            raise SystemExit(2)
        required = False
    if flag_only:
        parser.add_argument(flag, action="store_true", default=bool(default),
                            help=f"{help} [env: {env_key}]", **extra)
        return
    shown = "" if default is None else f" (default: {default})"
    parser.add_argument(flag, required=required, type=type, default=default,
                        choices=choices, help=f"{help}{shown} [env: {env_key}]", **extra)


def _cmd_train(args) -> int:
    config = TrainConfig(lam=args.lam, outer_iters=args.outer_iters,
                         inner_iters=args.inner_iters, learning_rate=args.lr,
                         rng_seed=args.seed)
    if args.graph is None and config.lam > 0.0:
        raise ValueError(f"--lambda {config.lam:g} needs --graph; "
                         "without a graph there is no graph term to weigh")
    if args.graph is None and args.normalize_graph:
        raise ValueError("--normalize-graph needs --graph")
    dataset = io.load_dataset(args.data)
    graph = None
    if args.graph is not None:
        graph = io.load_graph(args.graph, normalize=args.normalize_graph)
    stats = None
    if args.standardize:
        stats = io.standardization_stats(dataset)
        dataset = io.apply_standardization(dataset, stats)
    init = InitSpec(num_components=args.components, num_states=args.states)
    result = fit(dataset, graph, config, init)
    metadata = {
        "mode": result.mode,
        "lambda": config.lam,
        "seed": config.rng_seed,
        "outer_iters": config.outer_iters,
        "inner_iters": config.inner_iters,
        "learning_rate": config.learning_rate,
        "objective_trace": result.objectives,
        "standardization": stats,
    }
    io.save_model(result.model, args.out, metadata)
    log_path = args.log_out if args.log_out else args.out + ".train.csv"
    io.save_csv(log_path, ["iteration", "objective"], enumerate(result.objectives))
    for msg in result.warnings:
        print(f"warning: {msg}", file=sys.stderr)
    print(f"wrote {args.out} ({result.mode}, {len(result.objectives) - 1} iterations, "
          f"final objective {result.objectives[-1]:.6f}); log: {log_path}")
    return 0


def _finite_mean(values: list):
    """Mean of the finite values, or None when there are none."""
    values = np.array(values)
    finite = values[np.isfinite(values)]
    return float(np.mean(finite)) if finite.size else None


def _cmd_score(args) -> int:
    model, metadata = io.load_model(args.model)
    dataset = io.load_dataset(args.data)
    check_dim(model, dataset)  # before the stats, which hold the model's dimension
    if metadata.get("standardization") is not None:  # train writes null without --standardize
        dataset = io.apply_standardization(dataset, metadata["standardization"])
    scored = score_dataset(model, dataset)
    if args.scores_out:
        io.save_csv(args.scores_out, ["node", "length", "avg_log_likelihood", "label"],
                    [(s.node, s.length, s.avg_log_likelihood, s.label) for s in scored])
    labeled = [(s.avg_log_likelihood, s.label) for s in scored if s.label is not None]
    all_scores = [s.avg_log_likelihood for s in scored]
    summary = {
        "num_sequences": len(scored),
        "num_zero_likelihood": sum(1 for v in all_scores if v == -np.inf),
        "mean_avg_log_likelihood": _finite_mean(all_scores),
    }
    for label in LABELS:
        values = [v for v, lab in labeled if lab == label]
        if values:
            summary[f"num_{label}"] = len(values)
            summary[f"mean_avg_log_likelihood_{label}"] = _finite_mean(values)
    have_both = (0 < sum(1 for _, lab in labeled if lab == ANOMALOUS) < len(labeled))
    if labeled and not have_both:
        print("warning: labels present but only one class; skipping ROC/AUC",
              file=sys.stderr)
    if have_both:
        curve, auc = roc_auc(labeled)
        summary["auc"] = auc
        if args.roc_out:
            io.save_csv(args.roc_out, ["fpr", "tpr"], curve)
    if args.json_out:
        io.save_json(summary, args.json_out)
    mean = summary["mean_avg_log_likelihood"]
    line = f"scored {summary['num_sequences']} sequences, mean avg ll " \
           + ("n/a" if mean is None else f"{mean:.6f}")
    if summary["num_zero_likelihood"]:
        line += f", {summary['num_zero_likelihood']} at zero likelihood"
    if "auc" in summary:
        line += f", auc {summary['auc']:.6f}"
    print(line)
    return 0


def _cmd_forecast(args) -> int:
    model, metadata = io.load_model(args.model)
    prefix_ds = io.load_dataset(args.prefix_file)
    check_dim(model, prefix_ds)  # before the stats, which hold the model's dimension
    del prefix_ds.items[1:]  # only the first record is forecast, so only it is standardized
    stats = metadata.get("standardization")
    if stats is not None:  # train writes null without --standardize
        prefix_ds = io.apply_standardization(prefix_ds, stats)
    item = prefix_ds.items[0]
    node = args.node if args.node is not None else item.node
    mean = forecast_mean(model, item.seq, node, args.horizon, args.samples, args.seed)
    if stats is not None:  # back to the data's units, with the prefix's own stats
        shift, scale = io.mean_std(stats, item.node, model.dim)
        mean = mean * scale + shift
    header = ["step"] + [f"x{d + 1}" for d in range(mean.shape[1])]
    io.save_csv(args.out, header, [[t + 1, *row] for t, row in enumerate(mean)])
    print(f"wrote {args.out} ({mean.shape[0]} steps x {mean.shape[1]} features, "
          f"node {node}, {args.samples} samples)")
    return 0


def _cmd_cluster(args) -> int:
    model, _ = io.load_model(args.model)
    doc = {
        "assignments": [int(c) for c in cluster_assignments(model)],
        "relative_sparsity": relative_sparsity(model),
        "thresholded_sparsity": {
            "threshold": 1e-6,
            "value": relative_sparsity(model, threshold=1e-6),
        },
    }
    io.save_json(doc, args.out)
    print(f"wrote {args.out} (sparsity {doc['relative_sparsity']:.4f})")
    return 0


def _cmd_generate(args) -> int:
    check_count(args.num_seqs, "--num-seqs")
    check_count(args.length, "--length")
    model, _ = io.load_model(args.spec)
    rng = np.random.default_rng(args.seed)
    items = []
    for node in range(1, model.num_nodes + 1):
        for _ in range(args.num_seqs):
            seq = sample_from_node(model, node, args.length, rng)
            items.append((node, seq, args.label))
    io.save_dataset(SequenceDataset(items), args.out)
    print(f"wrote {args.out} ({len(items)} sequences: {args.num_seqs} per node "
          f"x {model.num_nodes} nodes, length {args.length})")
    return 0


def _cmd_standardize(args) -> int:
    if args.stats_in and args.per_node:
        raise ValueError("--per-node cannot be used with --stats-in, "
                         "whose file already says whether the stats are per node")
    dataset = io.load_dataset(args.data)
    if args.stats_in:
        stats = io.load_stats(args.stats_in)
    else:
        stats = io.standardization_stats(dataset, per_node=args.per_node)
    out_ds = io.apply_standardization(dataset, stats)
    io.save_dataset(out_ds, args.out)
    if args.stats_out:
        io.save_stats(stats, args.stats_out)
    print(f"wrote {args.out}" + (f"; stats: {args.stats_out}" if args.stats_out else ""))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphhmm",
        description="Sparse mixtures of Gaussian HMMs for sequences from "
                    "graph-connected nodes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a mixture to a dataset")
    _add(p, "--data", required=True, help="training dataset (JSON Lines)")
    _add(p, "--graph", help="affinity graph JSON; omit to train without the graph term")
    _add(p, "--components", required=True, type=int, help="number of shared HMM components")
    _add(p, "--states", required=True, type=int, help="states per component")
    _add(p, "--lambda", type=float, default=0.0, dest="lam",
         help="graph regularization strength")
    _add(p, "--outer-iters", type=int, default=100, help="max EM iterations")
    _add(p, "--inner-iters", type=int, default=100, help="score-update iterations per M-step")
    _add(p, "--lr", type=float, default=1e-3, help="score-update learning rate")
    _add(p, "--seed", type=int, default=0, help="training seed")
    _add(p, "--standardize", flag_only=True,
         help="standardize features before training and store the stats in the model")
    _add(p, "--normalize-graph", flag_only=True,
         help="rescale graph weights so the maximum is 1")
    _add(p, "--out", required=True, help="output model JSON")
    _add(p, "--log-out", help="training log CSV (default: <out>.train.csv)")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("score", help="score sequences under a trained model")
    _add(p, "--model", required=True, help="model JSON")
    _add(p, "--data", required=True, help="dataset to score (JSON Lines)")
    _add(p, "--scores-out", help="per-sequence scores CSV")
    _add(p, "--roc-out", help="ROC curve CSV (needs both labels present)")
    _add(p, "--json-out", help="summary metrics JSON")
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("forecast", help="posterior-predictive mean after a prefix")
    _add(p, "--model", required=True, help="model JSON")
    _add(p, "--prefix-file", required=True,
         help="JSON Lines file whose first record is the prefix")
    _add(p, "--node", type=int, help="node id (default: the prefix record's node)")
    _add(p, "--horizon", type=int, default=10, help="steps to forecast")
    _add(p, "--samples", type=int, default=100, help="Monte Carlo samples")
    _add(p, "--seed", type=int, default=0, help="sampling seed")
    _add(p, "--out", required=True, help="output CSV (step, features)")
    p.set_defaults(func=_cmd_forecast)

    p = sub.add_parser("cluster", help="dominant component per node")
    _add(p, "--model", required=True, help="model JSON")
    _add(p, "--out", required=True, help="output JSON")
    p.set_defaults(func=_cmd_cluster)

    p = sub.add_parser("generate", help="sample a dataset from a model")
    _add(p, "--spec", required=True, help="generating model JSON")
    _add(p, "--num-seqs", required=True, type=int, help="sequences per node")
    _add(p, "--length", required=True, type=int, help="timesteps per sequence")
    _add(p, "--seed", type=int, default=0, help="sampling seed")
    _add(p, "--label", choices=LABELS,
         help="label to attach to every generated sequence")
    _add(p, "--out", required=True, help="output dataset (JSON Lines)")
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("standardize", help="shift/scale features to zero mean, unit spread")
    _add(p, "--data", required=True, help="input dataset (JSON Lines)")
    _add(p, "--out", required=True, help="output dataset (JSON Lines)")
    _add(p, "--stats-out", help="write the stats used to this JSON file")
    _add(p, "--stats-in", help="apply stats from this JSON file instead of computing them")
    _add(p, "--per-node", flag_only=True, help="standardize each node separately")
    p.set_defaults(func=_cmd_standardize)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
