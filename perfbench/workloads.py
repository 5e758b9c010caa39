"""The benchmark's workloads: seeded inputs, the timed operations, output checks.

Every workload has the same shape. Set-up turns the seed into inputs with
the package's own ``sample_from_node`` applied to fixed generating models,
so the code under test only ever sees generated arrays and files. One round
then runs the workload's main call (a fit, or an in-process ``graphhmm
score``) followed by ``forecast_mean`` on a fixed set of prefixes, each call
timed on its own. The fit workloads forecast from the model they just
trained; score-forecast forecasts from the generating model it scored with.
Checks run outside the timed calls.
"""

import csv
import json
import math
import os

import numpy as np

from graphhmm import cli, forecast, io, training
from graphhmm.hmm import GaussianHmm
from graphhmm.mixture import AffinityGraph, SequenceDataset, SparseMixtureModel, sample_from_node

PREFIX_LENGTH = 30
NUM_PREFIXES = 100
HORIZON = 10
FORECAST_SAMPLES = 100
# A forecast must lie within this many Monte Carlo standard errors of the
# closed-form predictive mean; at 6 a correct sampler fails about once in
# 10^9 comparisons.
FORECAST_SE_TOL = 6.0
OBJECTIVE_RTOL = 1e-5
AUC_ATOL = 1e-9


def ring_component(num_states, dim, center, stay, radius, variance):
    """A sticky HMM whose state means sit on a circle in the first two features."""
    transition = np.full((num_states, num_states), (1.0 - stay) / (num_states - 1))
    np.fill_diagonal(transition, stay)
    angle = 2.0 * np.pi * np.arange(num_states) / num_states
    means = np.tile(np.asarray(center, dtype=np.float64), (num_states, 1))
    means[:, 0] += radius * np.cos(angle)
    means[:, 1] += radius * np.sin(angle)
    return GaussianHmm(np.full(num_states, 1.0 / num_states), transition, means,
                       np.full((num_states, dim), variance))


def circle_dictionary(num_components):
    """3-state, 2-feature components whose centres are spread on a circle of radius 3."""
    return [ring_component(3, 2, [3.0 * np.cos(2 * np.pi * m / num_components),
                                  3.0 * np.sin(2 * np.pi * m / num_components)],
                           stay=0.8, radius=1.0, variance=0.3)
            for m in range(num_components)]


def sample_prefixes(model, count, rng):
    """``count`` (node, prefix) pairs, nodes cycling through 1..K."""
    nodes = [i % model.num_nodes + 1 for i in range(count)]
    return [(node, sample_from_node(model, node, PREFIX_LENGTH, rng)) for node in nodes]


def predictive_moments(posterior, horizon):
    """Closed-form mean and variance of each forecast step, shape (horizon, D).

    Propagates each live component's conditioned state distribution through
    its transition matrix and mixes the per-state Gaussian moments with the
    posterior component weights.
    """
    dim = posterior.dim
    mean = np.zeros((horizon, dim))
    second = np.zeros((horizon, dim))
    for m, weight in enumerate(posterior.weights):
        if weight == 0.0:
            continue
        comp = posterior.components[m]
        dist = posterior.conditional_initials[m]
        for t in range(horizon):
            dist = dist @ comp.transition
            mean[t] += weight * (dist @ comp.means)
            second[t] += weight * (dist @ (comp.variances + comp.means ** 2))
    return mean, np.maximum(second - mean ** 2, 0.0)


def check_forecast(model, node, prefix, result):
    if result.shape != (HORIZON, model.dim):
        return f"forecast shape {result.shape}, expected {(HORIZON, model.dim)}"
    if not np.all(np.isfinite(result)):
        return "forecast has non-finite values"
    mean, var = predictive_moments(forecast.condition(model, prefix, node), HORIZON)
    z = np.abs(result - mean) / np.sqrt(var / FORECAST_SAMPLES + 1e-300)
    if np.max(z) > FORECAST_SE_TOL:
        return (f"forecast at node {node} is {np.max(z):.2f} standard errors from the "
                f"closed-form predictive mean")
    return None


def check_roundtrip(model, workdir):
    """save_model -> load_model -> save_model must reproduce the bytes."""
    first = os.path.join(workdir, "roundtrip-1.json")
    second = os.path.join(workdir, "roundtrip-2.json")
    io.save_model(model, first)
    io.save_model(io.load_model(first)[0], second)
    with open(first, "rb") as fa, open(second, "rb") as fb:
        if fa.read() != fb.read():
            return "save_model -> load_model -> save_model is not byte-identical"
    return None


class FitWorkload:
    """Generate a dataset from a fixed model, then time ``training.fit`` on it."""

    def __init__(self, name, generator, graph, per_node, length, config, init):
        self.name = name
        self.generator = generator
        self.graph = graph
        self.per_node = per_node
        self.length = length
        self.config = config
        self.init = init

    def params(self):
        gen = self.generator
        return {
            "nodes": gen.num_nodes, "components": gen.num_components,
            "states": gen.num_states, "dim": gen.dim,
            "sequences": gen.num_nodes * self.per_node, "length": self.length,
            "graph": self.graph is not None, "lam": self.config.lam,
            "outer_iters": self.config.outer_iters, "inner_iters": self.config.inner_iters,
            "learning_rate": self.config.learning_rate,
            "forecast_prefixes": NUM_PREFIXES,
        }

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        items = [(node, sample_from_node(self.generator, node, self.length, rng))
                 for node in range(1, self.generator.num_nodes + 1)
                 for _ in range(self.per_node)]
        return {"dataset": SequenceDataset(items), "workdir": workdir,
                "prefixes": sample_prefixes(self.generator, NUM_PREFIXES, rng)}

    def run(self, inputs):
        return training.fit(inputs["dataset"], self.graph, self.config, self.init)

    def forecast_model(self, result):
        return result.model

    def check(self, inputs, result, reference):
        errors = []
        objectives = np.asarray(result.objectives, dtype=np.float64)
        if objectives.shape != (self.config.outer_iters + 1,):
            errors.append(f"objective trace has {objectives.size} entries, expected "
                          f"{self.config.outer_iters + 1}")
        if not np.all(np.isfinite(objectives)):
            errors.append("objective trace has non-finite entries")
        elif reference is not None and abs(objectives[-1] - reference["final_objective"]) \
                > OBJECTIVE_RTOL * abs(reference["final_objective"]):
            errors.append(f"final objective {objectives[-1]!r} differs from the reference "
                          f"{reference['final_objective']!r}")
        errors.append(check_roundtrip(result.model, inputs["workdir"]))
        return [e for e in errors if e]

    def summary(self, result):
        return {"final_objective": float(result.objectives[-1]),
                "zero_coefficient_frac": float(np.mean(result.model.alpha == 0.0))}


class ScoreForecastWorkload:
    """Write a model and a labelled dataset, then time the ``score`` CLI on them."""

    name = "score-forecast"
    nodes = 8
    per_node = 150
    anomalous_per_node = 15
    length = 50
    anomaly_shift = 0.5

    def __init__(self):
        comps = circle_dictionary(6)
        alpha = np.zeros((self.nodes, len(comps)))
        for k in range(self.nodes):
            alpha[k, k % len(comps)] = 0.6
            alpha[k, (k + 2) % len(comps)] = 0.4
        self.generator = SparseMixtureModel(comps, alpha)
        self.shifted = SparseMixtureModel(
            [GaussianHmm(c.initial, c.transition, c.means + self.anomaly_shift, c.variances)
             for c in comps], alpha)

    def params(self):
        gen = self.generator
        return {
            "nodes": gen.num_nodes, "components": gen.num_components,
            "live_components_per_node": 2, "states": gen.num_states, "dim": gen.dim,
            "sequences": self.nodes * self.per_node,
            "anomalous": self.nodes * self.anomalous_per_node, "length": self.length,
            "anomaly_shift": self.anomaly_shift, "forecast_prefixes": NUM_PREFIXES,
        }

    def setup(self, seed, workdir):
        rng = np.random.default_rng(seed)
        items = []
        for node in range(1, self.nodes + 1):
            for j in range(self.per_node):
                anomalous = j >= self.per_node - self.anomalous_per_node
                source = self.shifted if anomalous else self.generator
                items.append((node, sample_from_node(source, node, self.length, rng),
                              "anomalous" if anomalous else "normal"))
        paths = {key: os.path.join(workdir, name) for key, name in (
            ("model", "model.json"), ("data", "data.jsonl"), ("scores", "scores.csv"),
            ("roc", "roc.csv"), ("summary", "summary.json"))}
        io.save_model(self.generator, paths["model"])
        io.save_dataset(SequenceDataset(items), paths["data"])
        return {"paths": paths, "workdir": workdir,
                "prefixes": sample_prefixes(self.generator, NUM_PREFIXES, rng)}

    def run(self, inputs):
        p = inputs["paths"]
        code = cli.main(["score", "--model", p["model"], "--data", p["data"],
                         "--scores-out", p["scores"], "--roc-out", p["roc"],
                         "--json-out", p["summary"]])
        with open(p["summary"], encoding="utf-8") as fh:
            summary = json.load(fh)
        with open(p["scores"], encoding="utf-8", newline="") as fh:
            scores = [float(row["avg_log_likelihood"]) for row in csv.DictReader(fh)]
        return {"code": code, "summary": summary, "scores": scores}

    def forecast_model(self, result):
        return self.generator

    def check(self, inputs, result, reference):
        errors = []
        expected = self.nodes * self.per_node
        if result["code"] != 0:
            errors.append(f"score exited with {result['code']}")
        if len(result["scores"]) != expected or not all(map(math.isfinite, result["scores"])):
            errors.append(f"expected {expected} finite scores, got {len(result['scores'])}")
        auc = result["summary"].get("auc")
        if auc is None or not 0.5 < auc <= 1.0:
            errors.append(f"AUC {auc!r} is not above chance")
        elif reference is not None and abs(auc - reference["auc"]) > AUC_ATOL:
            errors.append(f"AUC {auc!r} differs from the reference {reference['auc']!r}")
        errors.append(check_roundtrip(self.generator, inputs["workdir"]))
        return [e for e in errors if e]

    def summary(self, result):
        return {"auc": result["summary"].get("auc")}


def _fit_graph():
    groups, group_size = 6, 4
    nodes = groups * group_size
    comps = circle_dictionary(6)
    alpha = np.zeros((nodes, len(comps)))
    weights = np.zeros((nodes, nodes))
    for g in range(groups):
        members = slice(g * group_size, (g + 1) * group_size)
        alpha[members, g] = 0.7
        alpha[members, (g + 1) % len(comps)] = 0.3
        weights[members, members] = 1.0
    np.fill_diagonal(weights, 0.0)
    config = training.TrainConfig(lam=0.5, outer_iters=8, inner_iters=100,
                                  learning_rate=0.01, plateau_patience=9)
    # Many short (sequence, component) pairs, so per-call overhead dominates;
    # the only workload that runs the graph term, the Adam loop and the
    # sparsity skip (most coefficients end at exactly zero).
    return FitWorkload(
        "fit-graph", SparseMixtureModel(comps, alpha), AffinityGraph(weights),
        per_node=4, length=30, config=config, init=training.InitSpec(6, 3, nodes))


def _fit_long():
    # Twelve pairs of long, 16-state sequences: the per-timestep recursion and
    # the (T, S, S) transition posteriors dominate; no graph or Adam code runs.
    # Both components share one generator, so no responsibility underflows to
    # an exact zero during the fit and all 12 pairs stay live on every seed.
    comp = ring_component(16, 3, [0.0, 0.0, 0.0], stay=0.9, radius=3.0, variance=0.5)
    config = training.TrainConfig(lam=0.0, outer_iters=6, plateau_patience=7)
    return FitWorkload(
        "fit-long", SparseMixtureModel([comp, comp], np.full((2, 2), 0.5)), None,
        per_node=3, length=1500, config=config, init=training.InitSpec(2, 16, 2))


def build_workloads():
    return {w.name: w for w in (_fit_graph(), _fit_long(), ScoreForecastWorkload())}
