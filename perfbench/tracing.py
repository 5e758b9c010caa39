"""Spans and counters recorded around calls into the graphhmm modules.

The tracer never edits the package. While recording, it replaces each traced
public function with a wrapper in every graphhmm module namespace that holds
it (``mixture.posteriors`` and ``forecast.posteriors`` as well as
``hmm.posteriors``; ``kernels.forward``, which ``hmm`` looks up at call
time), patches ``SparseMixtureModel.__init__`` to count constructions, and
puts everything back when recording stops. A span is (name, start, end,
parent); spans stay in memory and are written out when the run ends.
``kernels.logsumexp`` runs ~10^5 times per fit, so it only gets a counter.

Work sizes are computed from the arrays at the call boundary and labelled
as computed: ``cells`` is T * S^2 per kernel call, ``bytes`` the sizes of a
kernel's array arguments plus its result (cache effects ignored).
"""

import contextlib
import json
import os
import time
from collections import Counter, defaultdict

import graphhmm
from graphhmm import cli, evaluation, forecast, hmm, io, kernels, mixture, training

MODULES = (graphhmm, kernels, hmm, mixture, training, forecast, evaluation, io, cli)


def _kernel_work(args, result):
    log_obs = args[3] if len(args) == 5 else args[-1]
    steps, states = log_obs.shape
    moved = sum(a.nbytes for a in args if hasattr(a, "nbytes")) + result.nbytes
    return {"cells": steps * states * states, "bytes": moved}


def _live_pairs(args, result):
    model, dataset = args[0], args[1]
    live = sum(int((model.alpha[item.node - 1] > 0.0).sum()) for item in dataset.items)
    return {"live_pairs": live, "pairs": len(dataset) * model.num_components}


def _file_bytes(args, result):
    """Size of the file a load read or a save wrote (the path is the first str argument)."""
    return {"bytes": os.path.getsize(next(a for a in args if isinstance(a, str)))}


# (span name, home module, function name, work measure or None); both EM
# step functions share one span name.
TRACED = [
    ("kernels.forward", kernels, "forward", _kernel_work),
    ("kernels.backward", kernels, "backward", _kernel_work),
    ("kernels.transition_posteriors", kernels, "transition_posteriors", _kernel_work),
    ("hmm.posteriors", hmm, "posteriors", None),
    ("hmm.log_likelihood", hmm, "log_likelihood", None),
    ("hmm.gaussian_log_densities", hmm, "gaussian_log_densities", None),
    ("mixture.mixture_posteriors", mixture, "mixture_posteriors", _live_pairs),
    ("mixture.coefficient_gradient", mixture, "coefficient_gradient", None),
    ("mixture.reparameterize_rows", mixture, "reparameterize_rows", None),
    ("mixture.regularizer_value", mixture, "regularizer_value", None),
    ("mixture.mixture_log_likelihood", mixture, "mixture_log_likelihood", None),
    ("training.fit", training, "fit", None),
    ("training.em_step", training, "em_step_spamhmm", None),
    ("training.em_step", training, "em_step_mhmm", None),
    ("training.adam_ascent_step", training, "adam_ascent_step", None),
    ("training.initialize_model", training, "initialize_model", None),
    ("forecast.condition", forecast, "condition", None),
    ("forecast.forecast_mean", forecast, "forecast_mean", None),
    ("evaluation.score_dataset", evaluation, "score_dataset", None),
    ("evaluation.roc_auc", evaluation, "roc_auc", None),
    ("io.load_model", io, "load_model", _file_bytes),
    ("io.load_dataset", io, "load_dataset", _file_bytes),
    ("io.save_model", io, "save_model", _file_bytes),
    ("io.save_dataset", io, "save_dataset", _file_bytes),
    ("cli.main", cli, "main", None),
]
MODEL_SPAN = "mixture.SparseMixtureModel"
COUNTED = "kernels.logsumexp"

# Direct children of an EM step that belong to the inner Adam loop on the scores.
INNER_LOOP = {"mixture.coefficient_gradient", "training.adam_ascent_step",
              "mixture.reparameterize_rows", MODEL_SPAN}

METRICS = [
    *(f"kernels.{k}.{f}" for k in ("forward", "backward", "transition_posteriors")
      for f in ("calls", "self_s", "cells", "bytes")),
    "kernels.logsumexp.calls",
    *(f"hmm.{k}.{f}" for k in ("posteriors", "log_likelihood", "gaussian_log_densities")
      for f in ("calls", "self_s")),
    "mixture.mixture_posteriors.calls", "mixture.mixture_posteriors.s",
    "mixture.mixture_posteriors.self_s", "mixture.live_pairs", "mixture.live_pair_frac",
    *(f"mixture.{k}.{f}" for k in ("coefficient_gradient", "reparameterize_rows",
                                   "regularizer_value", "mixture_log_likelihood")
      for f in ("calls", "self_s")),
    "mixture.SparseMixtureModel.calls",
    "training.em_iters", "training.em_step.s", "training.adam_loop_s", "training.m_step_s",
    "training.adam_ascent_step.calls", "training.adam_ascent_step.self_s",
    "training.initialize_model.s",
    "forecast.condition.calls", "forecast.condition.self_s", "forecast.forecast_mean.self_s",
    "evaluation.score_dataset.s", "evaluation.score_dataset.self_s", "evaluation.roc_auc.s",
    *(f"io.{k}.{f}" for k in ("load_model", "load_dataset", "save_model", "save_dataset")
      for f in ("s", "bytes")),
    "cli.main.self_s",
    "trace.overhead_s", "trace.overhead_frac",
]


def unit_of(metric):
    if metric.endswith("_s") or metric.endswith(".s"):
        return "s"
    if metric.endswith(".cells"):
        return "cells"
    if metric.endswith(".bytes"):
        return "B"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


class Tracer:
    """Records spans for one phase at a time; ``phases`` maps phase -> spans."""

    def __init__(self):
        self.phases = {}
        self.counters = {}
        self._spans = None
        self._stack = []

    def _wrap(self, name, fn, measure):
        spans, stack = self._spans, self._stack

        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if measure is not None:
                record[4] = measure(args, result)
            return result
        return traced

    @contextlib.contextmanager
    def recording(self, phase):
        """Install the wrappers, record the phase's spans, then restore the package."""
        self._spans = self.phases.setdefault(phase, [])
        counts = self.counters.setdefault(phase, Counter())
        patched = []

        def patch(owner, attr, value):
            patched.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, value)

        def patch_everywhere(original, replacement):
            for module in MODULES:
                for key, value in list(vars(module).items()):
                    if value is original:
                        patch(module, key, replacement)

        for name, home, attr, measure in TRACED:
            original = getattr(home, attr)
            patch_everywhere(original, self._wrap(name, original, measure))
        patch(mixture.SparseMixtureModel, "__init__",
              self._wrap(MODEL_SPAN, mixture.SparseMixtureModel.__init__, None))
        logsumexp = kernels.logsumexp

        def counted_logsumexp(*args, **kwargs):
            counts[COUNTED] += 1
            return logsumexp(*args, **kwargs)
        patch_everywhere(logsumexp, counted_logsumexp)
        try:
            yield
        finally:
            for owner, attr, value in reversed(patched):
                setattr(owner, attr, value)
            self._spans = None

    def layer_metrics(self, phase):
        """Per-layer metrics of one recorded phase (all of METRICS but trace.*)."""
        spans = self.phases.get(phase, [])
        calls, work = Counter(), Counter()
        total, self_time = defaultdict(float), defaultdict(float)
        children = defaultdict(list)
        for idx, (name, start, end, parent, info) in enumerate(spans):
            calls[name] += 1
            total[name] += end - start
            self_time[name] += end - start
            if parent >= 0:
                self_time[spans[parent][0]] -= end - start
                children[parent].append(idx)
            for key, value in (info or {}).items():
                work[f"{name}.{key}"] += value

        adam_loop = 0.0
        e_step_in_em = 0.0
        for idx, (name, _, _, _, _) in enumerate(spans):
            if name != "training.em_step":
                continue
            kids = children[idx]
            for pos, kid in enumerate(kids):
                kid_name, start, end = spans[kid][0], spans[kid][1], spans[kid][2]
                # the model built from the step's result is the step's last child
                if kid_name in INNER_LOOP and not (kid_name == MODEL_SPAN and pos == len(kids) - 1):
                    adam_loop += end - start
                elif kid_name == "mixture.mixture_posteriors":
                    e_step_in_em += end - start

        out = {}
        for metric in METRICS:
            if metric.startswith("trace."):
                continue
            span, _, field = metric.rpartition(".")
            if field == "calls":
                out[metric] = calls[span]
            elif field == "s":
                out[metric] = total[span]
            elif field == "self_s":
                out[metric] = self_time[span]
            elif field in ("cells", "bytes"):
                out[metric] = work[metric]
        live = work["mixture.mixture_posteriors.live_pairs"]
        pairs = work["mixture.mixture_posteriors.pairs"]
        out.update({
            "kernels.logsumexp.calls": self.counters.get(phase, Counter())[COUNTED],
            "mixture.live_pairs": live,
            "mixture.live_pair_frac": live / pairs if pairs else 0.0,
            "training.em_iters": calls["training.em_step"],
            "training.adam_loop_s": adam_loop,
            "training.m_step_s": total["training.em_step"] - e_step_in_em - adam_loop,
        })
        return out

    def dump(self, path):
        """Write every phase's spans as JSON: [name, start, end, parent] rows."""
        doc = {phase: [[n, s, e, p] for n, s, e, p, _ in spans]
               for phase, spans in self.phases.items()}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
