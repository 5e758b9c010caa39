"""The benchmark's tracer still reads every layer metric from the package.

``perfbench/tracing.py`` wraps ``kernels.forward``, ``kernels.backward`` and
``kernels.transition_posteriors`` and unpacks their ``log_obs`` as a (T, S)
array, so a batched (B, T, S) call reaching one of those names would raise
inside the wrapper. This runs a tiny fit in both modes, a scoring pass and a
forecast under the tracer and checks that every per-layer metric is finite.
The inner Adam loop must stay visible: one gradient and one Adam span per
step, timed into ``training.adam_loop_s``. The tracer counts an EM step's
last ``mixture.SparseMixtureModel`` span as M-step time, so each step must
build its returned model after everything else it calls.
"""

import math
import os
import sys

import numpy as np

from graphhmm import evaluation, forecast, training
from graphhmm.mixture import AffinityGraph, SequenceDataset

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "perfbench"))
import tracing  # noqa: E402


def test_layer_metrics_are_finite():
    rng = np.random.default_rng(0)
    data = SequenceDataset([(node, rng.normal(size=(t, 2)), label)
                            for node, t, label in ((1, 5, "normal"), (2, 3, "anomalous"),
                                                   (3, 5, "normal"), (1, 4, "anomalous"),
                                                   (2, 1, "normal"), (3, 4, "normal"))])
    graph = AffinityGraph(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.5], [0.0, 0.5, 0.0]]))
    tracer = tracing.Tracer()
    config = training.TrainConfig(lam=0.5, outer_iters=2, inner_iters=3)
    with tracer.recording("run"):
        result = training.fit(data, graph, config, training.InitSpec(2, 2, 3))
        training.fit(data, None, training.TrainConfig(outer_iters=2), training.InitSpec(2, 2, 3))
        scored = evaluation.score_dataset(result.model, data)
        evaluation.roc_auc([(s.avg_log_likelihood, s.label) for s in scored])
        forecast.forecast_mean(result.model, data.items[0].seq, 1, 2, 3, rng)
    metrics = tracer.layer_metrics("run")
    expected = [key for key in tracing.METRICS if not key.startswith("trace.")]
    assert sorted(metrics) == sorted(expected)
    for key in expected:
        assert math.isfinite(metrics[key]), key
    assert metrics["mixture.mixture_posteriors.calls"] == 4
    assert metrics["evaluation.score_dataset.s"] > 0.0
    steps = config.outer_iters * config.inner_iters  # patience 5 > 2 iterations: no early stop
    assert len(result.objectives) == config.outer_iters + 1
    assert metrics["mixture.coefficient_gradient.calls"] == steps
    assert metrics["training.adam_ascent_step.calls"] == steps
    assert metrics["training.adam_loop_s"] > 0.0
    spans = tracer.phases["run"]
    last_child = {}
    for name, _, _, parent, _ in spans:
        if parent >= 0 and spans[parent][0] == "training.em_step":
            last_child[parent] = name
    assert len(last_child) == metrics["training.em_iters"] == 2 * config.outer_iters
    assert set(last_child.values()) == {tracing.MODEL_SPAN}
