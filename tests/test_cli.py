"""End-to-end command-line checks driven through main(argv)."""

import csv
import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import graphhmm
from graphhmm import io
from graphhmm.cli import build_parser, main
from graphhmm.evaluation import score_dataset
from graphhmm.forecast import forecast_mean
from graphhmm.hmm import GaussianHmm
from graphhmm.mixture import AffinityGraph, SequenceDataset, SparseMixtureModel


def write_spec_model(path, alpha, means, variances=None, beta=None):
    """One-state components at the given scalar means: easy to tell apart."""
    m_count = len(means)
    variances = variances if variances is not None else [0.25] * m_count
    comps = [GaussianHmm([1.0], [[1.0]], [[mu]], [[var]])
             for mu, var in zip(means, variances)]
    io.save_model(SparseMixtureModel(comps, alpha, beta), str(path))


def write_graph(path, weights):
    io.save_graph(AffinityGraph(weights), str(path))


def read_csv_rows(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGenerate:
    def test_counts_shape_and_determinism(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]], [-5.0, 5.0])
        out1, out2, out3 = (tmp_path / f"d{i}.jsonl" for i in range(3))
        assert main(["generate", "--spec", str(spec), "--num-seqs", "4",
                     "--length", "6", "--seed", "1", "--out", str(out1)]) == 0
        assert main(["generate", "--spec", str(spec), "--num-seqs", "4",
                     "--length", "6", "--seed", "1", "--out", str(out2)]) == 0
        assert main(["generate", "--spec", str(spec), "--num-seqs", "4",
                     "--length", "6", "--seed", "2", "--out", str(out3)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert out1.read_bytes() != out3.read_bytes()
        data = io.load_dataset(str(out1))
        assert len(data) == 12
        assert all(item.seq.shape == (6, 1) for item in data.items)
        assert sorted({item.node for item in data.items}) == [1, 2, 3]

    def test_label_applied(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[1.0]], [0.0])
        out = tmp_path / "d.jsonl"
        assert main(["generate", "--spec", str(spec), "--num-seqs", "2",
                     "--length", "3", "--label", "anomalous", "--out", str(out)]) == 0
        data = io.load_dataset(str(out))
        assert all(item.label == "anomalous" for item in data.items)

    def test_mixing_frequencies_match_coefficients(self, tmp_path):
        # components at -5 and +5 are far apart, so the sign of a sequence's
        # mean identifies which component generated it
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[0.8, 0.2]], [-5.0, 5.0])
        out = tmp_path / "d.jsonl"
        assert main(["generate", "--spec", str(spec), "--num-seqs", "500",
                     "--length", "4", "--seed", "7", "--out", str(out)]) == 0
        data = io.load_dataset(str(out))
        low = np.mean([item.seq.mean() < 0 for item in data.items])
        assert 0.75 <= low <= 0.85

    def test_bad_count_rejected(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[1.0]], [0.0])
        assert main(["generate", "--spec", str(spec), "--num-seqs", "0",
                     "--length", "3", "--out", str(tmp_path / "d.jsonl")]) == 1


@pytest.fixture
def small_corpus(tmp_path):
    """Two well-separated generating components, two nodes, plus a graph."""
    spec = tmp_path / "spec.json"
    write_spec_model(spec, [[0.7, 0.3], [0.3, 0.7]], [-4.0, 4.0])
    data = tmp_path / "train.jsonl"
    assert main(["generate", "--spec", str(spec), "--num-seqs", "12",
                 "--length", "8", "--seed", "5", "--out", str(data)]) == 0
    graph = tmp_path / "graph.json"
    write_graph(graph, [[0.0, 1.0], [1.0, 0.0]])
    return {"spec": spec, "data": data, "graph": graph, "dir": tmp_path}


class TestTrain:
    def test_fixed_seed_is_byte_identical(self, small_corpus):
        d = small_corpus["dir"]
        m1, m2, m3 = d / "m1.json", d / "m2.json", d / "m3.json"
        base = ["train", "--data", str(small_corpus["data"]), "--components", "2",
                "--states", "2", "--outer-iters", "5"]
        assert main(base + ["--seed", "3", "--out", str(m1)]) == 0
        assert main(base + ["--seed", "3", "--out", str(m2)]) == 0
        assert main(base + ["--seed", "4", "--out", str(m3)]) == 0
        assert m1.read_bytes() == m2.read_bytes()
        assert m1.read_bytes() != m3.read_bytes()

    def test_training_log_matches_metadata(self, small_corpus):
        d = small_corpus["dir"]
        out = d / "m.json"
        log = d / "trace.csv"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "4", "--out", str(out),
                     "--log-out", str(log)]) == 0
        rows = read_csv_rows(log)
        assert rows[0] == ["iteration", "objective"]
        _, meta = io.load_model(str(out))
        trace = meta["objective_trace"]
        assert len(rows) - 1 == len(trace)
        for row, val in zip(rows[1:], trace):
            assert float(row[1]) == val

    def test_default_log_path(self, small_corpus):
        d = small_corpus["dir"]
        out = d / "m.json"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "2", "--out", str(out)]) == 0
        assert (d / "m.json.train.csv").exists()

    def test_graph_mode_recorded(self, small_corpus):
        d = small_corpus["dir"]
        plain, reg = d / "plain.json", d / "reg.json"
        base = ["train", "--data", str(small_corpus["data"]), "--components", "2",
                "--states", "2", "--outer-iters", "3", "--inner-iters", "5"]
        assert main(base + ["--out", str(plain)]) == 0
        assert main(base + ["--graph", str(small_corpus["graph"]), "--lambda", "0.1",
                            "--out", str(reg)]) == 0
        plain_model, plain_meta = io.load_model(str(plain))
        reg_model, reg_meta = io.load_model(str(reg))
        assert plain_meta["mode"] == "mhmm" and plain_model.beta is None
        assert reg_meta["mode"] == "spamhmm" and reg_model.beta is not None
        assert reg_meta["lambda"] == 0.1

    def test_standardize_stores_stats(self, small_corpus):
        d = small_corpus["dir"]
        out = d / "m.json"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "3", "--standardize",
                     "--out", str(out)]) == 0
        _, meta = io.load_model(str(out))
        assert meta["standardization"] is not None
        assert meta["standardization"]["per_node"] is False

    def test_each_warning_printed_once(self, tmp_path):
        # run as a program, where no logging handler is configured: a warning
        # that also went to a logger reached stderr a second time, unprefixed
        data, graph = tmp_path / "d.jsonl", tmp_path / "g.json"
        io.save_dataset(SequenceDataset([(1, np.arange(4.0)[:, None] + i) for i in range(5)]),
                        str(data))
        write_graph(graph, [[0.0, 1.0], [1.0, 0.0]])
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(graphhmm.__file__))}
        proc = subprocess.run(
            [sys.executable, "-m", "graphhmm.cli", "train", "--data", str(data), "--graph",
             str(graph), "--components", "1", "--states", "2", "--outer-iters", "2",
             "--out", str(tmp_path / "m.json")],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines() == [
            "warning: node 2: no training sequences, mixing row left unchanged"] * 2

    @pytest.mark.parametrize("flag, value", [("--lambda", "nan"), ("--lr", "inf")])
    def test_non_finite_hyperparameter_fails_before_fit(self, small_corpus, monkeypatch,
                                                        capsys, flag, value):
        # plain mode never reads lr, so a bad value used to surface only at save
        monkeypatch.setattr("graphhmm.cli.fit", lambda *a: pytest.fail("fit ran"))
        out = small_corpus["spec"]
        before = out.read_bytes()
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", flag, value, "--out", str(out)]) == 1
        assert "must be finite" in capsys.readouterr().err
        assert out.read_bytes() == before

    @pytest.mark.parametrize("flags", [["--lambda", "0.5"], ["--normalize-graph"]],
                             ids=["lambda", "normalize-graph"])
    def test_graph_flag_without_graph_refused(self, tmp_path, monkeypatch, capsys, flags):
        # without a graph these flags have no graph term to act on; the missing data
        # file shows that the refusal comes before anything is read
        monkeypatch.setattr("graphhmm.cli.fit", lambda *a: pytest.fail("fit ran"))
        out = tmp_path / "m.json"
        assert main(["train", "--data", str(tmp_path / "nope.jsonl"), "--components", "2",
                     "--states", "2", *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and flags[0] in err and "--graph" in err
        assert not out.exists() and not (tmp_path / "m.json.train.csv").exists()

    def test_missing_data_file(self, tmp_path, capsys):
        assert main(["train", "--data", str(tmp_path / "nope.jsonl"), "--components",
                     "2", "--states", "2", "--out", str(tmp_path / "m.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestScore:
    @pytest.fixture
    def trained(self, small_corpus):
        d = small_corpus["dir"]
        model = d / "model.json"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "8", "--out", str(model)]) == 0
        normal = d / "normal.jsonl"
        anom = d / "anom.jsonl"
        assert main(["generate", "--spec", str(small_corpus["spec"]), "--num-seqs", "6",
                     "--length", "8", "--seed", "21", "--label", "normal",
                     "--out", str(normal)]) == 0
        far_spec = d / "far.json"
        write_spec_model(far_spec, [[1.0], [1.0]], [40.0])
        assert main(["generate", "--spec", str(far_spec), "--num-seqs", "6",
                     "--length", "8", "--seed", "22", "--label", "anomalous",
                     "--out", str(anom)]) == 0
        mixed = d / "mixed.jsonl"
        mixed.write_text(normal.read_text() + anom.read_text())
        return {"model": model, "mixed": mixed, "normal": normal, **small_corpus}

    def test_outputs_and_perfect_auc(self, trained):
        d = trained["dir"]
        scores, roc, summary = d / "s.csv", d / "roc.csv", d / "sum.json"
        assert main(["score", "--model", str(trained["model"]), "--data",
                     str(trained["mixed"]), "--scores-out", str(scores),
                     "--roc-out", str(roc), "--json-out", str(summary)]) == 0
        rows = read_csv_rows(scores)
        assert rows[0] == ["node", "length", "avg_log_likelihood", "label"]
        assert len(rows) - 1 == 24
        doc = json.loads(summary.read_text())
        assert doc["num_sequences"] == 24
        assert doc["num_normal"] == 12 and doc["num_anomalous"] == 12
        # the anomalous set sits 40 sigma away, so separation is total
        assert doc["auc"] == 1.0
        assert doc["mean_avg_log_likelihood_anomalous"] < doc["mean_avg_log_likelihood_normal"]
        roc_rows = read_csv_rows(roc)
        assert roc_rows[0] == ["fpr", "tpr"]
        assert [float(v) for v in roc_rows[1]] == [0.0, 0.0]
        assert [float(v) for v in roc_rows[-1]] == [1.0, 1.0]

    def test_single_class_warns_and_omits_auc(self, trained, capsys):
        d = trained["dir"]
        summary = d / "sum.json"
        assert main(["score", "--model", str(trained["model"]), "--data",
                     str(trained["normal"]), "--json-out", str(summary)]) == 0
        assert "only one class" in capsys.readouterr().err
        doc = json.loads(summary.read_text())
        assert "auc" not in doc and doc["num_normal"] == 12

    def test_zero_likelihood_record_is_scored_most_anomalous(self, tmp_path, capsys):
        # an observation of 1e154 overflows the one state's density to -inf
        model = tmp_path / "model.json"
        write_spec_model(model, [[1.0]], [0.0], variances=[1e-6])
        data = tmp_path / "data.jsonl"
        io.save_dataset(SequenceDataset([(1, [[0.0]], "normal"), (1, [[1e154]], "anomalous"),
                                         (1, [[0.001]], "normal"),
                                         (1, [[0.0005]], "anomalous")]), str(data))
        scores, roc, summary = tmp_path / "s.csv", tmp_path / "roc.csv", tmp_path / "sum.json"
        assert main(["score", "--model", str(model), "--data", str(data),
                     "--scores-out", str(scores), "--roc-out", str(roc),
                     "--json-out", str(summary)]) == 0
        assert "1 at zero likelihood" in capsys.readouterr().out
        rows = read_csv_rows(scores)
        assert rows[2] == ["1", "1", "-inf", "anomalous"]
        assert all(np.isfinite(float(r[2])) for i, r in enumerate(rows[1:]) if i != 1)
        doc = json.loads(summary.read_text())
        assert doc["num_zero_likelihood"] == 1
        finite = [float(rows[i][2]) for i in (1, 3, 4)]
        assert doc["mean_avg_log_likelihood"] == float(np.mean(finite))
        assert doc["mean_avg_log_likelihood_anomalous"] == finite[2]
        # the -inf record is flagged first: the curve's first step is all anomalous
        roc_rows = [[float(v) for v in r] for r in read_csv_rows(roc)[1:]]
        assert roc_rows[:2] == [[0.0, 0.0], [0.0, 0.5]]
        assert doc["auc"] == 0.75

    @pytest.mark.parametrize("dim", [1, 3])
    def test_data_dimension_must_match_the_model(self, tmp_path, capsys, dim):
        # D = 1 data against a D = 2 model used to score, with AUC 1.0
        model = tmp_path / "model.json"
        io.save_model(SparseMixtureModel([GaussianHmm([1.0], [[1.0]], [[0.0, 0.0]],
                                                      [[1.0, 1.0]])], [[1.0]]), str(model))
        data = tmp_path / "data.jsonl"
        io.save_dataset(SequenceDataset([(1, np.zeros((3, dim)), "normal"),
                                         (1, np.full((3, dim), 9.0), "anomalous")]), str(data))
        assert main(["score", "--model", str(model), "--data", str(data)]) == 1
        assert f"dataset has dimension {dim}, model expects 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["score", "forecast"])
    def test_dimension_checked_before_the_stats(self, small_corpus, tmp_path, capsys, command):
        # D = 2 data against a D = 1 standardized model used to report the stats' shape
        model = tmp_path / "std_model.json"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "2", "--standardize",
                     "--out", str(model)]) == 0
        data = tmp_path / "wide.jsonl"
        io.save_dataset(SequenceDataset([(1, np.zeros((3, 2)))]), str(data))
        args = {"score": ["--data", str(data)],
                "forecast": ["--prefix-file", str(data), "--out", str(tmp_path / "f.csv")]}
        capsys.readouterr()
        assert main([command, "--model", str(model)] + args[command]) == 1
        assert capsys.readouterr().err == "error: dataset has dimension 2, model expects 1\n"

    def test_standardized_model_transforms_input(self, small_corpus):
        d = small_corpus["dir"]
        model = d / "std_model.json"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "5", "--standardize",
                     "--out", str(model)]) == 0
        scores = d / "s.csv"
        assert main(["score", "--model", str(model), "--data",
                     str(small_corpus["data"]), "--scores-out", str(scores)]) == 0
        loaded, meta = io.load_model(str(model))
        raw = io.load_dataset(str(small_corpus["data"]))
        transformed = io.apply_standardization(raw, meta["standardization"])
        expected = score_dataset(loaded, transformed)
        rows = read_csv_rows(scores)
        for row, exp in zip(rows[1:], expected):
            assert float(row[2]) == exp.avg_log_likelihood


class TestForecast:
    def test_csv_shape_and_determinism(self, small_corpus, tmp_path):
        d = small_corpus["dir"]
        model = d / "model.json"
        assert main(["train", "--data", str(small_corpus["data"]), "--components", "2",
                     "--states", "2", "--outer-iters", "5", "--out", str(model)]) == 0
        prefix = d / "prefix.jsonl"
        io.save_dataset(io.load_dataset(str(small_corpus["data"])), str(prefix))
        out1, out2 = d / "f1.csv", d / "f2.csv"
        base = ["forecast", "--model", str(model), "--prefix-file", str(prefix),
                "--horizon", "5", "--samples", "40", "--seed", "3"]
        assert main(base + ["--out", str(out1)]) == 0
        assert main(base + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = read_csv_rows(out1)
        assert rows[0] == ["step", "x1"]
        assert len(rows) - 1 == 5
        assert [int(r[0]) for r in rows[1:]] == [1, 2, 3, 4, 5]

    def test_standardized_model_forecasts_in_data_units(self, tmp_path):
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[0.5, 0.5]], [96.0, 104.0], variances=[1.0, 1.0])
        data, model, out = tmp_path / "d.jsonl", tmp_path / "m.json", tmp_path / "f.csv"
        assert main(["generate", "--spec", str(spec), "--num-seqs", "10", "--length", "8",
                     "--seed", "2", "--out", str(data)]) == 0
        assert main(["train", "--data", str(data), "--components", "2", "--states", "2",
                     "--outer-iters", "3", "--standardize", "--out", str(model)]) == 0
        assert main(["forecast", "--model", str(model), "--prefix-file", str(data),
                     "--horizon", "4", "--samples", "30", "--seed", "5",
                     "--out", str(out)]) == 0
        loaded, meta = io.load_model(str(model))
        stats = meta["standardization"]
        prefix = io.apply_standardization(io.load_dataset(str(data)), stats).items[0]
        expected = (forecast_mean(loaded, prefix.seq, prefix.node, 4, 30, 5)
                    * np.array(stats["std"]) + np.array(stats["mean"]))
        assert [[float(v) for v in r[1:]] for r in read_csv_rows(out)[1:]] == expected.tolist()
        assert np.all(np.abs(expected - 100.0) < 10.0)

    def test_node_override(self, tmp_path):
        # node 2 emits around +8, so forecasts for it must sit far above
        # anything node 1 (around -8) would produce
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[1.0, 0.0], [0.0, 1.0]], [-8.0, 8.0],
                         beta=[[1.0, -1.0], [-1.0, 1.0]])
        prefix = tmp_path / "prefix.jsonl"
        io.save_dataset(SequenceDataset([(1, np.full((3, 1), -8.0))]), str(prefix))
        out = tmp_path / "f.csv"
        assert main(["forecast", "--model", str(spec), "--prefix-file", str(prefix),
                     "--node", "2", "--horizon", "3", "--samples", "60",
                     "--seed", "1", "--out", str(out)]) == 0
        rows = read_csv_rows(out)
        values = [float(r[1]) for r in rows[1:]]
        assert all(v > 4.0 for v in values)


class TestCluster:
    def test_assignments_and_sparsity(self, tmp_path):
        from graphhmm.mixture import reparameterize_rows
        spec = tmp_path / "model.json"
        beta = np.array([[1.0, -1.0], [0.5, np.sqrt(3.0) / 2.0]])
        write_spec_model(spec, reparameterize_rows(beta), [-2.0, 2.0], beta=beta)
        out = tmp_path / "c.json"
        assert main(["cluster", "--model", str(spec), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["assignments"] == [1, 2]
        assert doc["relative_sparsity"] == 0.25
        assert doc["thresholded_sparsity"]["threshold"] == 1e-6
        assert doc["thresholded_sparsity"]["value"] == 0.25

    def test_alpha_object_is_an_error_not_a_traceback(self, tmp_path, capsys):
        spec = tmp_path / "model.json"
        write_spec_model(spec, [[0.5, 0.5]], [-2.0, 2.0])
        doc = json.loads(spec.read_text())
        doc["alpha"] = {"a": 1}
        spec.write_text(json.dumps(doc))
        out = tmp_path / "c.json"
        assert main(["cluster", "--model", str(spec), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {spec}: 'alpha' must contain only numbers")
        assert "Traceback" not in err and not out.exists()


class TestStandardize:
    def test_pooled_and_stats_reuse(self, tmp_path):
        rng = np.random.default_rng(0)
        train = tmp_path / "train.jsonl"
        io.save_dataset(SequenceDataset([(1, rng.normal(5.0, 3.0, size=(40, 2))),
                                         (2, rng.normal(5.0, 3.0, size=(40, 2)))]),
                        str(train))
        test = tmp_path / "test.jsonl"
        io.save_dataset(SequenceDataset([(1, rng.normal(5.0, 3.0, size=(10, 2)))]),
                        str(test))
        train_out, stats = tmp_path / "train_std.jsonl", tmp_path / "stats.json"
        assert main(["standardize", "--data", str(train), "--out", str(train_out),
                     "--stats-out", str(stats)]) == 0
        frames = io.load_dataset(str(train_out)).frames()
        np.testing.assert_allclose(frames.mean(axis=0), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(frames.std(axis=0), 1.0, rtol=0, atol=1e-12)
        test_out = tmp_path / "test_std.jsonl"
        assert main(["standardize", "--data", str(test), "--out", str(test_out),
                     "--stats-in", str(stats)]) == 0
        loaded_stats = io.load_stats(str(stats))
        expected = io.apply_standardization(io.load_dataset(str(test)), loaded_stats)
        got = io.load_dataset(str(test_out))
        np.testing.assert_array_equal(got.items[0].seq, expected.items[0].seq)

    def test_per_node_flag(self, tmp_path):
        rng = np.random.default_rng(1)
        data = tmp_path / "d.jsonl"
        io.save_dataset(SequenceDataset([(1, rng.normal(-9.0, 1.0, size=(30, 1))),
                                         (2, rng.normal(9.0, 4.0, size=(30, 1)))]),
                        str(data))
        out = tmp_path / "std.jsonl"
        assert main(["standardize", "--data", str(data), "--out", str(out),
                     "--per-node"]) == 0
        for item in io.load_dataset(str(out)).items:
            np.testing.assert_allclose(item.seq.mean(), 0.0, rtol=0, atol=1e-12)

    def test_per_node_with_stats_in_refused(self, tmp_path, capsys):
        # the stats file decides pooled or per node, so --per-node has nothing to act on;
        # neither input exists, so the refusal comes before anything is read
        out = tmp_path / "std.jsonl"
        assert main(["standardize", "--data", str(tmp_path / "nope.jsonl"), "--out", str(out),
                     "--stats-in", str(tmp_path / "stats.json"), "--per-node"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--per-node" in err and "--stats-in" in err
        assert not out.exists()


BAD_STATS = {
    "missing-key": (lambda st: st.pop("std"), "missing 'std'"),
    "width": (lambda st: st.update(mean=[0.0, 1.0], std=[1.0, 2.0]),
              r"'mean' must hold 1 number\(s\)"),
    "strings": (lambda st: st.update(mean=["0.5"]), "'mean' must contain only numbers"),
}


@pytest.mark.parametrize("defect", sorted(BAD_STATS))
class TestStatsChecks:
    """Defective stats are refused whether they come from a file or a model."""

    @pytest.fixture
    def data(self, tmp_path):
        path = tmp_path / "d.jsonl"
        io.save_dataset(SequenceDataset([(1, [[1.0], [2.0]], "normal"),
                                         (1, [[0.5]], "anomalous")]), str(path))
        return path

    def test_stats_file(self, tmp_path, data, defect, capsys):
        edit, message = BAD_STATS[defect]
        stats = {"mean": [1.5], "std": [0.5], "per_node": False}
        edit(stats)
        stats_path, out = tmp_path / "stats.json", tmp_path / "out.jsonl"
        stats_path.write_text(json.dumps(stats))
        assert main(["standardize", "--data", str(data), "--out", str(out),
                     "--stats-in", str(stats_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: standardization stats: ")
        assert re.search(message, err) and not out.exists()

    def test_model_metadata(self, tmp_path, data, defect, capsys):
        edit, message = BAD_STATS[defect]
        model = tmp_path / "model.json"
        write_spec_model(model, [[1.0]], [0.0])
        doc = json.loads(model.read_text())
        doc["metadata"]["standardization"] = {"per_node": True,
                                              "nodes": {"1": {"mean": [1.5], "std": [0.5]}}}
        edit(doc["metadata"]["standardization"]["nodes"]["1"])
        model.write_text(json.dumps(doc))
        scores = tmp_path / "s.csv"
        assert main(["score", "--model", str(model), "--data", str(data),
                     "--scores-out", str(scores)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: standardization stats for node 1: ")
        assert re.search(message, err) and not scores.exists()


class TestModelStats:
    """A model is unstandardized only when metadata.standardization is missing
    or null, as train writes it; any other value is read as stats."""

    @staticmethod
    def write_model(path, stats):
        write_spec_model(path, [[1.0]], [0.0])
        doc = json.loads(path.read_text())
        doc["metadata"]["standardization"] = stats
        path.write_text(json.dumps(doc))

    @pytest.mark.parametrize("command", ["score", "forecast"])
    @pytest.mark.parametrize("stats", [{}, False, 0, [], ""],
                             ids=["object", "false", "zero", "list", "string"])
    def test_empty_stats_are_refused(self, tmp_path, capsys, command, stats):
        model, data, out = tmp_path / "m.json", tmp_path / "d.jsonl", tmp_path / "out.csv"
        self.write_model(model, stats)
        io.save_dataset(SequenceDataset([(1, [[1.0], [2.0]])]), str(data))
        args = {"score": ["--data", str(data), "--scores-out", str(out)],
                "forecast": ["--prefix-file", str(data), "--out", str(out)]}
        assert main([command, "--model", str(model)] + args[command]) == 1
        assert capsys.readouterr().err.startswith("error: standardization stats")
        assert not out.exists()

    def test_null_stats_score_the_raw_data(self, tmp_path):
        model, data, out = tmp_path / "m.json", tmp_path / "d.jsonl", tmp_path / "s.csv"
        self.write_model(model, None)
        io.save_dataset(SequenceDataset([(1, [[1.0], [2.0]]), (1, [[9.0]])]), str(data))
        assert main(["score", "--model", str(model), "--data", str(data),
                     "--scores-out", str(out)]) == 0
        expected = score_dataset(io.load_model(str(model))[0], io.load_dataset(str(data)))
        assert [float(row[2]) for row in read_csv_rows(out)[1:]] \
            == [s.avg_log_likelihood for s in expected]

    def test_forecast_standardizes_only_its_record(self, tmp_path, capsys):
        # the second record overflows under the stats, but it is not forecast
        model, prefix, out = tmp_path / "m.json", tmp_path / "p.jsonl", tmp_path / "f.csv"
        self.write_model(model, {"mean": [1.0], "std": [0.5], "per_node": False})
        io.save_dataset(SequenceDataset([(1, [[1.2], [1.4]]), (1, [[1.7e308]])]), str(prefix))
        assert main(["forecast", "--model", str(model), "--prefix-file", str(prefix),
                     "--horizon", "3", "--samples", "20", "--seed", "4",
                     "--out", str(out)]) == 0
        seq = (np.array([[1.2], [1.4]]) - 1.0) / 0.5
        expected = forecast_mean(io.load_model(str(model))[0], seq, 1, 3, 20, 4) * 0.5 + 1.0
        assert [[float(v) for v in r[1:]] for r in read_csv_rows(out)[1:]] == expected.tolist()
        io.save_dataset(SequenceDataset([(1, [[1.7e308]]), (1, [[1.2]])]), str(prefix))
        capsys.readouterr()
        assert main(["forecast", "--model", str(model), "--prefix-file", str(prefix),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: item 0: sequence contains non-finite values\n"


class TestExitCodesAndEnv:
    def test_usage_error_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["train"])  # missing required flags
        assert exc.value.code == 2

    def test_unknown_command_is_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_runtime_error_is_one(self, tmp_path, capsys):
        assert main(["cluster", "--model", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "c.json")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_env_fallback_supplies_value(self, tmp_path, monkeypatch):
        spec = tmp_path / "spec.json"
        write_spec_model(spec, [[1.0]], [0.0])
        explicit, via_env = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["generate", "--spec", str(spec), "--num-seqs", "2",
                     "--length", "3", "--seed", "11", "--out", str(explicit)]) == 0
        monkeypatch.setenv("GRAPHHMM_SEED", "11")
        assert main(["generate", "--spec", str(spec), "--num-seqs", "2",
                     "--length", "3", "--out", str(via_env)]) == 0
        assert explicit.read_bytes() == via_env.read_bytes()

    def test_env_bad_value_is_two(self, monkeypatch, capsys):
        monkeypatch.setenv("GRAPHHMM_HORIZON", "soon")
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--model", "x", "--prefix-file", "y", "--out", "z"])
        assert exc.value.code == 2
        assert "GRAPHHMM_HORIZON" in capsys.readouterr().err

    @pytest.mark.parametrize("var, value", [("GRAPHHMM_STANDARDIZE", "on"),
                                            ("GRAPHHMM_NORMALIZE_GRAPH", "off"),
                                            ("GRAPHHMM_PER_NODE", "2"),
                                            ("GRAPHHMM_LABEL", "weird"),
                                            ("GRAPHHMM_LABEL", "Normal")])
    def test_env_bad_switch_or_choice_is_two(self, monkeypatch, capsys, var, value):
        monkeypatch.setenv(var, value)
        with pytest.raises(SystemExit) as exc:
            main(["cluster", "--model", "x", "--out", "y"])
        assert exc.value.code == 2
        assert f"environment variable {var}={value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("value, expected", [("1", True), ("TRUE", True), (" yes ", True),
                                                 ("0", False), ("False", False), ("no", False),
                                                 ("", False)])
    def test_env_switch_spellings(self, monkeypatch, value, expected):
        monkeypatch.setenv("GRAPHHMM_STANDARDIZE", value)
        args = build_parser().parse_args(["train", "--data", "d", "--components", "1",
                                          "--states", "1", "--out", "m"])
        assert args.standardize is expected

    def test_env_choice_supplies_value(self, tmp_path, monkeypatch):
        spec, out = tmp_path / "spec.json", tmp_path / "d.jsonl"
        write_spec_model(spec, [[1.0]], [0.0])
        monkeypatch.setenv("GRAPHHMM_LABEL", "anomalous")
        assert main(["generate", "--spec", str(spec), "--num-seqs", "1", "--length", "2",
                     "--out", str(out)]) == 0
        assert [item.label for item in io.load_dataset(str(out)).items] == ["anomalous"]
