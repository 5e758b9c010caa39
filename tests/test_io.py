"""File format checks: canonical JSON, datasets, graphs, models, stats."""

import json

import numpy as np
import pytest

from graphhmm import io, mixture
from graphhmm.io import (apply_standardization, canonical_dumps, format_float,
                         load_dataset, load_graph, load_model, load_stats,
                         save_dataset, save_graph, save_model, save_stats,
                         standardization_stats)
from graphhmm.mixture import (AffinityGraph, SequenceDataset, SparseMixtureModel,
                              reparameterize_rows)

from conftest import random_hmm


def tiny_model(rng, with_beta=True):
    comps = [random_hmm(rng, 2, 2) for _ in range(2)]
    if with_beta:
        beta = rng.uniform(0.2, 1.5, size=(2, 2))
        return SparseMixtureModel(comps, reparameterize_rows(beta), beta)
    alpha = rng.uniform(0.1, 1.0, size=(2, 2))
    alpha /= alpha.sum(axis=1, keepdims=True)
    return SparseMixtureModel(comps, alpha)


class TestCanonicalJson:
    def test_float_formatting(self):
        assert format_float(0.1) == "0.10000000000000001"
        assert format_float(1.0) == "1.0"
        assert format_float(-2.5e-300) == "-2.5e-300"

    def test_float_roundtrip_exact(self):
        rng = np.random.default_rng(0)
        for v in rng.normal(size=200) * 10.0 ** rng.integers(-200, 200, size=200):
            assert float(format_float(v)) == v

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            format_float(np.inf)

    def test_key_order_preserved(self):
        assert canonical_dumps({"b": 1, "a": 2}) == '{"b":1,"a":2}'

    def test_types(self):
        doc = {"i": 3, "f": 0.5, "s": "x", "b": True, "n": None, "l": [1.0, 2]}
        assert canonical_dumps(doc) == '{"i":3,"f":0.5,"s":"x","b":true,"n":null,"l":[1.0,2]}'

    def test_output_is_valid_json(self):
        rng = np.random.default_rng(1)
        doc = {"values": list(rng.normal(size=20)), "nested": {"k": [True, None, 1]}}
        parsed = json.loads(canonical_dumps(doc))
        np.testing.assert_array_equal(parsed["values"], doc["values"])


class TestCsv:
    def test_cells_follow_the_number_rule(self, tmp_path):
        p = tmp_path / "t.csv"
        io.save_csv(str(p), ["a", "b", "c", "d", "e"],
                    [(0.1, np.float64(2.0), -np.inf, None, 3), ("x", 1.0, 0.5, "", np.int64(7))])
        assert p.read_bytes() == (b"a,b,c,d,e\r\n"
                                  b"0.10000000000000001,2.0,-inf,,3\r\n"
                                  b"x,1.0,0.5,,7\r\n")

    @pytest.mark.parametrize("bad", [np.nan, np.inf, np.float64(np.inf)],
                             ids=["nan", "inf", "float64-inf"])
    def test_other_non_finite_cells_leave_the_file_intact(self, tmp_path, bad):
        p = tmp_path / "t.csv"
        io.save_csv(str(p), ["x"], [(1.0,)])
        before = p.read_bytes()
        with pytest.raises(ValueError, match="cannot serialize non-finite value"):
            io.save_csv(str(p), ["x"], [(2.0,), (bad,)])
        assert p.read_bytes() == before


class TestDatasetIo:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(2)
        data = SequenceDataset([(1, rng.normal(size=(3, 2)), "normal"),
                                (2, rng.normal(size=(5, 2)), None),
                                (1, rng.normal(size=(2, 2)), "anomalous")])
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(data, str(p1))
        loaded = load_dataset(str(p1))
        save_dataset(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()
        assert len(loaded) == 3
        np.testing.assert_array_equal(loaded.items[0].seq, data.items[0].seq)
        assert loaded.items[0].label == "normal" and loaded.items[1].label is None

    def test_error_carries_line_number(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]]}\n{"node":0,"seq":[[0.5]]}\n')
        with pytest.raises(ValueError, match=rf"{p}:2: 'node'"):
            load_dataset(str(p))

    def test_invalid_json_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]]}\nnot json\n')
        with pytest.raises(ValueError, match=rf"{p}:2: invalid JSON"):
            load_dataset(str(p))

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5],[0.5,0.5]]}\n')
        with pytest.raises(ValueError, match="share one non-zero width"):
            load_dataset(str(p))

    def test_cross_record_dimension_mismatch(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]]}\n{"node":1,"seq":[[0.5,0.5]]}\n')
        with pytest.raises(ValueError, match=rf"{p}:2: dimension 2 differs"):
            load_dataset(str(p))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[null]]}\n')
        with pytest.raises(ValueError, match=rf"{p}:1"):
            load_dataset(str(p))

    def test_bad_label(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]],"label":"odd"}\n')
        with pytest.raises(ValueError, match=rf"{p}:1: 'label'"):
            load_dataset(str(p))

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.jsonl"
        p.write_text("")
        with pytest.raises(ValueError, match="no sequences"):
            load_dataset(str(p))

    def test_blank_lines_skipped(self, tmp_path):
        p = tmp_path / "gaps.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]]}\n\n{"node":2,"seq":[[0.25]]}\n')
        assert len(load_dataset(str(p))) == 2

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_dataset(str(tmp_path / "nope.jsonl"))

    @pytest.mark.parametrize("seq", ['[["1.5", "2"]]', '[[true, 3]]', '[[1, true]]',
                                     '[[1.5, false]]', '[[0.5, {"a": 1}]]', '"1.5"'])
    def test_non_numbers_in_seq_rejected(self, tmp_path, seq):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5, 0.5]]}\n{"node":1,"seq":%s}\n' % seq)
        with pytest.raises(ValueError, match=rf"{p}:2: 'seq' must contain only numbers; "
                                             r".* is not a number"):
            load_dataset(str(p))

    def test_zero_width_rows_rejected(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]]}\n{"node":2,"seq":[[], []]}\n')
        with pytest.raises(ValueError, match=rf"{p}:2: sequence must have at least one feature"):
            load_dataset(str(p))

    def test_integer_too_large_for_a_float(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[1%s]]}\n' % ("0" * 400))
        with pytest.raises(ValueError, match=rf"{p}:1: 'seq' holds an integer too large"):
            load_dataset(str(p))

    def test_failing_record_mapped_to_its_line(self, tmp_path):
        p = tmp_path / "bad.jsonl"
        p.write_text('{"node":1,"seq":[[0.5]]}\n\n\n{"node":2,"seq":[[0.5]],"label":"x"}\n')
        with pytest.raises(ValueError, match=rf"^{p}:4: 'label' must be"):
            load_dataset(str(p))

    def test_each_record_checked_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(15)
        data = SequenceDataset([(1 + i % 3, rng.normal(size=(4, 2))) for i in range(7)])
        p = tmp_path / "d.jsonl"
        save_dataset(data, str(p))
        calls = []
        original = mixture.check_record

        def counted(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)
        monkeypatch.setattr(mixture, "check_record", counted)
        monkeypatch.setattr(io, "check_record", counted, raising=False)
        load_dataset(str(p))
        assert len(calls) == 7


class TestGraphIo:
    def test_roundtrip(self, tmp_path):
        g = AffinityGraph([[0.0, 0.5, 0.0], [0.5, 0.0, 2.0], [0.0, 2.0, 0.0]])
        p = tmp_path / "g.json"
        save_graph(g, str(p))
        loaded = load_graph(str(p))
        np.testing.assert_array_equal(loaded.weights, g.weights)

    def test_normalize_on_load(self, tmp_path):
        g = AffinityGraph([[0.0, 4.0], [4.0, 0.0]])
        p = tmp_path / "g.json"
        save_graph(g, str(p))
        loaded = load_graph(str(p), normalize=True)
        np.testing.assert_array_equal(loaded.weights, [[0.0, 1.0], [1.0, 0.0]])

    def test_shape_mismatch(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"num_nodes":3,"weights":[[0.0,1.0],[1.0,0.0]]}\n')
        with pytest.raises(ValueError, match="3x3"):
            load_graph(str(p))

    def test_asymmetry_reported_with_path(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"num_nodes":2,"weights":[[0.0,1.0],[0.5,0.0]]}\n')
        with pytest.raises(ValueError, match=rf"{p}: .*symmetric"):
            load_graph(str(p))

    @pytest.mark.parametrize("weights", ['[[0.0, "1.0"], ["1.0", 0.0]]',
                                         '[[0.0, true], [true, 0.0]]',
                                         '[[0.0, null], [null, 0.0]]'])
    def test_non_number_weights_rejected(self, tmp_path, weights):
        p = tmp_path / "g.json"
        p.write_text('{"num_nodes":2,"weights":%s}\n' % weights)
        with pytest.raises(ValueError, match=rf"{p}: 'weights' must contain only numbers"):
            load_graph(str(p))

    @pytest.mark.parametrize("count", ["true", "1.0", "0", '"1"'])
    def test_num_nodes_must_be_an_integer(self, tmp_path, count):
        p = tmp_path / "g.json"
        p.write_text('{"num_nodes":%s,"weights":[[0.0]]}\n' % count)
        with pytest.raises(ValueError, match=rf"{p}: 'num_nodes' must be an integer >= 1"):
            load_graph(str(p))

    def test_normalization_failure_carries_path(self, tmp_path):
        p = tmp_path / "g.json"
        p.write_text('{"num_nodes":2,"weights":[[0.0,-1.0],[-1.0,0.0]]}\n')
        with pytest.raises(ValueError, match=rf"{p}: graph normalization requires"):
            load_graph(str(p), normalize=True)


class TestModelIo:
    def test_roundtrip_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(3)
        model = tiny_model(rng)
        p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
        save_model(model, str(p1), metadata={"trained_on": "demo"})
        loaded, meta = load_model(str(p1))
        save_model(loaded, str(p2), metadata=meta)
        assert p1.read_bytes() == p2.read_bytes()
        np.testing.assert_array_equal(loaded.alpha, model.alpha)
        np.testing.assert_array_equal(loaded.beta, model.beta)
        np.testing.assert_array_equal(loaded.components[1].means, model.components[1].means)
        assert meta == {"trained_on": "demo"}

    def test_failed_save_leaves_existing_file_intact(self, tmp_path):
        rng = np.random.default_rng(13)
        model = tiny_model(rng)
        p = tmp_path / "m.json"
        save_model(model, str(p), metadata={"run": 1})
        before = p.read_bytes()
        with pytest.raises(ValueError, match="non-finite"):
            save_model(model, str(p), metadata={"run": float("nan")})
        assert p.read_bytes() == before

    def test_roundtrip_without_beta(self, tmp_path):
        rng = np.random.default_rng(4)
        model = tiny_model(rng, with_beta=False)
        p = tmp_path / "m.json"
        save_model(model, str(p))
        loaded, meta = load_model(str(p))
        assert loaded.beta is None and meta == {}

    def test_key_order_is_fixed(self, tmp_path):
        rng = np.random.default_rng(5)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        assert list(doc.keys()) == ["format_version", "num_nodes", "num_components",
                                    "num_states", "dim", "alpha", "beta",
                                    "components", "metadata"]

    def test_missing_field(self, tmp_path):
        rng = np.random.default_rng(6)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        del doc["alpha"]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="missing required field 'alpha'"):
            load_model(str(p))

    def test_unsupported_version(self, tmp_path):
        rng = np.random.default_rng(7)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        doc["format_version"] = 99
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="format_version"):
            load_model(str(p))

    def test_corrupted_parameters_rejected(self, tmp_path):
        rng = np.random.default_rng(8)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        doc["components"][0]["initial"] = [0.9, 0.9]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="component 1"):
            load_model(str(p))

    def test_corrupted_second_component_named(self, tmp_path):
        rng = np.random.default_rng(10)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        doc["components"][1]["transition"][0] = [1.5, -0.5]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"{p}: component 2: transition"):
            load_model(str(p))

    def test_component_shape_must_match_header(self, tmp_path):
        rng = np.random.default_rng(11)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        doc["components"][1]["means"] = [[0.0], [1.0]]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=rf"{p}: .*'means' arrays must be 2x2x2"):
            load_model(str(p))

    @pytest.mark.parametrize("alpha", [{"a": 1}, [[0.5, 0.5], [1.0]],
                                       [["0.5", "0.5"], ["0.5", "0.5"]],
                                       [[True, False], [False, True]], "0.5"])
    def test_alpha_must_be_rows_of_numbers(self, tmp_path, alpha):
        p = self.edited(tmp_path, lambda doc: doc.update(alpha=alpha))
        with pytest.raises(ValueError, match=rf"{p}: 'alpha' (must contain only numbers|rows)"):
            load_model(str(p))

    def test_component_arrays_must_hold_numbers(self, tmp_path):
        def edit(doc):
            doc["components"][1]["means"][0][1] = "2.5"
        p = self.edited(tmp_path, edit)
        with pytest.raises(ValueError, match=rf"{p}: 'means' must contain only numbers"):
            load_model(str(p))

    @pytest.mark.parametrize("key", ["num_nodes", "num_components", "num_states", "dim"])
    @pytest.mark.parametrize("value", [True, 2.0, 0, None])
    def test_header_counts_must_be_integers(self, tmp_path, key, value):
        p = self.edited(tmp_path, lambda doc: doc.update({key: value}))
        with pytest.raises(ValueError, match=rf"{p}: '{key}' must be an integer >= 1"):
            load_model(str(p))

    def test_format_version_must_be_an_integer(self, tmp_path):
        p = self.edited(tmp_path, lambda doc: doc.update(format_version=True))
        with pytest.raises(ValueError, match=rf"{p}: unsupported format_version"):
            load_model(str(p))

    def test_components_must_be_a_list_of_objects(self, tmp_path):
        p = self.edited(tmp_path, lambda doc: doc.update(components={"a": 1}))
        with pytest.raises(ValueError, match=rf"{p}: 'components' must be a list of 2"):
            load_model(str(p))
        p = self.edited(tmp_path, lambda doc: doc["components"].__setitem__(1, [1.0]))
        with pytest.raises(ValueError, match=rf"{p}: a component is missing 'initial'"):
            load_model(str(p))

    def test_metadata_must_be_an_object(self, tmp_path):
        p = self.edited(tmp_path, lambda doc: doc.update(metadata=[1]))
        with pytest.raises(ValueError, match=rf"{p}: 'metadata' must be a JSON object"):
            load_model(str(p))

    @staticmethod
    def edited(tmp_path, edit):
        """A saved 2-node, 2-component model file after edit(doc)."""
        p = tmp_path / "m.json"
        save_model(tiny_model(np.random.default_rng(12)), str(p))
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        return p

    def test_alpha_beta_mismatch_rejected(self, tmp_path):
        rng = np.random.default_rng(9)
        p = tmp_path / "m.json"
        save_model(tiny_model(rng), str(p))
        doc = json.loads(p.read_text())
        doc["beta"] = [[5.0, 5.0], [5.0, 5.0]]
        p.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="reparameterization"):
            load_model(str(p))


class TestStandardization:
    def test_pooled_stats_and_apply(self):
        rng = np.random.default_rng(10)
        data = SequenceDataset([(1, rng.normal(3.0, 2.0, size=(50, 2))),
                                (2, rng.normal(3.0, 2.0, size=(50, 2)))])
        stats = standardization_stats(data)
        assert stats["per_node"] is False
        out = apply_standardization(data, stats)
        frames = out.frames()
        np.testing.assert_allclose(frames.mean(axis=0), 0.0, rtol=0, atol=1e-12)
        np.testing.assert_allclose(frames.std(axis=0), 1.0, rtol=0, atol=1e-12)

    def test_per_node_stats(self):
        rng = np.random.default_rng(11)
        data = SequenceDataset([(1, rng.normal(-5.0, 1.0, size=(40, 1))),
                                (2, rng.normal(5.0, 3.0, size=(40, 1)))])
        stats = standardization_stats(data, per_node=True)
        out = apply_standardization(data, stats)
        for item in out.items:
            np.testing.assert_allclose(item.seq.mean(), 0.0, rtol=0, atol=1e-12)
            np.testing.assert_allclose(item.seq.std(), 1.0, rtol=0, atol=1e-12)

    def test_constant_feature_named_in_error(self):
        rng = np.random.default_rng(12)
        seq = rng.normal(size=(20, 2))
        seq[:, 1] = 7.0
        data = SequenceDataset([(1, seq)])
        with pytest.raises(ValueError, match=r"feature\(s\) \[1\]"):
            standardization_stats(data)

    def test_per_node_missing_node_on_apply(self):
        rng = np.random.default_rng(13)
        train = SequenceDataset([(1, rng.normal(size=(20, 1)))])
        stats = standardization_stats(train, per_node=True)
        test = SequenceDataset([(2, rng.normal(size=(5, 1)))])
        with pytest.raises(ValueError, match="no entry for node 2"):
            apply_standardization(test, stats)

    def test_stats_file_roundtrip(self, tmp_path):
        rng = np.random.default_rng(14)
        data = SequenceDataset([(1, rng.normal(size=(30, 2)))])
        stats = standardization_stats(data)
        p = tmp_path / "stats.json"
        save_stats(stats, str(p))
        loaded = load_stats(str(p))
        assert loaded == stats

    def test_stats_file_validation(self, tmp_path):
        p = tmp_path / "stats.json"
        p.write_text('{"something": 1}\n')
        with pytest.raises(ValueError, match="not a standardization stats file"):
            load_stats(str(p))

    @pytest.mark.parametrize("per_node", [False, True])
    @pytest.mark.parametrize("edit, message", [
        (lambda e: e.pop("std"), "missing 'std'"),
        (lambda e: e.update(mean=[1.0, 2.0]), r"'mean' must hold 1 number\(s\)"),
        (lambda e: e.update(std=["1.0"]), "'std' must contain only numbers"),
        (lambda e: e.update(std=[0.0]), "'std' must be finite and > 0"),
    ], ids=["missing-std", "wide-mean", "string-std", "zero-std"])
    def test_stats_checked_on_apply(self, per_node, edit, message):
        rng = np.random.default_rng(16)
        data = SequenceDataset([(1, rng.normal(size=(6, 1))), (2, rng.normal(size=(6, 1)))])
        stats = standardization_stats(data, per_node=per_node)
        edit(stats["nodes"]["2"] if per_node else stats)
        where = " for node 2: " if per_node else ": "
        with pytest.raises(ValueError, match=rf"standardization stats{where}{message}"):
            apply_standardization(data, stats)

    def test_records_checked_once(self, monkeypatch):
        rng = np.random.default_rng(17)
        data = SequenceDataset([(1 + i % 2, rng.normal(size=(4, 2))) for i in range(50)])
        stats = standardization_stats(data, per_node=True)
        calls = []
        check_record = mixture.check_record
        monkeypatch.setattr(mixture, "check_record",
                            lambda *a, **k: calls.append(1) or check_record(*a, **k))
        out = apply_standardization(data, stats)
        assert not calls  # the 50 records were checked when data was built
        assert isinstance(out, SequenceDataset) and len(out) == 50
        assert [item.node for item in out.items] == [item.node for item in data.items]
        for item, raw in zip(out.items, data.items):
            mean, std = io.mean_std(stats, raw.node, 2)
            np.testing.assert_array_equal(item.seq, (raw.seq - mean) / std)

    def test_overflow_on_apply_names_the_record(self):
        data = SequenceDataset([(1, np.zeros((2, 1))), (1, np.array([[1e308], [0.0]]))])
        with pytest.raises(ValueError, match="item 1: sequence contains non-finite values"):
            apply_standardization(data, {"per_node": False, "mean": [-1e308], "std": [1.0]})

    @pytest.mark.parametrize("per_node, where", [(False, "in the pooled data"),
                                                 (True, "at node 1")])
    def test_overflowing_spread_named_in_error(self, per_node, where):
        seq = np.array([[1.0, 1.7e308], [2.0, -1.7e308], [3.0, 1.7e308]])
        data = SequenceDataset([(1, seq)])
        with pytest.raises(ValueError, match=rf"feature\(s\) \[1\] have a mean or spread "
                                             rf"beyond float range {where}; cannot standardize"):
            standardization_stats(data, per_node=per_node)

    def test_stats_must_be_an_object(self):
        data = SequenceDataset([(1, np.zeros((2, 1)))])
        with pytest.raises(ValueError, match="stats must be a JSON object"):
            apply_standardization(data, [1.0])
        with pytest.raises(ValueError, match="need a 'nodes' object"):
            apply_standardization(data, {"per_node": True, "nodes": [1]})


class TestOneStatsReader:
    """The whole stats document is checked where it is applied."""

    @pytest.mark.parametrize("flag", ["no", "false", 1, None],
                             ids=["no", "false-string", "one", "null"])
    def test_per_node_must_be_a_boolean(self, flag):
        data = SequenceDataset([(1, np.zeros((2, 1)))])
        stats = {"per_node": flag, "mean": [0.0], "std": [1.0], "nodes": {}}
        with pytest.raises(ValueError, match="standardization stats: 'per_node' must be "
                                             "true or false, got "):
            apply_standardization(data, stats)

    @pytest.mark.parametrize("stats", [
        {"mean": [1.0], "std": [2.0]},
        {"mean": [1.0], "std": [2.0], "per_node": False},
        {"per_node": True, "nodes": {"1": {"mean": [1.0], "std": [2.0]}}},
    ], ids=["absent", "false", "true"])
    def test_per_node_may_be_absent_true_or_false(self, stats):
        data = SequenceDataset([(1, np.array([[3.0], [5.0]]))])
        out = apply_standardization(data, stats)
        np.testing.assert_array_equal(out.items[0].seq, [[1.0], [2.0]])

    def test_entry_of_a_node_without_records_is_checked(self):
        data = SequenceDataset([(1, np.array([[0.0], [1.0]])), (2, np.array([[1.0], [3.0]]))])
        stats = standardization_stats(data, per_node=True)
        stats["nodes"]["3"] = {"mean": "x"}
        with pytest.raises(ValueError, match="standardization stats for node 3: 'mean' "
                                             "must contain only numbers"):
            apply_standardization(data, stats)
        with pytest.raises(ValueError, match="standardization stats for node 3: "):
            io.mean_std(stats, 1, 1)

    def test_mean_std_shares_the_missing_node_rule(self):
        stats = {"per_node": True, "nodes": {"1": {"mean": [0.0], "std": [1.0]}}}
        with pytest.raises(ValueError, match="^stats file has no entry for node 2$"):
            io.mean_std(stats, 2, 1)
        mean, std = io.mean_std(stats, 1, 1)
        assert mean.tolist() == [0.0] and std.tolist() == [1.0]

    def test_per_node_stats_keep_record_order_within_a_node(self):
        rng = np.random.default_rng(18)
        data = SequenceDataset([(3 - i % 3, rng.normal(size=(5 + i, 2)) * 1e3)
                                for i in range(9)])
        stats = standardization_stats(data, per_node=True)
        assert list(stats["nodes"]) == ["1", "2", "3"]
        for node in (1, 2, 3):
            alone = SequenceDataset([item for item in data.items if item.node == node])
            pooled = standardization_stats(alone)
            assert stats["nodes"][str(node)] == {"mean": pooled["mean"], "std": pooled["std"]}
