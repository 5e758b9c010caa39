"""The one-pass array rendering against the recursive writer it replaces.

io renders a non-empty float64 array in one format call, forcing a decimal
point onto the tokens of integral values only. The reference below is the
writer as it was before: it walks the array's nested lists and renders each
float on its own. Both must give the same bytes and, for a non-finite
entry, the same error.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphhmm import io
from graphhmm.mixture import (AffinityGraph, SequenceDataset, SparseMixtureModel,
                              reparameterize_rows)

from conftest import random_hmm

SETTINGS = settings(max_examples=120, derandomize=True, deadline=None)

EDGES = [0.0, -0.0, 1.0, -1.0, 1e15, 1e16, 1e17, -1e17, 2.0**53, 2.0**53 + 2,
         5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, -2.5e-300,
         0.1, 123456789.0, 4503599627370495.5, 99999999999999984.0]


def _reference_float(x) -> str:
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def _reference_write(obj, parts: list) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _reference_write(value, parts)
        parts.append("}")
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _reference_write(value, parts)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(_reference_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def reference_dumps(obj) -> str:
    parts = []
    _reference_write(obj, parts)
    return "".join(parts)


def assert_renders_as_reference(arr: np.ndarray) -> None:
    got = io.canonical_dumps(arr)
    assert got == reference_dumps(arr.tolist())
    assert [io.format_float(v) for v in arr.ravel()] == [
        _reference_float(v) for v in arr.ravel().tolist()]
    assert np.array_equal(np.array(json.loads(got)), arr)


@pytest.mark.parametrize("shape", [(19,), (19, 1), (1, 19), (19, 1, 1)])
def test_edge_values(shape):
    arr = np.array(EDGES).reshape(shape)
    assert_renders_as_reference(arr)
    assert_renders_as_reference(-arr)
    for value in EDGES:  # each alone, also as a 0-d array
        assert_renders_as_reference(np.array([value]))
        assert io.canonical_dumps(np.array(value)) == _reference_float(value)


def test_integral_tokens_get_a_point_and_others_do_not():
    arr = np.array([[1e16, 1e17], [-0.0, 2.0**53 + 2], [0.5, 3.0]])
    assert io.canonical_dumps(arr) == (
        "[[10000000000000000.0,1e+17],[-0.0,9007199254740994.0],[0.5,3.0]]")


def test_random_magnitudes():
    rng = np.random.default_rng(7)
    for shape in [(50, 2), (16, 16), (6, 16, 3), (1, 1), (300,)]:
        size = int(np.prod(shape))
        values = np.sign(rng.normal(size=size)) * 10.0 ** rng.uniform(-30, 30, size=size)
        values[::7] = np.round(values[::7])  # integral values, large and small
        assert_renders_as_reference(values.reshape(shape))


FLOATS = st.floats(allow_nan=False, allow_infinity=False)
DIMS = st.integers(1, 5)


@st.composite
def float_arrays(draw):
    t, d, s, m = (draw(DIMS) for _ in range(4))
    shape = draw(st.sampled_from([(1, 1), (t, d), (s, s), (m, s, d)]))
    return draw(arrays(np.float64, shape, elements=FLOATS | st.sampled_from(EDGES)))


@SETTINGS
@given(float_arrays())
def test_hypothesis_arrays(arr):
    assert_renders_as_reference(arr)
    assert_renders_as_reference(arr.T)  # a strided view renders in its logical order


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("at", [0, 4])
def test_non_finite_error(bad, at):
    values = np.arange(6.0)
    values[at] = bad
    values[5] = -bad  # a later non-finite entry is not the one named
    with pytest.raises(ValueError) as want:
        reference_dumps({"seq": values.reshape(3, 2).tolist()})
    with pytest.raises(ValueError) as got:
        io.canonical_dumps({"seq": values.reshape(3, 2)})
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("cannot serialize non-finite value ")


def test_saved_files_match_the_reference_writer(tmp_path):
    rng = np.random.default_rng(8)
    comps = [random_hmm(rng, 3, 2, sparse_transitions=True) for _ in range(2)]
    beta = np.array([[1.5, -0.5], [0.25, 2.0]])
    model = SparseMixtureModel(comps, reparameterize_rows(beta), beta)
    io.save_model(model, str(tmp_path / "model.json"), metadata={"objectives": [-1.0, 2.5]})
    stack = model.components
    doc = {"format_version": io.FORMAT_VERSION, "num_nodes": 2, "num_components": 2,
           "num_states": 3, "dim": 2, "alpha": model.alpha.tolist(), "beta": beta.tolist(),
           "components": [{"initial": stack.initial[m].tolist(),
                           "transition": stack.transition[m].tolist(),
                           "means": stack.means[m].tolist(),
                           "variances": stack.variances[m].tolist()} for m in range(2)],
           "metadata": {"objectives": [-1.0, 2.5]}}
    assert (tmp_path / "model.json").read_text(encoding="utf-8") == reference_dumps(doc) + "\n"

    weights = np.array([[0.0, 1.0, 0.5], [1.0, 0.0, 0.0], [0.5, 0.0, 0.0]])
    io.save_graph(AffinityGraph(weights), str(tmp_path / "graph.json"))
    assert (tmp_path / "graph.json").read_text(encoding="utf-8") == reference_dumps(
        {"num_nodes": 3, "weights": weights.tolist()}) + "\n"

    seqs = [rng.normal(size=(4, 2)) * 10.0 ** rng.integers(-5, 20) for _ in range(3)]
    seqs[1][0, 0] = 7.0
    io.save_dataset(SequenceDataset([(1, seqs[0], "normal"), (2, seqs[1]), (3, seqs[2])]),
                    str(tmp_path / "data.jsonl"))
    records = [{"node": 1, "seq": seqs[0].tolist(), "label": "normal"},
               {"node": 2, "seq": seqs[1].tolist()}, {"node": 3, "seq": seqs[2].tolist()}]
    assert (tmp_path / "data.jsonl").read_text(encoding="utf-8") == "".join(
        reference_dumps(rec) + "\n" for rec in records)
