"""Property checks of the strict number parser behind every loader.

Each loader gets random JSON in one numeric field. It must either return
exactly the numbers as float64, or raise ValueError whose message starts
with the file's path; any other exception fails the property. A value that
is not a number or rectangular nested lists of numbers must never load.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphhmm.io import load_dataset, load_graph, load_model, save_model
from graphhmm.mixture import SparseMixtureModel

from conftest import random_hmm

SETTINGS = settings(max_examples=80, derandomize=True, deadline=None)

NON_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=3),
                        st.dictionaries(st.text(max_size=2), st.integers(), max_size=2))
NUMBERS = st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False))
SMALL_NUMBERS = st.one_of(st.integers(-1000, 1000),
                          st.floats(-1e6, 1e6, allow_nan=False))
JSON_VALUES = st.recursive(
    st.one_of(NUMBERS, NON_NUMBERS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=2), inner, max_size=2),
    max_leaves=12)


def grids(rows, cols, entries=SMALL_NUMBERS):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


@st.composite
def spoiled(draw, grid):
    """A valid grid with one entry replaced by a non-number, e.g. [[1, true]]."""
    rows = [list(row) for row in draw(grid)]
    i = draw(st.integers(0, len(rows) - 1))
    j = draw(st.integers(0, len(rows[i]) - 1))
    rows[i][j] = draw(NON_NUMBERS)
    return rows


def numbers_only(value) -> bool:
    """A JSON number or rectangular nested lists of them (the reference rule)."""
    if type(value) in (int, float):
        return True
    if type(value) is not list or not all(numbers_only(v) for v in value):
        return False
    return len({np.shape(v) for v in value}) <= 1


def check(path, value, load):
    try:
        got = load()
    except ValueError as exc:
        assert str(exc).startswith(str(path))
        return
    assert numbers_only(value), f"{value!r} loaded as {got!r}"
    assert got.dtype == np.float64
    np.testing.assert_array_equal(got, np.array(value, dtype=np.float64))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("props")


@pytest.fixture(scope="module")
def model_doc(workdir):
    rng = np.random.default_rng(0)
    model = SparseMixtureModel([random_hmm(rng, 2, 2) for _ in range(2)],
                               [[0.5, 0.5], [0.25, 0.75]])
    path = workdir / "base.json"
    save_model(model, str(path))
    return json.loads(path.read_text())


@st.composite
def symmetric_weights(draw):
    k = draw(st.integers(1, 3))
    w = [[0.0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            w[i][j] = w[j][i] = draw(SMALL_NUMBERS)
    return w


ALPHA_ROWS = st.sampled_from([[1, 0], [0, 1], [0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])


@SETTINGS
@given(value=st.one_of(JSON_VALUES, grids(2, 2), spoiled(grids(2, 3)),
                       st.integers(1, 3).flatmap(lambda t: grids(t, 2))))
def test_seq(workdir, value):
    path = workdir / "d.jsonl"
    path.write_text(json.dumps({"node": 1, "seq": value}) + "\n")
    check(path, value, lambda: load_dataset(str(path)).items[0].seq)


@SETTINGS
@given(value=st.one_of(JSON_VALUES, symmetric_weights(), spoiled(symmetric_weights())))
def test_graph_weights(workdir, value):
    path = workdir / "g.json"
    k = len(value) if isinstance(value, list) and value else 1
    path.write_text(json.dumps({"num_nodes": k, "weights": value}))
    check(path, value, lambda: load_graph(str(path)).weights)


@SETTINGS
@given(value=st.one_of(JSON_VALUES, st.lists(ALPHA_ROWS, min_size=2, max_size=2),
                       spoiled(st.lists(ALPHA_ROWS, min_size=2, max_size=2))))
def test_model_alpha(workdir, model_doc, value):
    path = workdir / "alpha.json"
    path.write_text(json.dumps(dict(model_doc, alpha=value)))
    check(path, value, lambda: load_model(str(path))[0].alpha)


@SETTINGS
@given(value=st.one_of(JSON_VALUES, grids(2, 2, NUMBERS), spoiled(grids(2, 2))))
def test_component_means(workdir, model_doc, value):
    path = workdir / "means.json"
    components = [dict(model_doc["components"][0], means=value), model_doc["components"][1]]
    path.write_text(json.dumps(dict(model_doc, components=components)))
    check(path, value, lambda: load_model(str(path))[0].components.means[0])
