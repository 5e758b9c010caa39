"""File formats: JSON Lines datasets, JSON graphs and models, stats files.

Every numeric field goes through one strict parser, _numbers: a JSON number
or rectangular nested lists of them, never strings, booleans, null or
objects. Header counts are JSON integers >= 1. Dataset records are checked
once, by SequenceDataset, and a failure is reported as path:line:.
Standardization stats are checked where they are applied.

Every output file is written by _write from a JSON document or CSV table
built whole, so one that fails to serialize leaves the target as it was;
datasets hold checked records only and are streamed. Every number goes
through one rule: a float has 17 significant digits (with a decimal point
forced so it never reparses as an int), a float64 array is rendered in one
format call to the same text, and a non-finite float is refused, except
that a CSV cell writes -inf as -inf (and None as an empty cell). JSON keys
keep a fixed order. Loading a file and saving it again reproduces the bytes
exactly, and a fixed-seed training run writes byte-identical output.
"""

import copy
import csv
from io import StringIO
from itertools import chain
import json

import numpy as np

from .hmm import GaussianHmm
from .mixture import AffinityGraph, RecordError, SequenceDataset, SparseMixtureModel

FORMAT_VERSION = 1


def _point(s: str) -> str:
    """s with ".0" appended when it has neither a decimal point nor an exponent."""
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def format_float(x: float) -> str:
    """17-significant-digit rendering that roundtrips exactly and always
    reparses as a float (a decimal point is forced onto integral values)."""
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return _point(format(float(x), ".17g"))


def _template(shape: tuple) -> str:
    """The nested brackets of an array of this shape, one %s per entry."""
    text = "%s"
    for width in reversed(shape):
        text = "[" + ",".join([text] * width) + "]"
    return text


def _format_array(arr: np.ndarray) -> str:
    """A non-empty float64 array as nested lists, each entry as format_float
    renders it: all entries in one format call, the decimal point forced on
    the tokens of integral values only."""
    flat = arr.ravel()
    finite = np.isfinite(flat)
    if not finite.all():
        raise ValueError(f"cannot serialize non-finite value {flat[~finite][0].item()!r}")
    tokens = (("%.17g\0" * flat.size)[:-1] % tuple(flat.tolist())).split("\0")
    for i in np.flatnonzero(flat == np.floor(flat)).tolist():
        tokens[i] = _point(tokens[i])
    return _template(arr.shape) % tuple(tokens)


def _write_canonical(obj, parts: list) -> None:
    if isinstance(obj, dict):
        parts.append("{")
        for i, (key, value) in enumerate(obj.items()):
            if i:
                parts.append(",")
            parts.append(json.dumps(key))
            parts.append(":")
            _write_canonical(value, parts)
        parts.append("}")
    elif isinstance(obj, np.ndarray) and obj.dtype == np.float64 and obj.size:
        parts.append(_format_array(obj))
    elif isinstance(obj, (list, tuple)):
        parts.append("[")
        for i, value in enumerate(obj):
            if i:
                parts.append(",")
            _write_canonical(value, parts)
        parts.append("]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif obj is None:
        parts.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def canonical_dumps(obj) -> str:
    parts = []
    _write_canonical(obj, parts)
    return "".join(parts)


def _write(path: str, pieces) -> None:
    """Write text that is already built; newline="" keeps each piece's line endings."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(pieces)


def save_json(doc, path: str) -> None:
    """Write doc canonically, one line; it is serialized before the file is opened."""
    _write(path, [canonical_dumps(doc), "\n"])


def save_csv(path: str, header: list, rows) -> None:
    """Write a header and rows of values with csv.writer (CRLF line ends), rendered
    before opening: a float as format_float writes it, -inf as -inf, None as empty."""
    def cell(value):
        if isinstance(value, (float, np.floating)):
            return "-inf" if value == -np.inf else format_float(value)
        return "" if value is None else value
    text = StringIO()
    csv.writer(text).writerows(map(cell, row) for row in chain([header], rows))
    _write(path, [text.getvalue()])


def _parse(text: str, where: str):
    try:
        return json.loads(text)
    except ValueError as exc:  # bad JSON, or an integer literal too long to convert
        raise ValueError(f"{where}: invalid JSON: {exc}") from None


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return _parse(fh.read(), path)


def _numbers(value, field: str) -> np.ndarray:
    """A parsed JSON number, or rectangular nested lists of them, as a float64 array.

    Strings, booleans, null and objects are not numbers, and lists that are
    ragged are rejected; the caller checks the shape.
    """
    shape, flat, types = [], [value], {type(value)}
    while types == {list}:  # descend one nesting level
        widths = set(map(len, flat))
        if len(widths) != 1:
            break
        shape.append(widths.pop())
        flat = list(chain.from_iterable(flat))
        types = set(map(type, flat))
    if list in types:  # rows of different widths, or lists beside numbers
        raise ValueError(f"'{field}' rows must share one non-zero width")
    if not types <= {int, float}:
        bad = next(v for v in flat if type(v) not in (int, float))
        shown = "an object" if type(bad) is dict else json.dumps(bad)
        raise ValueError(f"'{field}' must contain only numbers; {shown} is not a number")
    try:
        return np.array(flat, dtype=np.float64).reshape(shape)
    except OverflowError:
        raise ValueError(f"'{field}' holds an integer too large for a float") from None


def _count(doc: dict, key: str) -> int:
    """A header count: a JSON integer >= 1 (not a boolean, not 1.0)."""
    value = doc[key]
    if type(value) is not int or value < 1:
        raise ValueError(f"'{key}' must be an integer >= 1, got {json.dumps(value)}")
    return value


# ---------------------------------------------------------------------------
# datasets (JSON Lines: one {"node": ..., "seq": [[...]], "label": ...?} per line)

def load_dataset(path: str) -> SequenceDataset:
    """Parse a JSON Lines dataset; SequenceDataset checks each record once."""
    items, linenos = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            rec = _parse(line, f"{path}:{lineno}")
            if not isinstance(rec, dict) or "node" not in rec or "seq" not in rec:
                raise ValueError(f"{path}:{lineno}: record must be an object with "
                                 f"'node' and 'seq' fields")
            try:
                seq = _numbers(rec["seq"], "seq")
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            items.append((rec["node"], seq, rec.get("label")))
            linenos.append(lineno)
    try:
        return SequenceDataset(items)
    except RecordError as exc:
        raise ValueError(f"{path}:{linenos[exc.index]}: {exc.reason}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_dataset(dataset: SequenceDataset, path: str) -> None:
    def lines():
        for item in dataset.items:
            rec = {"node": item.node, "seq": item.seq}
            if item.label is not None:
                rec["label"] = item.label
            yield canonical_dumps(rec) + "\n"
    _write(path, lines())


# ---------------------------------------------------------------------------
# graphs

def load_graph(path: str, normalize: bool = False) -> AffinityGraph:
    doc = read_json(path)
    try:
        if not isinstance(doc, dict) or "num_nodes" not in doc or "weights" not in doc:
            raise ValueError("graph file must contain 'num_nodes' and 'weights'")
        k = _count(doc, "num_nodes")
        weights = _numbers(doc["weights"], "weights")
        if weights.shape != (k, k):
            raise ValueError(f"'weights' must be {k}x{k}, got shape {weights.shape}")
        graph = AffinityGraph(weights)
        return graph.normalized() if normalize else graph
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_graph(graph: AffinityGraph, path: str) -> None:
    save_json({"num_nodes": graph.num_nodes, "weights": graph.weights}, path)


# ---------------------------------------------------------------------------
# models

def save_model(model: SparseMixtureModel, path: str, metadata: dict = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "num_nodes": model.num_nodes,
        "num_components": model.num_components,
        "num_states": model.num_states,
        "dim": model.dim,
        "alpha": model.alpha,
        "beta": model.beta,
        "components": [
            {
                "initial": c.initial,
                "transition": c.transition,
                "means": c.means,
                "variances": c.variances,
            }
            for c in model.components
        ],
        "metadata": metadata if metadata is not None else {},
    }
    save_json(doc, path)


def load_model(path: str):
    """Load a model file. Returns (model, metadata)."""
    doc = read_json(path)
    try:
        return _model_from(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _model_from(doc):
    if not isinstance(doc, dict):
        raise ValueError("model file must be a JSON object")
    version = doc.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {version!r}, expected {FORMAT_VERSION}")
    for key in ("num_nodes", "num_components", "num_states", "dim",
                "alpha", "components"):
        if key not in doc:
            raise ValueError(f"missing required field '{key}'")
    k, m, s, d = (_count(doc, key) for key in ("num_nodes", "num_components",
                                                "num_states", "dim"))
    alpha = _numbers(doc["alpha"], "alpha")
    if alpha.shape != (k, m):
        raise ValueError(f"alpha must be {k}x{m}, got {alpha.shape}")
    beta = doc.get("beta")
    if beta is not None:
        beta = _numbers(beta, "beta")
        if beta.shape != (k, m):
            raise ValueError(f"beta must be {k}x{m}, got {beta.shape}")
    components = doc["components"]
    if not isinstance(components, list) or len(components) != m:
        raise ValueError(f"'components' must be a list of {m} objects")
    arrays = []
    for key, shape in (("initial", (s,)), ("transition", (s, s)),
                       ("means", (s, d)), ("variances", (s, d))):
        if not all(isinstance(comp, dict) and key in comp for comp in components):
            raise ValueError(f"a component is missing '{key}'")
        arrs = [_numbers(comp[key], key) for comp in components]
        if any(arr.shape != shape for arr in arrs):
            raise ValueError(f"the components' '{key}' arrays must be "
                             f"{'x'.join(map(str, (m,) + shape))} as the header declares")
        arrays.append(np.stack(arrs))
    metadata = doc.get("metadata", {})
    if not isinstance(metadata, dict):
        raise ValueError("'metadata' must be a JSON object")
    return SparseMixtureModel(GaussianHmm(*arrays), alpha, beta), metadata


# ---------------------------------------------------------------------------
# standardization

def standardization_stats(dataset: SequenceDataset, per_node: bool = False) -> dict:
    """Pooled (or per-node) per-feature mean and standard deviation.

    A feature whose spread is effectively zero, or whose mean or spread
    overflows, cannot be standardized; the error names it by index.
    """
    def stats_of(frames: np.ndarray, where: str) -> dict:
        with np.errstate(all="ignore"):  # an overflow leaves a non-finite std, refused below
            mean, std = frames.mean(axis=0), frames.std(axis=0)
        bad = np.flatnonzero(std < 1e-12)
        if bad.size:
            raise ValueError(f"feature(s) {[int(b) for b in bad]} are constant {where}; "
                             f"cannot standardize")
        bad = np.flatnonzero(~np.isfinite(std))
        if bad.size:
            raise ValueError(f"feature(s) {[int(b) for b in bad]} have a mean or spread "
                             f"beyond float range {where}; cannot standardize")
        return {"mean": [float(v) for v in mean], "std": [float(v) for v in std]}

    if not per_node:
        out = stats_of(dataset.frames(), "in the pooled data")
        out["per_node"] = False
        return out
    nodes = sorted({item.node for item in dataset.items})
    per = {}
    for node in nodes:
        frames = np.concatenate([item.seq for item in dataset.items if item.node == node])
        per[str(node)] = stats_of(frames, f"at node {node}")
    return {"per_node": True, "nodes": per}


def mean_std(stats: dict, node: int, dim: int) -> tuple:
    """Checked (mean, std) that standardize a record at node: the pooled
    stats, or its node's entry when the stats are per node.

    Both hold dim numbers; mean is finite and std finite and > 0.
    """
    if not stats.get("per_node"):
        entry, where = stats, "standardization stats"
    elif str(node) in stats["nodes"]:
        entry, where = stats["nodes"][str(node)], f"standardization stats for node {node}"
    else:
        raise ValueError(f"stats file has no entry for node {node}")
    try:
        if not isinstance(entry, dict):
            raise ValueError("must be a JSON object")
        arrays = []
        for key in ("mean", "std"):
            if key not in entry:
                raise ValueError(f"missing '{key}'")
            arr = _numbers(entry[key], key)
            if arr.shape != (dim,):
                raise ValueError(f"'{key}' must hold {dim} number(s), one per feature, "
                                 f"got shape {arr.shape}")
            arrays.append(arr)
        mean, std = arrays
        if not np.all(np.isfinite(mean)):
            raise ValueError("'mean' must be finite")
        if not np.all(np.isfinite(std) & (std > 0.0)):
            raise ValueError("'std' must be finite and > 0")
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None
    return mean, std


def apply_standardization(dataset: SequenceDataset, stats: dict) -> SequenceDataset:
    """(x - mean) / std per record, with the pooled stats or those of its node.

    The stats are checked here, against the dataset's dimension, whether they
    come from a stats file or from a model's metadata. The records were
    checked once, so only the new values are, for overflow.
    """
    if not isinstance(stats, dict):
        raise ValueError("standardization stats must be a JSON object")
    per_node = bool(stats.get("per_node"))
    if per_node and not isinstance(stats.get("nodes"), dict):
        raise ValueError("per-node standardization stats need a 'nodes' object")
    checked = {}
    items = []
    for i, item in enumerate(dataset.items):
        key = item.node if per_node else None  # pooled stats are checked once
        if key not in checked:
            checked[key] = mean_std(stats, item.node, dataset.dim)
        mean, std = checked[key]
        with np.errstate(over="ignore"):  # an overflow is refused just below
            seq = (item.seq - mean) / std
        if not np.all(np.isfinite(seq)):
            raise RecordError(i, "sequence contains non-finite values")
        items.append(item._replace(seq=seq))
    out = copy.copy(dataset)
    out.items = items
    return out


def save_stats(stats: dict, path: str) -> None:
    save_json(stats, path)


def load_stats(path: str) -> dict:
    stats = read_json(path)
    if not isinstance(stats, dict) or ("mean" not in stats and "nodes" not in stats):
        raise ValueError(f"{path}: not a standardization stats file")
    return stats
