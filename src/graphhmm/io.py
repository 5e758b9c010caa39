"""File formats: JSON Lines datasets, JSON graphs and models, stats files.

Model and stats files are written canonically: keys in a fixed order and
every float rendered with 17 significant digits (with a decimal point forced
so floats never reparse as ints). Loading a file and saving it again
reproduces the bytes exactly, and a fixed-seed training run writes
byte-identical output every time.
"""

import json

import numpy as np

from .hmm import GaussianHmm
from .mixture import AffinityGraph, SequenceDataset, SparseMixtureModel, check_record

FORMAT_VERSION = 1


def format_float(x: float) -> str:
    """17-significant-digit rendering that roundtrips exactly and always
    reparses as a float (a decimal point is forced onto integral values)."""
    if not np.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    s = format(float(x), ".17g")
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


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


def _float_rows(arr: np.ndarray) -> list:
    return np.asarray(arr, dtype=np.float64).tolist()


# ---------------------------------------------------------------------------
# datasets (JSON Lines: one {"node": ..., "seq": [[...]], "label": ...?} per line)

def load_dataset(path: str) -> SequenceDataset:
    """Parse a JSON Lines dataset; check_record checks each record."""
    items = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}:{lineno}: invalid JSON: {exc}") from None
            if not isinstance(rec, dict) or "node" not in rec or "seq" not in rec:
                raise ValueError(f"{path}:{lineno}: record must be an object with "
                                 f"'node' and 'seq' fields")
            seq = rec["seq"]
            if (not isinstance(seq, list) or not seq
                    or not all(isinstance(row, list) for row in seq)):
                raise ValueError(f"{path}:{lineno}: 'seq' must be a non-empty list of rows")
            widths = {len(row) for row in seq}
            if len(widths) != 1 or 0 in widths:
                raise ValueError(f"{path}:{lineno}: 'seq' rows must share one non-zero width")
            try:
                arr = np.array(seq, dtype=np.float64)
            except (TypeError, ValueError):
                raise ValueError(f"{path}:{lineno}: 'seq' must contain only numbers") from None
            dim = items[0].seq.shape[1] if items else None
            try:
                items.append(check_record(rec["node"], arr, rec.get("label"), dim))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    if not items:
        raise ValueError(f"{path}: dataset contains no sequences")
    return SequenceDataset(items)


def save_dataset(dataset: SequenceDataset, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for item in dataset.items:
            rec = {"node": item.node, "seq": _float_rows(item.seq)}
            if item.label is not None:
                rec["label"] = item.label
            fh.write(canonical_dumps(rec))
            fh.write("\n")


# ---------------------------------------------------------------------------
# graphs

def load_graph(path: str, normalize: bool = False) -> AffinityGraph:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict) or "num_nodes" not in doc or "weights" not in doc:
        raise ValueError(f"{path}: graph file must contain 'num_nodes' and 'weights'")
    k = doc["num_nodes"]
    if not isinstance(k, int) or k < 1:
        raise ValueError(f"{path}: 'num_nodes' must be a positive integer")
    weights = np.asarray(doc["weights"], dtype=np.float64)
    if weights.shape != (k, k):
        raise ValueError(f"{path}: 'weights' must be {k}x{k}, got shape {weights.shape}")
    try:
        graph = AffinityGraph(weights)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    return graph.normalized() if normalize else graph


def save_graph(graph: AffinityGraph, path: str) -> None:
    doc = {"num_nodes": graph.num_nodes, "weights": _float_rows(graph.weights)}
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")


# ---------------------------------------------------------------------------
# models

def save_model(model: SparseMixtureModel, path: str, metadata: dict = None) -> None:
    doc = {
        "format_version": FORMAT_VERSION,
        "num_nodes": model.num_nodes,
        "num_components": model.num_components,
        "num_states": model.num_states,
        "dim": model.dim,
        "alpha": _float_rows(model.alpha),
        "beta": None if model.beta is None else _float_rows(model.beta),
        "components": [
            {
                "initial": _float_rows(c.initial),
                "transition": _float_rows(c.transition),
                "means": _float_rows(c.means),
                "variances": _float_rows(c.variances),
            }
            for c in model.components
        ],
        "metadata": metadata if metadata is not None else {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(doc))
        fh.write("\n")


def load_model(path: str):
    """Load a model file. Returns (model, metadata)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model file must be a JSON object")
    if doc.get("format_version") != FORMAT_VERSION:
        raise ValueError(f"{path}: unsupported format_version "
                         f"{doc.get('format_version')!r}, expected {FORMAT_VERSION}")
    for key in ("num_nodes", "num_components", "num_states", "dim",
                "alpha", "components"):
        if key not in doc:
            raise ValueError(f"{path}: missing required field '{key}'")
    k, m = doc["num_nodes"], doc["num_components"]
    s, d = doc["num_states"], doc["dim"]
    alpha = np.asarray(doc["alpha"], dtype=np.float64)
    if alpha.shape != (k, m):
        raise ValueError(f"{path}: alpha must be {k}x{m}, got {alpha.shape}")
    beta = doc.get("beta")
    if beta is not None:
        beta = np.asarray(beta, dtype=np.float64)
        if beta.shape != (k, m):
            raise ValueError(f"{path}: beta must be {k}x{m}, got {beta.shape}")
    arrays = []
    for key, shape in (("initial", (m, s)), ("transition", (m, s, s)),
                       ("means", (m, s, d)), ("variances", (m, s, d))):
        try:
            arr = np.asarray([comp[key] for comp in doc["components"]], dtype=np.float64)
        except KeyError:
            raise ValueError(f"{path}: a component is missing '{key}'") from None
        except (TypeError, ValueError):
            arr = None  # ragged or not numbers
        if arr is None or arr.shape != shape:
            raise ValueError(f"{path}: the components' '{key}' arrays must be "
                             f"{'x'.join(map(str, shape))} as the header declares")
        arrays.append(arr)
    try:
        model = SparseMixtureModel(GaussianHmm(*arrays), alpha, beta)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    metadata = doc.get("metadata", {})
    return model, metadata


# ---------------------------------------------------------------------------
# standardization

def standardization_stats(dataset: SequenceDataset, per_node: bool = False) -> dict:
    """Pooled (or per-node) per-feature mean and standard deviation.

    A feature whose spread is effectively zero cannot be standardized and is
    reported by index in the error.
    """
    def stats_of(frames: np.ndarray, where: str) -> dict:
        mean = frames.mean(axis=0)
        std = frames.std(axis=0)
        bad = np.flatnonzero(std < 1e-12)
        if bad.size:
            raise ValueError(f"feature(s) {[int(b) for b in bad]} are constant {where}; "
                             f"cannot standardize")
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


def apply_standardization(dataset: SequenceDataset, stats: dict) -> SequenceDataset:
    items = []
    if stats.get("per_node"):
        per = stats["nodes"]
        for item in dataset.items:
            key = str(item.node)
            if key not in per:
                raise ValueError(f"stats file has no entry for node {item.node}")
            mean = np.asarray(per[key]["mean"], dtype=np.float64)
            std = np.asarray(per[key]["std"], dtype=np.float64)
            items.append((item.node, (item.seq - mean) / std, item.label))
    else:
        mean = np.asarray(stats["mean"], dtype=np.float64)
        std = np.asarray(stats["std"], dtype=np.float64)
        for item in dataset.items:
            items.append((item.node, (item.seq - mean) / std, item.label))
    return SequenceDataset(items)


def save_stats(stats: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_dumps(stats))
        fh.write("\n")


def load_stats(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            stats = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(stats, dict) or ("mean" not in stats and "nodes" not in stats):
        raise ValueError(f"{path}: not a standardization stats file")
    return stats
