"""A standardization stats document is read once, by io._stats_table.

The reader checks the whole document and returns every (mean, std) pair;
apply_standardization and mean_std look records up in its result. A second
reading of the document's keys drifts from the first, as ``per_node`` once
was read by truthiness and an entry was checked only when a record had its
node, so this scan fails on any read of the ``"per_node"`` or ``"nodes"``
key (a subscript, a ``.get`` or ``.pop``, or an ``in`` test) outside the
reader, standardization_stats, which writes those keys, and load_stats,
whose file-kind test is like load_graph's.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
KEYS = {"per_node", "nodes"}
ALLOWED = {("io.py", "_stats_table"), ("io.py", "standardization_stats"),
           ("io.py", "load_stats")}


def _is_key(node) -> bool:
    return isinstance(node, ast.Constant) and node.value in KEYS


def _reads(tree: ast.Module):
    """(enclosing top-level definition, line) of each read of a stats key."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Subscript) and _is_key(node.slice):
                yield owner, node.lineno
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
                    and node.func.attr in ("get", "pop") and node.args \
                    and _is_key(node.args[0]):
                yield owner, node.lineno
            elif isinstance(node, ast.Compare) and _is_key(node.left) and any(
                    isinstance(op, (ast.In, ast.NotIn)) for op in node.ops):
                yield owner, node.lineno


def _copies(sources):
    return sorted((path.name, owner, line) for path in sources
                  for owner, line in _reads(ast.parse(path.read_text(encoding="utf-8")))
                  if (path.name, owner) not in ALLOWED)


def test_scan_covers_the_package_and_the_scripts():
    names = {path.name for path in SOURCES}
    assert {"io.py", "cli.py", "grid_sweep.py"} <= names


def test_the_stats_document_is_read_once():
    copies = _copies(SOURCES)
    assert not copies, f"stats keys read outside io._stats_table: {copies}"


def test_the_scan_sees_each_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def a(stats):\n    return stats['nodes']['1']\n"
        "def b(stats):\n    return bool(stats.get('per_node'))\n"
        "def c(stats, node):\n    return str(node) in stats['nodes']\n"
        "def d(stats):\n    return 'per_node' not in stats\n"
        "def e(stats):\n    return stats.pop('nodes', None)\n"
        "def f(stats, key):\n"
        "    return stats[key], stats.get('mean'), 'std' in stats, {'nodes': 1}\n",
        encoding="utf-8")
    assert [owner for _, owner, _ in _copies([probe])] == ["a", "b", "c", "d", "e"]
