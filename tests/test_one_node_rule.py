"""The node-id rule is written once, in mixture.check_node.

Every node of the graph owns one mixing row, so a node id must lie in
[1..K]. check_node(node, num_nodes) is that rule; scoring, sampling,
conditioning, fit and both baselines call it. A second copy of the rule
drifts from the first, as the baselines once took ids above K without an
error, so this scan fails on any raise whose message names a ``node id``
and on any comparison with ``max_node`` (the dataset's largest id) outside
check_node itself.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
ALLOWED = {("mixture.py", "check_node")}


def _names_node_id(node) -> bool:
    """node holds a string literal (plain or f-string part) naming a node id."""
    return any(isinstance(part, ast.Constant) and isinstance(part.value, str)
               and "node id" in part.value for part in ast.walk(node))


def _is_max_node(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "max_node")
            or (isinstance(node, ast.Attribute) and node.attr == "max_node"))


def _rule_spellings(tree: ast.Module):
    """(enclosing top-level definition, line) of each copy of the rule."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Raise) and node.exc is not None \
                    and _names_node_id(node.exc):
                yield owner, node.lineno
            elif isinstance(node, ast.Compare) and any(
                    _is_max_node(operand) for operand in [node.left] + node.comparators):
                yield owner, node.lineno


def _copies(sources):
    return sorted((path.name, owner, line) for path in sources
                  for owner, line in _rule_spellings(ast.parse(path.read_text(encoding="utf-8")))
                  if (path.name, owner) not in ALLOWED)


def test_scan_covers_the_package_and_the_scripts():
    names = {path.name for path in SOURCES}
    assert {"mixture.py", "training.py", "forecast.py", "cli.py", "grid_sweep.py"} <= names


def test_the_node_rule_is_written_once():
    copies = _copies(SOURCES)
    assert not copies, f"node-id checks outside mixture.check_node: {copies}"


def test_the_scan_sees_each_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def a(n, k):\n    raise ValueError(f'node id {n} out of range [1..{k}]')\n"
        "def b(data, k):\n    return data.max_node > k\n"
        "def c(max_node, k):\n    return k < max_node\n"
        "def d(n):\n    raise ValueError('bad node id')\n"
        "def e(n, k):\n"
        "    if n > k:\n        raise ValueError(f'node {n} has no data')\n"
        "    return check_count(n, 'node id', minimum=None)\n",
        encoding="utf-8")
    assert [owner for _, owner, _ in _copies([probe])] == ["a", "b", "c", "d"]
