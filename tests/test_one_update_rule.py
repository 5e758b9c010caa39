"""Every closed-form EM update is written once, in training._updated.

Plain mode's mixing rows and the components' initial, transition, mean and
variance rows all follow one rule: the ratio of their sums where the
denominator is live, and the old row where it is not. _updated copies the
old array and assigns the ratio at the live mask; a second copy of that
masked assignment is a second place for the rule to drift, so this scan
fails on any subscript assignment in the package whose value divides a
subscript with the same index (``x[m] = num[m] / den[m, None]``, or the
same through np.divide) outside _updated.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
SOURCES = sorted(PACKAGE.glob("*.py"))
ALLOWED = {("training.py", "_updated")}


def _dividend(node):
    """The expression node divides, or None when node is no division."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
        return node.left
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("divide", "true_divide") and node.args):
        return node.args[0]
    return None


def _masked_ratios(tree: ast.Module):
    """(enclosing top-level definition, line) of each masked closed-form assignment."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not (isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            indexes = {ast.dump(t.slice) for t in targets if isinstance(t, ast.Subscript)}
            dividend = _dividend(node.value)
            if (indexes and isinstance(dividend, ast.Subscript)
                    and ast.dump(dividend.slice) in indexes):
                yield owner, node.lineno


def _copies(sources):
    return sorted((path.name, owner, line) for path in sources
                  for owner, line in _masked_ratios(ast.parse(path.read_text(encoding="utf-8")))
                  if (path.name, owner) not in ALLOWED)


def test_scan_covers_the_package():
    assert {"training.py", "mixture.py", "hmm.py"} <= {path.name for path in SOURCES}


def test_the_update_rule_is_written_once():
    copies = _copies(SOURCES)
    assert not copies, f"masked closed-form assignments outside training._updated: {copies}"


def test_the_rule_itself_is_seen_by_the_scan():
    path = PACKAGE / "training.py"
    found = list(_masked_ratios(ast.parse(path.read_text(encoding="utf-8"))))
    assert [owner for owner, _ in found] == ["_updated"]


def test_the_scan_sees_each_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def a(x, n, d, m):\n    x[m] = n[m] / d[m, None]\n"
        "def b(x, n, d, m):\n    x[m] = n[m] / d[m][:, None]\n"
        "def c(x, n, d, m):\n    x[m]: float = n[m] / d\n"
        "def d(x, n, d, m):\n    x[m] = np.divide(n[m], d[m, None])\n"
        "def e(x, y, n, d, m):\n    x[m] = y[m] = n[m] / 2.0\n"
        "def f(x, n, d, m, k):\n"
        "    x[m] = n[k] / d[m]\n    x[m] = n.sum() / d[m]\n"
        "    x[m] = n[m] * d[m]\n    y = n[m] / d[m]\n    x[m] /= d[m]\n",
        encoding="utf-8")
    assert [owner for _, owner, _ in _copies([probe])] == ["a", "b", "c", "d", "e"]


def test_one_mask_per_kind_of_kept_parameter():
    # live components, their updated transition rows, their updated emission states
    tree = ast.parse((PACKAGE / "training.py").read_text(encoding="utf-8"))
    body = next(node for node in tree.body
                if getattr(node, "name", None) == "_reestimate_components")
    masks = [target.id for node in ast.walk(body) if isinstance(node, ast.Assign)
             for target in node.targets
             if any(isinstance(part, ast.Name) and part.id == "RESPONSIBILITY_EPS"
                    for part in ast.walk(node.value))]
    assert masks == ["live", "rows", "states"]
