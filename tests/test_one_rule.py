"""The integer rule for counts is written once, in hmm.check_count.

A count is a Python or numpy integer, not a bool, >= 1 (a seed >= 0), and
every count the library, the CLI and the scripts take goes through
check_count; TrainConfig and InitSpec use it for their fields and the grid
script builds those to check its knobs. A second copy of the rule drifts
from the first, so this scan fails on any comparison of a value with
``< 1`` (or ``1 >``) and on any spelling of the integer type test
(``isinstance(x, int)``, ``isinstance(x, (int, np.integer))``,
``type(x) is int``) outside the few places that own one: check_count
itself, validate_sequence's shape checks, io._count (the header rule of
the JSON files, which renders its value with json.dumps), io._model_from's
format_version test (a JSON integer equal to FORMAT_VERSION, not a count)
and the _write_canonical serializer.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
ALLOWED = {("hmm.py", "check_count"), ("hmm.py", "validate_sequence"),
           ("io.py", "_count"), ("io.py", "_model_from"), ("io.py", "_write_canonical")}


def _is_one(node) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == 1)


def _names_int(node) -> bool:
    """node names int, np.integer or numbers.Integral, alone or in a tuple."""
    parts = node.elts if isinstance(node, ast.Tuple) else [node]
    return any((isinstance(p, ast.Name) and p.id == "int")
               or (isinstance(p, ast.Attribute) and p.attr in ("integer", "Integral"))
               for p in parts)


def _is_type_call(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "type")


def _rule_spellings(tree: ast.Module):
    """(enclosing top-level definition, line) of each copy of the rule."""
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if isinstance(node, ast.Compare):
                operands = [node.left] + node.comparators
                for left, op, right in zip(operands, node.ops, operands[1:]):
                    if ((isinstance(op, ast.Lt) and _is_one(right))
                            or (isinstance(op, ast.Gt) and _is_one(left))
                            or (isinstance(op, (ast.Is, ast.IsNot, ast.Eq, ast.NotEq))
                                and _is_type_call(left) and _names_int(right))):
                        yield owner, node.lineno
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "isinstance" and len(node.args) == 2
                  and _names_int(node.args[1])):
                yield owner, node.lineno


def _copies(sources):
    return sorted((path.name, owner, line) for path in sources
                  for owner, line in _rule_spellings(ast.parse(path.read_text(encoding="utf-8")))
                  if (path.name, owner) not in ALLOWED)


def test_scan_covers_the_package_and_the_scripts():
    names = {path.name for path in SOURCES}
    assert {"hmm.py", "training.py", "cli.py", "grid_sweep.py"} <= names


def test_the_integer_rule_is_written_once():
    copies = _copies(SOURCES)
    assert not copies, f"count checks outside hmm.check_count: {copies}"


def test_the_scan_sees_each_spelling(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "def a(n):\n    return n < 1\n"
        "def b(n):\n    return 1 > n\n"
        "def c(n):\n    return isinstance(n, (int, np.integer))\n"
        "def d(n):\n    return type(n) is not int\n"
        "def e(n):\n    return isinstance(n, int)\n"
        "def f(n):\n    return n < 2 or n <= 1 or isinstance(n, float) or 1 <= n\n",
        encoding="utf-8")
    assert [owner for _, owner, _ in _copies([probe])] == ["a", "b", "c", "d", "e"]
