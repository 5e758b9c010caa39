"""Only graphhmm.io turns a number into file text.

io renders every number it writes by one rule: 17 significant digits with
a forced decimal point, -inf in a CSV cell as -inf, any other non-finite
float refused. A caller that formats its own numbers (and hands io text)
would let one file drift from the rule, as the grid sweep's CSV once
wrote Python's shortest repr, so this scan fails on any mention of
format_float in src/graphhmm or scripts/ outside io.py.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _mentions(tree: ast.Module):
    """Line numbers that name format_float: a name, an attribute or an import."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "format_float" \
                or isinstance(node, ast.Attribute) and node.attr == "format_float":
            yield node.lineno
        elif isinstance(node, (ast.Import, ast.ImportFrom)) \
                and any(alias.name == "format_float" for alias in node.names):
            yield node.lineno


def test_io_is_the_only_number_formatter():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
             if p != PACKAGE / "io.py"]
    stray = [f"{path.name}:{line}" for path in paths
             for line in _mentions(ast.parse(path.read_text(encoding="utf-8")))]
    assert not stray, f"format_float named outside graphhmm.io: {stray}"
