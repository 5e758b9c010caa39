"""Only graphhmm.io opens files for writing.

io builds each output document whole before it opens the target, so a
document that fails to serialize leaves an existing file as it was. A
write-mode open anywhere else in src/graphhmm or scripts/ would bypass
that, so this scan allows io.py exactly one and every other file none.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _write_opens(tree: ast.Module):
    """Line numbers of open(...) calls with a constant mode that writes, appends or creates."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "open":
            continue
        args = node.args + [kw.value for kw in node.keywords if kw.arg == "mode"]
        modes = [a.value for a in args if isinstance(a, ast.Constant)
                 and isinstance(a.value, str) and a.value and set(a.value) <= set("rwaxbt+")]
        if any(set(mode) & set("wax+") for mode in modes):
            yield node.lineno


def test_io_is_the_only_writer():
    paths = sorted(PACKAGE.glob("*.py")) + sorted(SCRIPTS.glob("*.py"))
    found = {path: list(_write_opens(ast.parse(path.read_text(encoding="utf-8"))))
             for path in paths}
    assert len(found.pop(PACKAGE / "io.py")) == 1
    stray = [f"{path.name}:{line}" for path, lines in found.items() for line in lines]
    assert not stray, f"write-mode open outside graphhmm.io: {stray}"
