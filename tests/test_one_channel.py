"""Training warnings leave the library one way only.

Each EM step returns its warnings in its EmStep record and fit() joins them
into FitResult.warnings; the CLI prints them. A module that logged or
raised Python warnings, or printed, would be a second channel that callers
could not collect and would see twice, so this scan fails on any import of
``logging`` or ``warnings`` in src/graphhmm and on any call of ``print``
outside cli.py.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
BANNED_IMPORTS = {"logging", "warnings"}
PRINTERS = {"cli.py"}


def _second_channels(path: pathlib.Path):
    """(line, what) of each banned import or print call in one module."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
        else:
            modules = []
        for module in modules:
            if module.split(".")[0] in BANNED_IMPORTS:
                yield node.lineno, f"imports {module}"
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "print" and path.name not in PRINTERS):
            yield node.lineno, "calls print"


def test_no_module_logs_warns_or_prints():
    found = [f"{path.name}:{line}: {what}" for path in sorted(PACKAGE.glob("*.py"))
             for line, what in _second_channels(path)]
    assert found == []


def test_scan_sees_each_second_channel(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("import logging.handlers\nfrom warnings import warn\n"
                      "def f():\n    print('x')\n", encoding="utf-8")
    assert list(_second_channels(module)) == [
        (1, "imports logging.handlers"), (2, "imports warnings"), (4, "calls print")]
