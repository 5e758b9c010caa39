"""Every private module-level name in the package must still be used.

A private function, class or constant (a leading underscore) is reachable
only from inside the package, so one that no other code in src/graphhmm
names is dead: usually a helper left behind when its last caller moved to
shared code. References inside the definition itself do not count.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent


def _private_definitions(tree: ast.Module):
    """(name, node) of each private module-level def, class and assigned constant."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node


def _referenced_names(node: ast.AST):
    """Every name node reads: bare names, attributes and names imported from a module."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.ImportFrom):
            yield from (alias.name for alias in sub.names)


def test_every_private_helper_is_referenced():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    counts = {}
    for tree in trees.values():
        for name in _referenced_names(tree):
            counts[name] = counts.get(name, 0) + 1
    dead = []
    for module, tree in trees.items():
        for name, node in _private_definitions(tree):
            inside = sum(1 for ref in _referenced_names(node) if ref == name)
            if counts.get(name, 0) - inside < 1:
                dead.append(f"{module}:{node.lineno} {name}")
    assert not dead, f"private names referenced nowhere else in the package: {dead}"
