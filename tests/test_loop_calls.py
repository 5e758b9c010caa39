"""No numpy reduction wrapper runs inside the hottest sequential loops.

kernels._scaled_posteriors steps the E-step's recursions once per
timestep, kernels._tree_product multiplies one tree level of every
forecast's step matrices, training._kmeans runs Lloyd's iterations, and
hmm._chains draws one sampler step per forecast step, all on arrays so
small that numpy's per-call cost, not the arithmetic, sets their speed.
np.sum and np.mean add a Python wrapper around the ufunc reduction they
run (np.sum took about twice np.add.reduce's time on one fit-long row),
and argmin over the first axis of k-means' (k, N) table copies the table.
This scan fails when a sum, mean or argmin call, as a numpy function or as
an array method, sits inside a for or while loop of any of these
functions, so that the cost cannot creep back unseen.
"""

import ast
import pathlib

import graphhmm

PACKAGE = pathlib.Path(graphhmm.__file__).resolve().parent
LOOPS = {("kernels.py", "_scaled_posteriors"), ("kernels.py", "_tree_product"),
         ("training.py", "_kmeans"), ("hmm.py", "_chains")}
WRAPPERS = {"sum", "mean", "argmin"}


def _wrapper_calls_in_loops(func: ast.FunctionDef):
    """Sorted (line, callee) of each sum, mean or argmin call inside a loop of func."""
    found = set()
    for loop in ast.walk(func):
        if isinstance(loop, (ast.For, ast.While)):
            found.update((node.lineno, ast.unparse(node.func)) for node in ast.walk(loop)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                         and node.func.attr in WRAPPERS)
    return sorted(found)


def test_no_reduction_wrappers_in_hot_loops():
    found, seen = [], set()
    for module, name in sorted(LOOPS):
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.FunctionDef) and top.name == name:
                seen.add((module, name))
                found += [f"{module}:{line} {callee}"
                          for line, callee in _wrapper_calls_in_loops(top)]
    assert seen == LOOPS, f"functions not found: {sorted(LOOPS - seen)}"
    assert not found, f"reduction wrappers inside a hot loop: {found}"


def test_scan_sees_wrappers_in_nested_loops():
    tree = ast.parse("def f(x):\n"
                     "    for i in x:\n"
                     "        for j in i:\n"
                     "            j.mean(axis=0)\n"
                     "    np.sum(x)\n"
                     "    while x:\n"
                     "        np.argmin(x)\n")
    assert _wrapper_calls_in_loops(tree.body[0]) == [(4, "j.mean"), (7, "np.argmin")]
