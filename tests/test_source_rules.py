"""Rules on the package source that no single behaviour test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oddchern"

# The one function outside dual.py that may read a Dual's derivative array:
# the matrix packer, which lays the jet out as the forms' blocks.
EPS_READERS = {("maps.py", "pack_matrix")}


def package_nodes():
    """(file name, innermost enclosing function, node) of every ast node
    in the package outside dual.py."""
    found = []

    def visit(path, node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        found.append((path.name, func, node))
        for child in ast.iter_child_nodes(node):
            visit(path, child, func)

    for path in sorted(SRC.glob("*.py")):
        if path.name != "dual.py":
            visit(path, ast.parse(path.read_text()), None)
    return found


def test_dual_eps_is_read_only_in_dual_and_the_matrix_packers():
    reads = [(name, func, node.lineno) for name, func, node in package_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "eps"]
    assert {(name, func) for name, func, _ in reads} <= EPS_READERS, reads


def test_duals_are_constructed_only_in_dual():
    # seed_all is the one way to make a Dual; every other Dual is the result
    # of dual.py's operations on seeded ones.
    calls = [(name, func, node.lineno) for name, func, node in package_nodes()
             if isinstance(node, ast.Call)
             and (isinstance(node.func, ast.Attribute) and node.func.attr == "Dual"
                  or isinstance(node.func, ast.Name) and node.func.id == "Dual")]
    assert calls == []
