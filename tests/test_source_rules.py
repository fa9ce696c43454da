"""Rules on the package source that no single behaviour test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oddchern"

# Functions outside dual.py that may read a Dual's derivative array: the
# matrix packer, and verify's two helpers that insert matrix axes behind the
# direction axis, which Dual arithmetic does not do for a wider operand.
EPS_READERS = {("maps.py", "pack_matrix"),
               ("verify.py", "_matrix_axes_first"), ("verify.py", "_matrix_entry")}


def eps_reads(path):
    """(file name, innermost enclosing function) of every .eps attribute."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "eps":
            found.append((path.name, func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(path.read_text()), None)
    return found


def test_dual_eps_is_read_only_in_dual_and_the_matrix_packers():
    reads = [r for path in sorted(SRC.glob("*.py")) if path.name != "dual.py"
             for r in eps_reads(path)]
    assert {(name, func) for name, func, _ in reads} <= EPS_READERS, reads
