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


# scenarios.py's key readers: (cfg, key, ...) helpers, and _build_generator,
# whose prefix argument stands for these fields.
KEY_READERS = {"_get_int", "_get_positive_float"}
GENERATOR_FIELDS = ("kind", "size", "m")


def _literal(node):
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def _is_cfg(node):
    return isinstance(node, ast.Name) and node.id == "cfg"


def scenario_reads(source):
    """{function name: (literal keys it reads, names it calls)} over the
    top-level functions of scenarios.py's source."""
    out = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef):
            continue
        keys, called = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                called.add(node.func.id)
                arg = _literal(node.args[1]) if len(node.args) > 1 else None
                if arg and node.func.id in KEY_READERS:
                    keys.add(arg)
                elif arg and node.func.id == "_build_generator":
                    keys.update(f"{arg}.{name}" for name in GENERATOR_FIELDS)
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr == "get" and _is_cfg(node.func.value)
                  and node.args and _literal(node.args[0])):
                keys.add(node.args[0].value)
            elif (isinstance(node, ast.Compare) and _literal(node.left)
                  and isinstance(node.ops[0], ast.In) and _is_cfg(node.comparators[0])):
                keys.add(node.left.value)
            elif isinstance(node, ast.Subscript) and _is_cfg(node.value) and _literal(node.slice):
                keys.add(node.slice.value)
        out[fn.name] = keys, called
    return out


def key_table_mismatches(source):
    """{kind: (keys its runner reads but _DISPATCH does not declare, keys
    declared but never read)} for every kind whose two sets differ; a
    runner's reads include those of every scenarios.py function it calls."""
    from oddchern.scenarios import _DISPATCH

    reads = scenario_reads(source)
    out = {}
    for kind, (runner, declared, _) in _DISPATCH.items():
        seen, todo, keys = set(), [runner.__name__], set()
        while todo:
            name = todo.pop()
            if name in seen or name not in reads:
                continue
            seen.add(name)
            keys |= reads[name][0]
            todo.extend(reads[name][1])
        if keys != set(declared):
            out[kind] = (keys - set(declared), set(declared) - keys)
    return out


def test_every_scenario_key_a_runner_reads_is_declared():
    # scenarios.run rejects any key its kind does not declare, so a key read
    # but not declared could never be set, and one declared but not read
    # would be accepted and ignored.
    assert key_table_mismatches((SRC / "scenarios.py").read_text()) == {}


def test_the_key_rule_sees_an_undeclared_read():
    source = (SRC / "scenarios.py").read_text()
    misspelt = source.replace('_get_positive_float(cfg, "gamma.T",',
                              '_get_positive_float(cfg, "gamma.t",')
    assert key_table_mismatches(misspelt) == {"gamma-limit": ({"gamma.t"}, {"gamma.T"})}
    # A helper's read counts for every runner that calls it.
    extra = source.replace("CollapseMap(p, q, resolution=resolution_scale)",
                           'CollapseMap(p, q, _get_positive_float(cfg, "geometry.r", 1.0))')
    product_kinds = {"deg-star", "gamma-limit", "localize", "index-report"}
    assert key_table_mismatches(extra) == {kind: ({"geometry.r"}, set()) for kind in product_kinds}


def unread_imports(source):
    """Names that the source's imports bind and that it never reads."""
    tree = ast.parse(source)
    bound = {alias.asname or alias.name.split(".")[0]
             for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and not (isinstance(node, ast.ImportFrom) and node.module == "__future__")
             for alias in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return bound - read


def test_every_import_of_a_package_module_is_read():
    # __init__.py imports to re-export, so it is left out.
    unread = {path.name: unread_imports(path.read_text())
              for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert {name: names for name, names in unread.items() if names} == {}


def test_the_import_rule_sees_an_unread_import():
    source = (SRC / "chern.py").read_text()
    leftover = source.replace("from .forms import (", "from .forms import (\n    _block_det,")
    assert unread_imports(leftover) == {"_block_det"}
    assert unread_imports("import numpy as np\nfrom math import pi\nx = pi\n") == {"np"}
