"""Rules on the package source that no single behaviour test can see."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oddchern"

# The one function outside dual.py that may read a Dual's derivative array:
# the matrix packer, which lays the jet out as the forms' blocks.
EPS_READERS = {("maps.py", "pack_matrix")}


def source_nodes(name, source):
    """(name, innermost enclosing function, node) of every ast node of a
    module's source."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        found.append((name, func, node))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def package_nodes():
    """source_nodes of every package module outside dual.py."""
    return [found for path in sorted(SRC.glob("*.py")) if path.name != "dual.py"
            for found in source_nodes(path.name, path.read_text())]


def test_dual_eps_is_read_only_in_dual_and_the_matrix_packers():
    reads = [(name, func, node.lineno) for name, func, node in package_nodes()
             if isinstance(node, ast.Attribute) and node.attr == "eps"]
    assert {(name, func) for name, func, _ in reads} <= EPS_READERS, reads


def test_duals_are_constructed_only_in_dual():
    # seed_all and from_jet (a map's jet taken back into dual arithmetic)
    # are the ways to make a Dual; every other Dual is the result of
    # dual.py's operations on those.
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


# The decisions that ChartedSphereDomain.integrate owns: the node blocks, their
# weights and the chart's orientation.
QUADRATURE_ATTRS = {"node_blocks", "weights", "orientation_sign"}


def quadrature_reads(source):
    """(line, attribute) of every read of node_blocks, weights or
    orientation_sign in the source, calls included."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in QUADRATURE_ATTRS]


def test_every_quadrature_sum_is_domains_integrate():
    reads = {path.name: quadrature_reads(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "domains.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_quadrature_rule_sees_a_stray_block_loop():
    source = (SRC / "collapse.py").read_text()
    summed = "    return complex(sign * norm * src.integrate(dets))\n"
    assert summed in source
    stray = source.replace(summed, "    total = 0.0\n"
                                   "    for block in src.node_blocks(997):\n"
                                   "        total += np.sum(block.weights() * dets(block))\n"
                                   "    return complex(src.orientation_sign * sign * norm * total)\n")
    assert {attr for _, attr in quadrature_reads(stray)} == QUADRATURE_ATTRS
    assert quadrature_reads(source) == []


# The one block-layout exception: LAPACK's point-axis-first batches in the
# block inverse from N = 4.
LAYOUT_EXCEPTIONS = {("chern.py", "_checked_inverse")}


def layout_breaks(name, source):
    """(function, line, what) of every np.moveaxis or @ in a module's source
    outside LAYOUT_EXCEPTIONS."""
    found = []
    for _, func, node in source_nodes(name, source):
        if (name, func) in LAYOUT_EXCEPTIONS:
            continue
        if isinstance(node, ast.Attribute) and node.attr == "moveaxis":
            found.append((func, node.lineno, "moveaxis"))
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((func, node.lineno, "@"))
    return found


def test_blocks_keep_the_point_axis_last():
    # Every matrix block is (N, N, npts), multiplied by the forms' block
    # products; none is turned point axis first for numpy's batched @.
    breaks = {path.name: layout_breaks(path.name, path.read_text())
              for path in sorted(SRC.glob("*.py"))}
    assert {name: found for name, found in breaks.items() if found} == {}


def test_the_layout_rule_sees_a_point_axis_first_block():
    source = (SRC / "superconn.py").read_text()
    evaluate = "        return _polar(self.v.evaluate(domain, pts), self.size)\n"
    assert evaluate in source
    moved = source.replace(evaluate,
                           "        a = np.moveaxis(self.v.evaluate(domain, pts), -1, -3)\n"
                           "        return np.moveaxis(self._polar(a)[0], -3, -1)\n")
    line = source[:source.index(evaluate)].count("\n") + 1
    assert layout_breaks("superconn.py", moved) == [("evaluate", line, "moveaxis"),
                                                    ("evaluate", line + 1, "moveaxis")]
    assert layout_breaks("superconn.py", "def f(a):\n    a @= a\n    return a @ a\n") == [
        ("f", 2, "@"), ("f", 3, "@")]
    # The block inverse's LAPACK calls are exempt in chern.py only.
    chern_source = (SRC / "chern.py").read_text()
    assert layout_breaks("chern.py", chern_source) == []
    assert {what for _, _, what in layout_breaks("maps.py", chern_source)} == {"moveaxis"}
