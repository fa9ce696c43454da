"""Rules on the package source that no single behaviour test can see."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "oddchern"

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


def eps_reads(found):
    """(module, function, line) of every read of a Dual's eps among
    source_nodes' found nodes, outside EPS_READERS."""
    return [(name, func, node.lineno) for name, func, node in found
            if isinstance(node, ast.Attribute) and node.attr == "eps"
            and (name, func) not in EPS_READERS]


def test_dual_eps_is_read_only_in_dual_and_the_matrix_packers():
    # Derivative rows are formed by dual.py's operations alone.
    assert eps_reads(package_nodes()) == []


def test_the_eps_rule_sees_a_hand_written_derivative_row():
    source = (SRC / "collapse.py").read_text()
    product = "dual.separable_mul(radial, c) for c in u"
    assert product in source
    by_hand = source.replace(product, "radial.eps[0] * c.val for c in u")
    line = source[:source.index(product)].count("\n") + 1
    assert eps_reads(source_nodes("collapse.py", by_hand)) == [("collapse.py", "_on_ball", line)]
    assert eps_reads(source_nodes("collapse.py", source)) == []


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


# The decisions that ChartedSphereDomain.integrate owns: the node blocks and
# their weights.
QUADRATURE_ATTRS = {"node_blocks", "weights"}


def quadrature_reads(source):
    """(line, attribute) of every read of node_blocks or weights in the
    source, calls included."""
    return [(node.lineno, node.attr) for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and node.attr in QUADRATURE_ATTRS]


def test_every_quadrature_sum_is_domains_integrate():
    reads = {path.name: quadrature_reads(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "domains.py"}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_quadrature_rule_sees_a_stray_block_loop():
    source = (SRC / "collapse.py").read_text()
    summed = "    return complex(norm * src.integrate(dets))\n"
    assert summed in source
    stray = source.replace(summed, "    total = 0.0\n"
                                   "    for block in src.node_blocks(997):\n"
                                   "        total += np.sum(block.weights() * dets(block))\n"
                                   "    return complex(norm * total)\n")
    assert {attr for _, attr in quadrature_reads(stray)} == QUADRATURE_ATTRS
    assert quadrature_reads(source) == []


def test_every_quadrature_attribute_is_defined_in_domains():
    # A rule on an attribute that no longer exists would pass vacuously.
    tree = ast.parse((SRC / "domains.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    defined |= {node.attr for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)}
    assert QUADRATURE_ATTRS <= defined


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


# Where a package definition counts as read: the package outside
# __init__.py, whose imports only re-export, the demos and the benchmark.
READER_DIRS = ("demos", "perfbench")


def definitions(source):
    """(name, line) of every module-level function and class of a module's
    source, and of every method; dunders and nested functions are left out."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found.append(node)
        if isinstance(node, ast.ClassDef):
            found.extend(child for child in node.body
                         if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))
    return [(node.name, node.lineno) for node in found
            if not (node.name.startswith("__") and node.name.endswith("__"))]


def names_read(source):
    """Every name a source mentions, other than those its def and class
    statements bind: names, attributes, imported names, and string literals
    that are identifiers (perfbench patches by name)."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.split(".")[-1])
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            out.add(node.value)
    return out


def package_sources():
    return {path.name: path.read_text() for path in sorted(SRC.glob("*.py"))}


def reader_sources():
    return [path.read_text() for d in READER_DIRS for path in sorted((ROOT / d).glob("*.py"))]


def unread_definitions(package, readers):
    """(module, name, line) of every definition in package, {file name:
    source}, that neither the package outside __init__.py nor any of the
    reader sources names."""
    read = set()
    for source in [s for name, s in package.items() if name != "__init__.py"] + readers:
        read |= names_read(source)
    return [(module, name, line) for module, source in package.items()
            for name, line in definitions(source) if name not in read]


def test_every_package_definition_is_read_by_the_program():
    # Code that only tests read lives in tests/reference.py, not the package.
    assert unread_definitions(package_sources(), reader_sources()) == []


def test_the_reader_rule_sees_a_definition_nothing_reads():
    package, readers = package_sources(), reader_sources()
    line = package["forms.py"].count("\n") + 3
    package["forms.py"] += "\n\ndef orphan(w):\n    return w\n"
    assert unread_definitions(package, readers) == [("forms.py", "orphan", line)]
    # A re-export from __init__.py is no read; a method is checked as a
    # module function is; a hook name in a string literal is a read.
    package["__init__.py"] += "from .forms import orphan\n"
    assert unread_definitions(package, readers) == [("forms.py", "orphan", line)]
    method = "class Holder:\n    def __init__(self):\n        pass\n\n    def orphan(self):\n        pass\n"
    assert unread_definitions({"x.py": method}, []) == [("x.py", "Holder", 1), ("x.py", "orphan", 5)]
    assert unread_definitions(package, readers + ['HOOKS = ("orphan",)\n']) == []


# Defaulted parameters that no program call sets, each kept for tests: the
# entry point's argv (tests run the CLI in process) and deg's ladder (tests
# sweep single levels through it).
UNSET_DEFAULTS = {("cli.py", "main", "argv"), ("chern.py", "deg", "ladder")}


def defaulted_parameters(name, source):
    """(module, function, parameter, position or None) of every parameter
    with a default in a module's source; a method's position leaves out
    self or cls, and a keyword-only parameter has none.  __init__ is listed
    under its class's name, which is what its callers call."""
    found = []

    def visit(node, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if cls and not static else 0
                called = cls if child.name == "__init__" else child.name
                for i, arg in enumerate(positional[len(positional) - len(args.defaults):],
                                        start=len(positional) - len(args.defaults)):
                    found.append((name, called, arg.arg, i - skip))
                found.extend((name, called, arg.arg, None)
                             for arg, default in zip(args.kwonlyargs, args.kw_defaults)
                             if default is not None)
                visit(child, None)

    visit(ast.parse(source), None)
    return found


def set_parameters(sources):
    """{(called name, parameter or position)} that some call in the sources
    sets: by keyword, or by position; a ** or * splat sets every keyword or
    every position.  Inside a class, a call of cls is a call of the class."""
    out = set()

    def visit(node, cls):
        if isinstance(node, ast.ClassDef):
            cls = node.name
        if isinstance(node, ast.Call):
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            called = cls if called == "cls" else called
            for kw in node.keywords:
                out.add((called, "**" if kw.arg is None else kw.arg))
            if any(isinstance(a, ast.Starred) for a in node.args):
                out.add((called, "*"))
            out.update((called, i) for i in range(len(node.args)))
        for child in ast.iter_child_nodes(node):
            visit(child, cls)

    for source in sources:
        visit(ast.parse(source), None)
    return out


def unset_defaults(package, readers):
    """(module, function, parameter) of every defaulted parameter in package,
    {file name: source}, that no call in the package outside __init__.py or
    in the reader sources sets, outside UNSET_DEFAULTS."""
    sets = set_parameters([s for name, s in package.items() if name != "__init__.py"] + readers)
    return [(module, func, param)
            for name, source in package.items()
            for module, func, param, pos in defaulted_parameters(name, source)
            if not ({(func, param), (func, "**")} & sets
                    or pos is not None and {(func, pos), (func, "*")} & sets)
            and (module, func, param) not in UNSET_DEFAULTS]


def test_every_defaulted_parameter_is_set_by_the_program():
    # A default that every call leaves in place is a setting that one value
    # serves: it belongs in the function body, not in its signature.
    assert unset_defaults(package_sources(), reader_sources()) == []


def test_the_default_rule_sees_an_unset_default():
    package, readers = package_sources(), reader_sources()
    package["forms.py"] += "\n\ndef padded(w, pad=0):\n    return w\n\n\nx = padded(1)\n"
    assert unset_defaults(package, readers) == [("forms.py", "padded", "pad")]
    # A keyword, a position past self, or a splat sets a default; a call of
    # cls calls its class; an exempt default is not reported.
    method = ("class Holder:\n    def __init__(self, a, b=1):\n        pass\n\n"
              "    def get(self, c=2, *, d=3):\n        pass\n")
    assert unset_defaults({"x.py": method}, []) == [("x.py", "Holder", "b"), ("x.py", "get", "c"),
                                                    ("x.py", "get", "d")]
    assert unset_defaults({"x.py": method}, ["Holder(0, 1).get(5, d=4)\n"]) == []
    assert unset_defaults({"x.py": method}, ["Holder(*ab).get(**kw)\n"]) == []
    made = method + "\n    @classmethod\n    def make(cls):\n        return cls(0, b=2)\n"
    assert unset_defaults({"x.py": made}, []) == [("x.py", "get", "c"), ("x.py", "get", "d")]
    assert unset_defaults({"cli.py": "def main(argv=None):\n    pass\n"}, []) == []
