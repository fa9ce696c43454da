"""In-memory span recorder that wraps oddchern's layers at run time.

``install`` replaces selected functions and methods of the imported package
with timing wrappers, so the package source stays untouched.  Every wrapped
call records a span ``[name, start, end, parent, extra]``; a layer's self
time is its spans' duration minus the time of their direct child spans.
``pass_metrics`` turns the spans of one pass into the per-layer metrics
listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

import numpy as np

# Per-layer metrics: (name, unit, better, the end-to-end metric and workload
# each one should move).  BENCHMARK.json's per_layer list mirrors the first
# three columns.  A layer that does not run on a workload reports 0.
LAYER_METRICS = [
    ("forms.wedge.self_s", "s", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.wedge.calls", "count", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.wedge.products", "count", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.wedge.gflop", "Gflop-computed", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.wedge.gflops", "Gflop/s-computed", "higher", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.trace.self_s", "s", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.exp.self_s", "s", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("forms.linear.self_s", "s", "lower", "solve_s on sphere-chern and gamma-limit; none on collapse-4d"),
    ("maps.evaluate.self_s", "s", "lower", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("maps.evaluate.nodes_per_s", "1/s", "higher", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("maps.differential.self_s", "s", "lower", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("maps.differential.calls", "count", "lower", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("maps.differential.nodes_per_s", "1/s", "higher", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("maps.jacobian.self_s", "s", "lower", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("maps.jacobian.calls", "count", "lower", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("collapse.ambient.self_s", "s", "lower", "solve_s on collapse-4d most, gamma-limit partly; absent on sphere-chern"),
    ("collapse.ambient.calls", "count", "lower", "solve_s on collapse-4d most, gamma-limit partly; absent on sphere-chern"),
    ("collapse.ambient.nodes_per_s", "1/s", "higher", "solve_s on collapse-4d most, gamma-limit partly; absent on sphere-chern"),
    ("domains.embed.self_s", "s", "lower", "solve_s on collapse-4d most, gamma-limit partly, sphere-chern barely"),
    ("domains.nodes", "count", "lower", "solve_s, peak_rss_mb, min_digits on collapse-4d and gamma-limit; none on sphere-chern"),
    ("domains.grids", "count", "lower", "solve_s, peak_rss_mb, min_digits on collapse-4d and gamma-limit; none on sphere-chern"),
    ("chern.ladder.levels", "count", "lower", "solve_s, peak_rss_mb, min_digits on gamma-limit; none on sphere-chern"),
    ("chern.ladder.nodes", "count", "lower", "solve_s, peak_rss_mb, min_digits on gamma-limit; none on sphere-chern"),
    ("chern.ladder.final_share", "share", "higher", "solve_s, peak_rss_mb, min_digits on gamma-limit; none on sphere-chern"),
    ("chern.ladder.unconverged", "count", "lower", "min_digits and ops_ok_frac on gamma-limit; none on sphere-chern"),
    ("collapse.ladder.levels", "count", "lower", "solve_s, peak_rss_mb, min_digits on collapse-4d"),
    ("collapse.ladder.nodes", "count", "lower", "solve_s, peak_rss_mb, min_digits on collapse-4d"),
    ("collapse.ladder.final_share", "share", "higher", "solve_s, peak_rss_mb, min_digits on collapse-4d"),
    ("chern.maurer_cartan.self_s", "s", "lower", "solve_s on gamma-limit"),
    ("chern.maurer_cartan.nodes_per_s", "1/s", "higher", "solve_s on gamma-limit"),
    ("fields.integrate.self_s", "s", "lower", "solve_s on gamma-limit"),
    ("fields.integrate.nodes_per_s", "1/s", "higher", "solve_s on gamma-limit"),
    ("collapse.pullback.self_s", "s", "lower", "solve_s on collapse-4d"),
    ("fields.d.self_s", "s", "lower", "solve_s on sphere-chern only"),
    ("fields.d.samples", "count", "lower", "solve_s on sphere-chern only"),
    ("superconn.blocks.self_s", "s", "lower", "solve_s on gamma-limit only"),
    ("superconn.gamma_top.calls", "count", "lower", "solve_s on gamma-limit only"),
    ("superconn.gamma_top.s", "s", "lower", "solve_s on gamma-limit only"),
    ("superconn.closed_form.s", "s", "lower", "solve_s on gamma-limit only"),
    ("superconn.model.s", "s", "lower", "solve_s on gamma-limit only"),
    ("scenarios.deg.s", "s", "lower", "solve_s on sphere-chern"),
    ("scenarios.flz-point.s", "s", "lower", "solve_s on sphere-chern"),
    ("scenarios.gamma-limit.s", "s", "lower", "solve_s on gamma-limit"),
    ("scenarios.emit.s", "s", "lower", "solve_s on sphere-chern and gamma-limit"),
    ("verify.check_transgression.s", "s", "lower", "solve_s on sphere-chern"),
    ("collapse.collapse_degree.s", "s", "lower", "solve_s on collapse-4d"),
    ("process.cpu_s", "s", "lower", "solve_s on every workload"),
    ("process.unattributed_s", "s", "lower", "solve_s on every workload"),
    ("trace.overhead_frac", "frac", "lower", "none; the cost of tracing itself"),
]

# Spans that own quadrature grids: the nodes of every grid swept inside them
# are credited to them.
_LADDERS = ("chern.ladder", "collapse.ladder")


class Tracer:
    """Spans of one process, kept in memory in the order they open."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def open(self, name, extra=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, extra])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def span(self, name):
        return _Span(self, name)

    def wrap(self, name, fn, extra=None, after=None):
        """Timing wrapper; extra(args) is recorded before the call, after(span, out) after it."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.open(name, extra(args) if extra else None)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if after:
                after(tracer.spans[idx], out)
            return out

        return wrapper


class _Span:
    __slots__ = ("tracer", "name", "idx")

    def __init__(self, tracer, name):
        self.tracer, self.name = tracer, name

    def __enter__(self):
        self.idx = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.idx)
        return False


# -- run-time wrapping ---------------------------------------------------------

def _npts(args):
    return {"nodes": len(args[2])}


def _ambient_nodes(args):
    first = args[1][0]  # a dual number or a plain array of coordinates
    return {"nodes": int(np.size(getattr(first, "val", first)))}


def _sample_nodes(args):
    return {"nodes": len(args[0])}


def _stencil_samples(args):
    # The 5-point stencil samples the field 4 times per point and direction.
    pts = args[0]
    return {"samples": 4 * pts.shape[0] * pts.shape[1]}


def _wedge_work(args):
    """Matrix products and computed flops of one wedge, from operand shapes.

    A complex N x N product costs 8 N^3 real flops per point, a scalar times
    matrix product 6 N^2.
    """
    a, b = args
    per = 8 * a.size ** 3 if a.size == b.size else 6 * max(a.size, b.size) ** 2
    b_masks = [mb for mb, c in enumerate(b.comps) if c is not None]
    products = sum(1 for ma, c in enumerate(a.comps) if c is not None
                   for mb in b_masks if not ma & mb)
    return {"products": products, "flop": products * per * a.npts}


def _grid_nodes(args):
    return {"nodes": args[0].n_nodes}


def _note_unconverged(span, result):
    span[4] = {"unconverged": int(not result.converged)}


def install(tracer):
    """Wrap oddchern's layers so that calls record spans on ``tracer``.

    Returns a function that undoes every patch.
    """
    from oddchern import chern, collapse, domains, fields, forms, maps, superconn

    undo = []

    def patch_method(cls, attr, name, extra=None, after=None):
        orig = cls.__dict__[attr]
        undo.append((cls, attr, orig))
        setattr(cls, attr, tracer.wrap(name, orig, extra, after))

    def patch_function(module, attr, wrapper_of):
        # Modules bind imported names at import time, so rebind the function
        # in every oddchern module that holds it.
        orig = getattr(module, attr)
        new = wrapper_of(orig)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("oddchern"):
                continue
            for key, val in list(vars(mod).items()):
                if val is orig:
                    undo.append((mod, key, orig))
                    setattr(mod, key, new)

    def timed(name, extra=None, after=None):
        return lambda fn: tracer.wrap(name, fn, extra, after)

    def timed_sampler(name, extra):
        # maurer_cartan and exterior_derivative return lazy fields; the work
        # happens when their sampler runs.
        def wrapper_of(factory):
            @functools.wraps(factory)
            def build(*args, **kwargs):
                field = factory(*args, **kwargs)
                field._sampler = tracer.wrap(name, field._sampler, extra)
                return field
            return build
        return wrapper_of

    gmf = forms.GradedMatrixForm
    patch_method(gmf, "wedge", "forms.wedge", _wedge_work)
    for attr in ("trace", "supertrace"):
        patch_method(gmf, attr, "forms.trace")
    for attr in ("__add__", "__sub__", "scale", "scale_by_degree"):
        patch_method(gmf, attr, "forms.linear")
    patch_function(forms, "nilpotent_exp", timed("forms.exp"))

    for cls in (maps.DualMatrixMap, maps.NumericMatrixMap,
                maps.ProductMatrixMap, maps.ScaledMatrixMap):
        patch_method(cls, "evaluate", "maps.evaluate", _npts)
        patch_method(cls, "differential", "maps.differential", _npts)
    for attr in ("ambient_jacobian_columns", "jacobian_chart"):
        patch_method(maps.ChartMap, attr, "maps.jacobian")
    patch_method(collapse.CollapseMap, "_ambient", "collapse.ambient", _ambient_nodes)

    dom = domains.ChartedSphereDomain
    for attr in ("embed_cols", "embed", "embed_dual_cols"):
        patch_method(dom, attr, "domains.embed")
    patch_method(dom, "node_blocks", "domains.grid", _grid_nodes)

    patch_function(chern, "maurer_cartan",
                   timed_sampler("chern.maurer_cartan", _sample_nodes))
    patch_function(fields, "exterior_derivative",
                   timed_sampler("fields.d", _stencil_samples))
    patch_function(fields, "integrate_top", timed("fields.integrate"))
    patch_function(fields, "integrate_all_degrees", timed("fields.integrate"))
    patch_function(chern, "_normalized_degree",
                   timed("chern.ladder", after=_note_unconverged))
    patch_function(collapse, "mapping_degree", timed("collapse.ladder"))
    patch_function(collapse, "volume_pullback_integral", timed("collapse.pullback"))

    sbm = superconn.SuperBundleModel
    for attr in ("odd_endomorphism", "derivative_form"):
        patch_method(sbm, attr, "superconn.blocks")
    patch_method(sbm, "__init__", "superconn.model")
    patch_function(superconn, "_gamma_top_integral", timed("superconn.gamma_top"))
    patch_function(superconn, "gamma_closed_form", timed("superconn.closed_form"))

    def restore():
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)

    return restore


def span_overhead_s(samples=20000):
    """Measured cost of one wrapped call beyond the call itself."""
    tracer = Tracer()
    root = tracer.open("calibration")

    def noop():
        return None

    wrapped = tracer.wrap("noop", noop)
    t0 = time.perf_counter()
    for _ in range(samples):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(samples):
        wrapped()
    traced = time.perf_counter() - t0
    tracer.close(root)
    return max(traced - bare, 0.0) / samples


# -- per-layer metrics ---------------------------------------------------------

def pass_metrics(spans, root, cpu_s, per_span_s):
    """Per-layer metrics of the pass whose root span has index ``root``.

    Spans after the root belong to the pass; the root's own self time is
    time spent outside every operation.
    """
    end = len(spans)
    first = root + 1
    child_time = {}
    for i in range(first, end):
        name, t0, t1, parent, extra = spans[i]
        child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)

    def ancestors(i):
        p = spans[i][3]
        while p >= root:
            yield p
            p = spans[p][3]

    self_s, calls, busy, extras = {}, {}, {}, {}
    grid_nodes, grids, integrate_nodes = 0, 0, 0
    ladder_levels = {}
    for i in range(first, end):
        name, t0, t1, parent, extra = spans[i]
        dur = t1 - t0
        self_s[name] = self_s.get(name, 0.0) + dur - child_time.get(i, 0.0)
        calls[name] = calls.get(name, 0) + 1
        outer = all(spans[a][0] != name for a in ancestors(i))
        if outer:
            busy[name] = busy.get(name, 0.0) + dur
        if extra:
            bucket = extras.setdefault(name, {})
            for key, val in extra.items():
                if key == "nodes" and not outer:
                    continue
                bucket[key] = bucket.get(key, 0) + val
        if name == "domains.grid":
            n = extra["nodes"]
            grid_nodes += n
            grids += 1
            credited = set()
            for a in ancestors(i):
                owner = spans[a][0]
                if owner in credited:
                    continue
                credited.add(owner)
                if owner == "fields.integrate":
                    integrate_nodes += n
                if owner in _LADDERS:
                    ladder_levels.setdefault(a, []).append(n)

    def rate(name, count):
        t = busy.get(name, 0.0)
        return count / t if t > 0 else 0.0

    def ext(name, key):
        return extras.get(name, {}).get(key, 0)

    out = {
        "forms.wedge.self_s": self_s.get("forms.wedge", 0.0),
        "forms.wedge.calls": calls.get("forms.wedge", 0),
        "forms.wedge.products": ext("forms.wedge", "products"),
        "forms.wedge.gflop": ext("forms.wedge", "flop") / 1e9,
        "forms.wedge.gflops": rate("forms.wedge", ext("forms.wedge", "flop") / 1e9),
        "forms.trace.self_s": self_s.get("forms.trace", 0.0),
        "forms.exp.self_s": self_s.get("forms.exp", 0.0),
        "forms.linear.self_s": self_s.get("forms.linear", 0.0),
        "maps.evaluate.self_s": self_s.get("maps.evaluate", 0.0),
        "maps.evaluate.nodes_per_s": rate("maps.evaluate", ext("maps.evaluate", "nodes")),
        "maps.differential.self_s": self_s.get("maps.differential", 0.0),
        "maps.differential.calls": calls.get("maps.differential", 0),
        "maps.differential.nodes_per_s": rate("maps.differential",
                                              ext("maps.differential", "nodes")),
        "maps.jacobian.self_s": self_s.get("maps.jacobian", 0.0),
        "maps.jacobian.calls": calls.get("maps.jacobian", 0),
        "collapse.ambient.self_s": self_s.get("collapse.ambient", 0.0),
        "collapse.ambient.calls": calls.get("collapse.ambient", 0),
        "collapse.ambient.nodes_per_s": rate("collapse.ambient",
                                             ext("collapse.ambient", "nodes")),
        "domains.embed.self_s": self_s.get("domains.embed", 0.0),
        "domains.nodes": grid_nodes,
        "domains.grids": grids,
        "chern.maurer_cartan.self_s": self_s.get("chern.maurer_cartan", 0.0),
        "chern.maurer_cartan.nodes_per_s": rate("chern.maurer_cartan",
                                                ext("chern.maurer_cartan", "nodes")),
        "fields.integrate.self_s": self_s.get("fields.integrate", 0.0),
        "fields.integrate.nodes_per_s": rate("fields.integrate", integrate_nodes),
        "collapse.pullback.self_s": self_s.get("collapse.pullback", 0.0),
        "fields.d.self_s": self_s.get("fields.d", 0.0),
        "fields.d.samples": ext("fields.d", "samples"),
        "chern.ladder.unconverged": ext("chern.ladder", "unconverged"),
        "superconn.blocks.self_s": self_s.get("superconn.blocks", 0.0),
        "superconn.gamma_top.calls": calls.get("superconn.gamma_top", 0),
        "superconn.gamma_top.s": busy.get("superconn.gamma_top", 0.0),
        "superconn.closed_form.s": busy.get("superconn.closed_form", 0.0),
        "superconn.model.s": busy.get("superconn.model", 0.0),
        "process.cpu_s": cpu_s,
        "process.unattributed_s": spans[root][2] - spans[root][1] - child_time.get(root, 0.0),
        "trace.overhead_frac": (end - first) * per_span_s / (spans[root][2] - spans[root][1]),
    }
    for ladder in _LADDERS:
        levels = [lv for idx, lv in ladder_levels.items() if spans[idx][0] == ladder]
        total = sum(sum(lv) for lv in levels)
        out[ladder + ".levels"] = sum(len(lv) for lv in levels)
        out[ladder + ".nodes"] = total
        out[ladder + ".final_share"] = (sum(lv[-1] for lv in levels) / total
                                        if total else 0.0)
    for name, _, _, _ in LAYER_METRICS:
        if name.endswith(".s") and name not in out:
            # Per-operation times: spans the runner opens around each op.
            out[name] = busy.get(name[:-2], 0.0)
    return {name: out[name] for name, _, _, _ in LAYER_METRICS}


def median_metrics(per_pass):
    """Median over passes of each per-layer metric."""
    return {name: statistics.median(m[name] for m in per_pass)
            for name, _, _, _ in LAYER_METRICS}
