"""Scenario files, run dispatch, and report serialization.

A scenario is a flat ``key = value`` text file (``#`` comments, dotted keys
for nested map recipes) describing one computation:

    scenario = deg-star
    geometry.p = 2
    geometry.q = 1
    map.f.kind = circle_winding
    map.f.m = 3
    map.h.kind = su2_identity

Reports serialize deterministically to JSON (stable key order, complex
numbers as [re, im] pairs) or CSV (header row; convergence tables as
resolution/re/im/delta rows).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

from . import __version__
from .chern import assemble_split_map, deg, deg_star, generator
from .collapse import CollapseMap
from .defaults import DEGREE_RESIDUAL_TOL, NODES_PER_ANGLE, SPLIT_LADDER, T_MAX, TWO_PATH_TOL
from .domains import ChartedSphereDomain
from .maps import compose_map_with_matrix
from .results import DegreeResult
from .superconn import boundary_model, flz_point_case, gamma_report, localize

EXIT_OK = 0
EXIT_ORACLE_MISMATCH = 2
EXIT_UNCONVERGED = 3
EXIT_CONFIG_ERROR = 64


class ScenarioError(ValueError):
    """Invalid scenario configuration; carries the offending field path."""


def parse_scenario(text: str) -> dict:
    """Parse flat key = value lines into a string-to-string dict."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ScenarioError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        key, val = key.strip(), val.strip()
        if not key:
            raise ScenarioError(f"line {lineno}: empty key")
        if key in out:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        out[key] = val
    return out


def load_scenario(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return parse_scenario(fh.read())


def _get_int(cfg, key, default, minimum=None):
    if key not in cfg:
        return default
    try:
        value = int(cfg[key])
    except ValueError:
        raise ScenarioError(f"{key}: expected integer, got {cfg[key]!r}") from None
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{key}: expected an integer >= {minimum}, got {value}")
    return value


def _get_positive_float(cfg, key, default):
    if key not in cfg:
        return default
    try:
        value = float(cfg[key])
    except ValueError:
        raise ScenarioError(f"{key}: expected float, got {cfg[key]!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise ScenarioError(f"{key}: expected a positive number, got {value!r}")
    return value


def _map_keys(prefix):
    """The keys _build_generator reads under prefix."""
    return tuple(f"{prefix}.{name}" for name in ("kind", "size", "m"))


def _build_generator(cfg, prefix):
    kind = cfg.get(prefix + ".kind")
    if kind is None:
        raise ScenarioError(f"missing required key {prefix + '.kind'!r}")
    size = _get_int(cfg, prefix + ".size", 2, minimum=1)
    m = _get_int(cfg, prefix + ".m", 1)
    try:
        return generator(kind, size=size, m=m)
    except ValueError as exc:
        raise ScenarioError(f"{prefix}.kind: {exc}") from None


def _degree_entry(result: DegreeResult) -> dict:
    return {
        "value": [result.value.real, result.value.imag],
        "rounded": result.rounded,
        "residual": result.residual,
        "converged": result.converged,
    }


def _conv_rows(pairs):
    rows, prev = [], None
    for scale, val in pairs:
        val = complex(val)
        delta = abs(val - prev) if prev is not None else 0.0
        rows.append([float(scale), val.real, val.imag, delta])
        prev = val
    return rows


@dataclass
class RunReport:
    """Machine-readable record of one scenario run."""

    scenario: dict
    values: dict
    convergence: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    version: str = __version__

    @property
    def exit_code(self) -> int:
        if any(not c["converged"] for c in self.checks):
            return EXIT_UNCONVERGED
        if any(not c["passed"] for c in self.checks):
            return EXIT_ORACLE_MISMATCH
        return EXIT_OK

    def to_json(self) -> str:
        payload = {
            "scenario": self.scenario,
            "values": self.values,
            "convergence": self.convergence,
            "checks": self.checks,
            "version": self.version,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["section", "name", "re", "im", "extra"])
        for name in sorted(self.values):
            val = self.values[name]
            if isinstance(val, dict):
                w.writerow(["value", name, val["value"][0], val["value"][1],
                            f"rounded={val['rounded']};residual={val['residual']}"])
            elif isinstance(val, (list, tuple)):
                w.writerow(["value", name, val[0], val[1], ""])
            else:
                w.writerow(["value", name, val, "", ""])
        for name in sorted(self.convergence):
            for scale, re, im, delta in self.convergence[name]:
                w.writerow(["convergence", name, re, im,
                            f"scale={scale};delta={delta}"])
        for c in self.checks:
            w.writerow(["check", c["name"], "", "",
                        f"passed={c['passed']};converged={c['converged']}"])
        return buf.getvalue()


def _check_budget(key, dim):
    """Reject a chart beyond NODES_PER_ANGLE under the scenario key that asks for it."""
    if dim > max(NODES_PER_ANGLE):
        raise ScenarioError(f"{key}: a {dim}-dimensional chart is beyond NODES_PER_ANGLE, "
                            f"whose largest key is {max(NODES_PER_ANGLE)}")


def _degree_report(name, result: DegreeResult, check_name):
    """A degree's value entry and convergence table under name, and its
    quantization check, as a runner's (values, convergence, checks)."""
    return (
        {name: _degree_entry(result)},
        {name: _conv_rows(result.convergence)},
        [{"name": check_name, "passed": result.accepted,
          "converged": result.converged}],
    )


def _run_deg(cfg, resolution_scale):
    m_dim = _get_int(cfg, "geometry.sphere", 1, minimum=1)
    if m_dim % 2 == 0:
        raise ScenarioError(f"geometry.sphere: deg needs an odd sphere, got {m_dim}")
    _check_budget("geometry.sphere", m_dim)
    dom = ChartedSphereDomain.sphere(m_dim, resolution=resolution_scale)
    g = _build_generator(cfg, "map")
    return _degree_report("deg", deg(g, dom), "deg integral quantizes")


def _build_product_map(cfg, resolution_scale):
    """The scenario's map on S^p x S^q with its chart: a split-form map
    (pr2* f) . (phi* h) on the product angle chart, or a plain phi* h
    pullback on phi's ball chart."""
    p = _get_int(cfg, "geometry.p", 2, minimum=1)
    q = _get_int(cfg, "geometry.q", 1, minimum=1)
    if (p + q) % 2 == 0:
        raise ScenarioError(f"geometry.p, geometry.q: boundary models need p + q odd, "
                            f"got {p} + {q}")
    _check_budget("geometry.p, geometry.q", p + q)
    phi = CollapseMap(p, q, resolution=resolution_scale)
    h = _build_generator(cfg, "map.h")
    if "map.f.kind" in cfg:
        f = _build_generator(cfg, "map.f")
        return assemble_split_map(f, h, collapse=phi), phi.source
    ball = phi.ball()
    return compose_map_with_matrix(ball, h), ball.source


def _run_deg_star(cfg, resolution_scale):
    g, dom = _build_product_map(cfg, resolution_scale)
    result = deg_star(g, dom, SPLIT_LADDER)
    values, convergence, checks = _degree_report("deg_star", result,
                                                 "deg* integral quantizes")
    if "map.f.kind" in cfg:
        # Splitting oracle: deg*(pr2* f . phi* h) should equal deg(h) over
        # the collapse target sphere.
        h = _build_generator(cfg, "map.h")
        h_dom = ChartedSphereDomain.sphere(dom.dim, resolution=resolution_scale)
        oracle = deg(h, h_dom)
        values["deg_h_oracle"] = _degree_entry(oracle)
        checks.append({
            "name": "splitting matches deg(h) oracle",
            "passed": oracle.accepted and oracle.rounded == result.rounded,
            "converged": oracle.converged,
        })
    return values, convergence, checks


def _build_model(cfg, resolution_scale):
    g, dom = _build_product_map(cfg, resolution_scale)
    return boundary_model(dom, g)


def _run_gamma_limit(cfg, resolution_scale):
    T_final = _get_positive_float(cfg, "gamma.T", T_MAX)
    model = _build_model(cfg, resolution_scale)
    rep = gamma_report(model, (T_final / 4, T_final / 2, T_final))
    ds = rep.deg_star_value
    n = model.n
    expected = (-1.0) ** n * ds.rounded
    values = {
        "gamma_limit": [rep.limit.real, rep.limit.imag],
        "gamma_closed_form": [rep.closed_form_value.real,
                              rep.closed_form_value.imag],
        "deg_star": _degree_entry(ds),
        "two_path_gap": rep.two_path_gap,
    }
    convergence = {
        "gamma_vs_T": _conv_rows(zip(rep.T_values, rep.boundary_integrals)),
        "gamma_vs_resolution": _conv_rows(rep.convergence),
        "deg_star": _conv_rows(ds.convergence),
    }
    checks = [
        {"name": "two gamma paths agree", "passed": rep.two_path_gap < TWO_PATH_TOL,
         "converged": ds.converged},
        {"name": "gamma limit equals (-1)^n deg*",
         "passed": abs(rep.limit - expected) < DEGREE_RESIDUAL_TOL,
         "converged": ds.converged},
    ]
    return values, convergence, checks


def _run_localize(cfg, resolution_scale):
    rep = localize([_build_model(cfg, resolution_scale)])
    values = {
        "localized_value": [rep.value.real, rep.value.imag],
        "gamma_path": [rep.gamma_path.real, rep.gamma_path.imag],
        "agreement": rep.agreement,
    }
    convergence = {
        "deg_star": _conv_rows(rep.per_model[0]["deg_star"].convergence),
    }
    checks = [{"name": "degree path equals gamma path",
               "passed": rep.consistent, "converged": rep.converged}]
    return values, convergence, checks


def _run_flz_point(cfg, resolution_scale):
    n = _get_int(cfg, "geometry.n", 1, minimum=1)
    _check_budget("geometry.n", 2 * n - 1)
    dom = ChartedSphereDomain.sphere(2 * n - 1, resolution=resolution_scale)
    v = _build_generator(cfg, "map")
    rep = flz_point_case(v, dom)
    values, convergence, checks = _degree_report("deg", rep.degree,
                                                 "point case quantizes")
    values["point_contribution"] = [rep.value.real, rep.value.imag]
    return values, convergence, checks


def _run_index_report(cfg, resolution_scale):
    model = _build_model(cfg, resolution_scale)
    ds = model.degree_star()
    values, convergence, checks = _degree_report("deg_star", ds,
                                                 "index integral quantizes")
    # (-1)^n sum deg*(v_i), a real integer.
    values["index"] = [(-1.0) ** model.n * ds.rounded, 0.0]
    return values, convergence, checks


def _run_verify(cfg, resolution_scale):
    from .verify import CHECKS, run_all_checks

    if resolution_scale != 1.0:
        raise ScenarioError(f"resolution scale: verify runs every check on its own "
                            f"fixed grids, expected 1.0, got {resolution_scale!r}")
    names = [s.strip() for s in cfg.get("verify.only", "").split(",") if s.strip()]
    known = [name for name, _ in CHECKS]
    for name in names:
        if name not in known:
            raise ScenarioError(f"verify.only: unknown check {name!r}, "
                                f"expected one of {', '.join(known)}")
    results = run_all_checks(only=names or None)
    values = {r["name"]: r["detail"] for r in results}
    checks = [{"name": r["name"], "passed": r["passed"],
               "converged": r["converged"]} for r in results]
    return values, {}, checks


_PRODUCT_KEYS = ("geometry.p", "geometry.q") + _map_keys("map.f") + _map_keys("map.h")

# Every scenario kind: its runner, (cfg, resolution_scale) -> (values,
# convergence, checks), the keys the runner reads, and its one-line summary
# (the CLI's subcommand help).
_DISPATCH = {
    "deg": (_run_deg, ("geometry.sphere",) + _map_keys("map"),
            "normalized odd-Chern degree on an odd sphere"),
    "deg-star": (_run_deg_star, _PRODUCT_KEYS, "normalized degree on a product sphere"),
    "gamma-limit": (_run_gamma_limit, _PRODUCT_KEYS + ("gamma.T",),
                    "boundary transgression integral and its limit"),
    "localize": (_run_localize, _PRODUCT_KEYS,
                 "localized relative Chern number, both paths"),
    "flz-point": (_run_flz_point, ("geometry.n",) + _map_keys("map"),
                  "point-singularity contribution on S^(2n-1)"),
    "index-report": (_run_index_report, _PRODUCT_KEYS, "(-1)^n sum of model degrees"),
    "verify": (_run_verify, ("verify.only",), "run the acceptance check suite"),
}
SCENARIO_KINDS = tuple(_DISPATCH)


def run(cfg: dict, resolution_scale: float = 1.0) -> RunReport:
    """Dispatch a parsed scenario and assemble its report, converged or not.

    A key that the kind's runner does not read is rejected before any
    computation, so a misspelt key cannot fall back to a default.
    """
    kind = cfg.get("scenario")
    if kind not in _DISPATCH:
        raise ScenarioError(
            f"scenario: expected one of {', '.join(SCENARIO_KINDS)}, got {kind!r}")
    runner, keys, _ = _DISPATCH[kind]
    for key in cfg:
        if key != "scenario" and key not in keys:
            raise ScenarioError(f"{key}: not a {kind} key, expected one of {', '.join(keys)}")
    if not (math.isfinite(resolution_scale) and resolution_scale > 0):
        raise ScenarioError(f"resolution scale: expected a finite number > 0, "
                            f"got {resolution_scale!r}")
    values, convergence, checks = runner(cfg, resolution_scale)
    echo = dict(cfg)
    echo["effective.resolution_scale"] = repr(resolution_scale)
    return RunReport(scenario=echo, values=values, convergence=convergence,
                     checks=checks)


def emit_report(report: RunReport, out_path=None, fmt: str = "json") -> str:
    """Serialize a report; writes to out_path when given, always returns text."""
    if fmt == "json":
        text = report.to_json()
    elif fmt == "csv":
        text = report.to_csv()
    else:
        raise ScenarioError(f"format: expected json or csv, got {fmt!r}")
    if out_path:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text
