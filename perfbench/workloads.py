"""Benchmark workloads: fixed lists of operations with oracles known in advance.

An operation ("op") is one in-process call to a public entry point of
oddchern: ``scenarios.run`` followed by ``emit_report``, a ``verify.check_*``
function, or ``collapse.collapse_degree``.  ``attempt`` runs an op and judges
its result against its oracle; an op fails if it raises, if its integer
differs from the oracle, or if its report does not exit with 0.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
import time
from dataclasses import dataclass, field
from typing import Callable

from oddchern import collapse, scenarios, verify

# Winding numbers the sphere-chern workload draws from its seed.
WINDINGS = (-4, -3, -2, -1, 1, 2, 3, 4)


@dataclass(frozen=True)
class Op:
    """label names the inputs; run(span) returns (result, canonical text)."""

    label: str
    run: Callable
    judge: Callable  # result -> (failure reason or None, accuracy figures)


@dataclass
class Outcome:
    label: str
    ok: bool
    reason: str
    figures: dict = field(default_factory=dict)
    digest: str | None = None
    seconds: float = 0.0


def attempt(op: Op, span) -> Outcome:
    """Run one op and judge it; an exception is a failed op, never dropped."""
    t0 = time.perf_counter()
    try:
        result, text = op.run(span)
        seconds = time.perf_counter() - t0
        reason, figures = op.judge(result)
    except Exception as exc:  # noqa: BLE001 - every failure is counted
        return Outcome(op.label, False, f"raised {type(exc).__name__}: {exc}")
    digest = hashlib.sha256(text.encode()).hexdigest()
    return Outcome(op.label, reason is None, reason or "ok", figures, digest, seconds)


# -- op builders ---------------------------------------------------------------

def scenario_op(label, cfg, expected, extract, resolution_scale=1.0):
    """scenarios.run then emit_report; extract(values) -> (integer, figures)."""

    def run(span):
        with span("scenarios." + cfg["scenario"]):
            report = scenarios.run(dict(cfg), resolution_scale=resolution_scale)
        with span("scenarios.emit"):
            text = scenarios.emit_report(report)
        return report, text

    def judge(report):
        got, figures = extract(report.values)
        if report.exit_code != 0:
            return f"exit_code {report.exit_code}", figures
        if got != expected:
            return f"integer {got}, oracle {expected}", figures
        return None, figures

    return Op(label, run, judge)


def check_op(name, figure_pattern, bound):
    """A verify check whose detail string carries its accuracy figure."""
    fn = getattr(verify, name)

    def run(span):
        with span("verify." + name):
            result = fn()
        return result, json.dumps(result, sort_keys=True)

    def judge(result):
        figure = float(re.search(figure_pattern, result["detail"]).group(1))
        figures = {"figure": figure}
        if not (result["passed"] and result["converged"]):
            return f"check failed: {result['detail']}", figures
        if not figure < bound:
            return f"figure {figure:.3e} not below {bound:.0e}", figures
        return None, figures

    return Op(name, run, judge)


def collapse_op(p, q, expected=1):
    def run(span):
        with span("collapse.collapse_degree"):
            r = collapse.collapse_degree(p, q)
        text = json.dumps({
            "value": [r.value.real, r.value.imag],
            "rounded": r.rounded,
            "residual": r.residual,
            "converged": r.converged,
            "convergence": [[s, v.real, v.imag] for s, v in r.convergence],
        })
        return r, text

    def judge(r):
        figures = {"residual": r.residual}
        if not r.accepted:
            return (f"not accepted: residual {r.residual:.3e}, "
                    f"converged {r.converged}"), figures
        if r.rounded != expected:
            return f"integer {r.rounded}, oracle {expected}", figures
        return None, figures

    return Op(f"collapse_degree({p},{q})", run, judge)


def _deg_entry(values):
    entry = values["deg"]
    return entry["rounded"], {"residual": entry["residual"]}


def _point_entry(values):
    value = values["point_contribution"]
    return round(value[0]), {"residual": values["deg"]["residual"]}


def _gamma_entry(n, deg_star):
    """The gamma limit must equal (-1)^n deg*, and deg* its own oracle."""
    limit_oracle = (-1) ** n * deg_star

    def extract(values):
        lim, ds = values["gamma_limit"], values["deg_star"]
        figures = {
            "deg_star_residual": ds["residual"],
            "gamma_residual": math.hypot(lim[0] - limit_oracle, lim[1]),
            "two_path_gap": values["two_path_gap"],
        }
        return (round(lim[0]), ds["rounded"]), figures

    return (limit_oracle, deg_star), extract


# -- workloads -----------------------------------------------------------------

def sphere_chern(seed):
    """Odd spheres only, no collapse map: the forms kernel does the work.

    check_chern_simons_consistency is left out: one call takes about 21 s on
    one thread of a 2-vCPU Xeon VM, too long to repeat within a run.
    """
    rng = random.Random(seed)
    m, m_point = rng.choice(WINDINGS), rng.choice(WINDINGS)
    ops = [scenario_op(
        f"deg z^{m} on S1",
        {"scenario": "deg", "geometry.sphere": "1",
         "map.kind": "circle_winding", "map.m": str(m)},
        -m, _deg_entry)]
    for size in (2, 3):
        ops.append(scenario_op(
            f"deg su2 size {size} on S3",
            {"scenario": "deg", "geometry.sphere": "3",
             "map.kind": "su2_identity", "map.size": str(size)},
            -1, _deg_entry))
    ops.append(scenario_op(
        f"flz-point n=1 z^{m_point}",
        {"scenario": "flz-point", "geometry.n": "1",
         "map.kind": "circle_winding", "map.m": str(m_point)},
        -m_point, _point_entry))
    ops.append(check_op("check_transgression", r"max relative error (\S+)", 1e-4))
    return ops


def collapse_4d(seed):
    """The mapping-degree path: duals through the collapse map, no forms.

    S^3 x S^1 takes the same ladder and bump-form route as the
    five-dimensional sources at a twentieth of the nodes; collapse_degree(4, 1)
    alone takes about 50 s on one thread of a 2-vCPU Xeon VM, too long to
    repeat within a run.
    """
    del seed  # fixed input
    return [collapse_op(3, 1)]


# The coarsest resolution at which the deg* ladder of the gamma-limit op
# still converges; at full size the op takes about 70 s on one thread of a
# 2-vCPU Xeon VM.
GAMMA_RESOLUTION = 0.625


def gamma_limit(seed):
    """The super-connection path on S^2 x S^1 with 4 x 4 supertraces."""
    del seed  # fixed input
    p, q = 2, 1
    n = (p + q + 1) // 2
    # deg*(phi* h) = deg(h) = -1 for the SU(2) generator h.
    expected, extract = _gamma_entry(n, deg_star=-1)
    return [scenario_op(
        f"gamma-limit S2xS1 su2_identity scale {GAMMA_RESOLUTION}",
        {"scenario": "gamma-limit", "geometry.p": str(p), "geometry.q": str(q),
         "map.h.kind": "su2_identity"},
        expected, extract, resolution_scale=GAMMA_RESOLUTION)]


WORKLOADS = {
    "sphere-chern": sphere_chern,
    "collapse-4d": collapse_4d,
    "gamma-limit": gamma_limit,
}
