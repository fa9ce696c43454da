"""Scenario parsing, dispatch, and report serialization."""

import json

import pytest

from oddchern import superconn, verify
from oddchern.chern import deg_star
from oddchern.collapse import CollapseMap
from oddchern.defaults import GAMMA_COARSE_SCALE, SPLIT_LADDER
from oddchern.maps import compose_map_with_matrix, su2_identity
from oddchern.results import DegreeResult
from oddchern.scenarios import (RunReport, ScenarioError, emit_report,
                                parse_scenario, run)


def test_parse_scenario_basic():
    cfg = parse_scenario("""
# a comment
scenario = deg
map.kind = circle_winding   # trailing comment
map.m = 2
""")
    assert cfg == {"scenario": "deg", "map.kind": "circle_winding",
                   "map.m": "2"}


def test_parse_scenario_rejects_bad_lines():
    with pytest.raises(ScenarioError):
        parse_scenario("scenario deg\n")
    with pytest.raises(ScenarioError):
        parse_scenario("= value\n")
    with pytest.raises(ScenarioError):
        parse_scenario("a = 1\na = 2\n")


def test_run_rejects_unknown_scenario():
    with pytest.raises(ScenarioError):
        run({"scenario": "what"})
    with pytest.raises(ScenarioError):
        run({})


def test_run_rejects_bad_map_kind():
    with pytest.raises(ScenarioError):
        run({"scenario": "deg", "map.kind": "nope"})
    with pytest.raises(ScenarioError):
        run({"scenario": "deg", "map.kind": "circle_winding", "map.m": "x"})


DEG_CFG = {"scenario": "deg", "geometry.sphere": "1",
           "map.kind": "circle_winding", "map.m": "2"}


def test_deg_scenario_value():
    report = run(dict(DEG_CFG))
    entry = report.values["deg"]
    assert entry["rounded"] == -2
    assert entry["residual"] < 1e-10
    assert report.exit_code == 0
    assert all(c["passed"] for c in report.checks)


def test_json_report_is_deterministic_and_round_trips():
    a = run(dict(DEG_CFG)).to_json()
    b = run(dict(DEG_CFG)).to_json()
    assert a == b
    payload = json.loads(a)
    assert payload["values"]["deg"]["rounded"] == -2
    re, im = payload["values"]["deg"]["value"]
    assert json.loads(json.dumps(re)) == re  # floats survive re-parse bitwise
    assert abs(complex(re, im) - (-2.0)) < 1e-10


def test_csv_report_has_header_and_rows():
    report = run(dict(DEG_CFG))
    text = report.to_csv()
    lines = text.splitlines()
    assert lines[0] == "section,name,re,im,extra"
    assert any(line.startswith("value,deg,") for line in lines)
    assert any(line.startswith("convergence,deg,") for line in lines)
    assert any(line.startswith("check,") for line in lines)


def test_empty_report_csv_is_header_only():
    report = RunReport(scenario={}, values={}, convergence={}, checks=[])
    assert report.to_csv() == "section,name,re,im,extra\n"
    assert report.exit_code == 0


def test_emit_report_writes_file(tmp_path):
    report = run(dict(DEG_CFG))
    out = tmp_path / "report.json"
    text = emit_report(report, out_path=str(out), fmt="json")
    assert out.read_text(encoding="utf-8") == text
    with pytest.raises(ScenarioError):
        emit_report(report, fmt="yaml")


def test_flz_scenario():
    report = run({"scenario": "flz-point", "geometry.n": "1",
                  "map.kind": "circle_winding", "map.m": "-2"})
    assert report.values["point_contribution"] == [2.0, 0.0]
    assert report.exit_code == 0


def test_report_echoes_effective_settings():
    report = run(dict(DEG_CFG), resolution_scale=1.0)
    assert report.scenario["effective.resolution_scale"] == "1.0"
    assert report.scenario == {**DEG_CFG, "effective.resolution_scale": "1.0"}


def test_gamma_resolution_rows_name_their_grids():
    # The limit row is the model's own grid, the same grid as the deg*
    # ladder's last level; the coarse row is the coarse model's grid.
    report = run({"scenario": "gamma-limit", "geometry.p": "2", "geometry.q": "1",
                  "map.h.kind": "su2_identity"}, resolution_scale=0.625)
    rows = report.convergence["gamma_vs_resolution"]
    assert rows[-1][0] == report.convergence["deg_star"][-1][0]
    assert rows[-1][1:3] == report.values["gamma_limit"]
    assert [row[0] for row in rows] == [GAMMA_COARSE_SCALE, SPLIT_LADDER.scales[-1]]


def test_deg_star_report_sweeps_the_ball_at_the_resolution_scale():
    # A pure pullback's report reads deg* on the collapse map's ball chart,
    # built at the run's resolution like every other chart.
    report = run({"scenario": "deg-star", "geometry.p": "2", "geometry.q": "1",
                  "map.h.kind": "su2_identity"}, resolution_scale=0.625)
    ball = CollapseMap(2, 1, resolution=0.625).ball()
    ref = deg_star(compose_map_with_matrix(ball, su2_identity()), ball.source, SPLIT_LADDER)
    assert [row[:3] for row in report.convergence["deg_star"]] \
        == [[s, v.real, v.imag] for s, v in ref.convergence]


def test_unconverged_point_case_is_reported_among_the_other_checks(monkeypatch):
    # An unconverged point-case degree fails its own check and leaves the
    # checks around it to run.
    real_deg = superconn.deg

    def unconverged_deg(v, domain):
        r = real_deg(v, domain)
        return DegreeResult.from_value(r.value, r.convergence, False)

    monkeypatch.setattr(superconn, "deg", unconverged_deg)
    only = ("winding quantization", "gaussian moment", "point case")
    results = {r["name"]: r for r in verify.run_all_checks(only=only)}
    assert set(results) == set(only)
    assert results["point case"]["passed"] is False
    assert results["point case"]["converged"] is False
    assert results["winding quantization"]["passed"]
    assert results["gaussian moment"]["passed"]
    report = run({"scenario": "verify", "verify.only": ", ".join(only)})
    assert report.exit_code == 3
