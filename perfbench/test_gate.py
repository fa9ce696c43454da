"""Tests of the benchmark itself: the oracle gate, the digests and the tracer.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import contextlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import pytest  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from oddchern import scenarios  # noqa: E402

DEG_Z2 = {"scenario": "deg", "geometry.sphere": "1",
          "map.kind": "circle_winding", "map.m": "2"}


_span = contextlib.nullcontext


def _canned(report, judge_from):
    """An op that returns a fixed report and judges it like judge_from."""
    return workloads.Op("canned", lambda span: (report, report.to_json()),
                        judge_from.judge)


def test_correct_op_passes():
    op = workloads.scenario_op("deg z^2", DEG_Z2, -2, workloads._deg_entry)
    out = workloads.attempt(op, _span)
    assert out.ok, out.reason
    assert out.figures["residual"] < 1e-12
    assert out.digest


def test_wrong_expected_integer_fails():
    op = workloads.scenario_op("deg z^2", DEG_Z2, +2, workloads._deg_entry)
    out = workloads.attempt(op, _span)
    assert not out.ok
    assert "oracle 2" in out.reason


def test_nonzero_exit_code_fails():
    report = scenarios.run(dict(DEG_Z2))
    report.checks[0]["passed"] = False
    assert report.exit_code == scenarios.EXIT_ORACLE_MISMATCH
    op = workloads.scenario_op("deg z^2", DEG_Z2, -2, workloads._deg_entry)
    out = workloads.attempt(_canned(report, op), _span)
    assert not out.ok
    assert out.reason == "exit_code 2"


def test_gamma_oracle_needs_both_integers():
    expected, extract = workloads._gamma_entry(n=2, deg_star=-1)
    values = {"gamma_limit": [-0.9999994, 0.0], "two_path_gap": 1e-15,
              "deg_star": {"rounded": -1, "residual": 6e-7}}
    assert extract(values)[0] == expected
    values["deg_star"]["rounded"] = 1
    assert extract(values)[0] != expected


def test_exception_is_counted_not_dropped():
    def boom(span):
        raise ValueError("singular")

    out = workloads.attempt(workloads.Op("boom", boom, None), _span)
    assert not out.ok
    assert out.reason == "raised ValueError: singular"


def test_digest_mismatch_between_passes_and_runs():
    def passes(*digests):
        return [{"outcomes": [{"label": "a", "digest": d}]} for d in digests]

    assert run.check_digests(passes("x", "x"), {}) == set()
    assert run.check_digests(passes("x", "y"), {}) == {"a"}
    known = {"a": "x"}
    assert run.check_digests(passes("y"), known) == {"a"}
    known = {}
    run.check_digests(passes("x"), known)
    assert known == {"a": "x"}


def test_min_digits():
    assert run.min_digits([7.37e-5, 1e-9]) == pytest.approx(4.1325, abs=1e-4)
    assert run.min_digits([0.0, 1e-20]) == 14.0


def test_benchmark_json_matches_tables():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert spec["per_layer"] == [{"name": n, "unit": u, "better": b}
                                 for n, u, b, _ in tracing.LAYER_METRICS]
    e2e = run.end_to_end({"passes": [{"seconds": 1.0, "ref_s": 2 * run.REF_S, "outcomes": [
        {"ok": True, "figures": {"r": 1e-6}}]}], "peak_rss_mb": 1.0}, [0.1])
    assert e2e["solve_s"] == (0.5, "s")
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["unit"] for m in spec["end_to_end"]] == [u for _, u in e2e.values()]


def test_tracing_keeps_results_and_reports_every_layer():
    ops = [workloads.scenario_op("deg z^2", DEG_Z2, -2, workloads._deg_entry),
           workloads.scenario_op(
               "deg su2", {"scenario": "deg", "geometry.sphere": "3",
                           "map.kind": "su2_identity"}, -1, workloads._deg_entry)]
    plain = [workloads.attempt(op, _span).digest for op in ops]
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        root = tracer.open("pass")
        traced = [workloads.attempt(op, tracer.span) for op in ops]
        tracer.close(root)
    finally:
        restore()
    assert [o.digest for o in traced] == plain
    assert all(o.ok for o in traced)
    layers = tracing.pass_metrics(tracer.spans, root, 1.0, 0.0)
    assert list(layers) == [name for name, _, _, _ in tracing.LAYER_METRICS]
    assert layers["forms.wedge.calls"] > 0
    assert layers["collapse.ambient.calls"] == 0
    assert layers["chern.ladder.levels"] == layers["domains.grids"]
    assert layers["domains.nodes"] == layers["chern.ladder.nodes"]


def test_self_time_subtracts_children():
    spans = [["pass", 0.0, 10.0, -1, None],
             ["scenarios.deg", 1.0, 9.0, 0, None],
             ["forms.wedge", 2.0, 5.0, 1, {"products": 2, "flop": 4e9}],
             ["forms.exp", 5.0, 8.0, 1, None],
             ["forms.wedge", 6.0, 7.0, 3, {"products": 1, "flop": 2e9}]]
    m = tracing.pass_metrics(spans, 0, 9.5, 0.0)
    assert m["forms.wedge.self_s"] == 4.0
    assert m["forms.exp.self_s"] == 2.0
    assert m["scenarios.deg.s"] == 8.0
    assert m["process.unattributed_s"] == 2.0
    assert m["forms.wedge.gflops"] == pytest.approx(6.0 / 4.0)
