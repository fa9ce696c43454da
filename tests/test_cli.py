"""Command-line interface: subcommands, flags, exit codes, report files."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import oddchern
from oddchern import dual, scenarios
from oddchern.cli import main
from oddchern.defaults import DEGREE_LADDER
from oddchern.maps import DualMatrixMap

DEG_SCENARIO = """\
scenario = deg
geometry.sphere = 1
map.kind = circle_winding
map.m = 2
"""


def write(tmp_path, text, name="scenario.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_deg_subcommand_json(tmp_path, capsys):
    cfg = write(tmp_path, DEG_SCENARIO)
    code = main(["deg", "--config", cfg])
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert code == 0
    assert payload["values"]["deg"]["rounded"] == -2


def test_deg_subcommand_writes_report_file(tmp_path, capsys):
    cfg = write(tmp_path, DEG_SCENARIO)
    out_path = tmp_path / "report.json"
    code = main(["deg", "--config", cfg, "--out", str(out_path)])
    assert code == 0
    payload = json.loads(out_path.read_text(encoding="utf-8"))
    assert payload["values"]["deg"]["rounded"] == -2
    assert "ok" in capsys.readouterr().out


def test_csv_format(tmp_path):
    cfg = write(tmp_path, DEG_SCENARIO)
    out_path = tmp_path / "report.csv"
    code = main(["deg", "--config", cfg, "--out", str(out_path),
                 "--format", "csv"])
    assert code == 0
    first = out_path.read_text(encoding="utf-8").splitlines()[0]
    assert first == "section,name,re,im,extra"


def test_missing_config_is_usage_error(tmp_path, capsys):
    code = main(["deg", "--config", str(tmp_path / "absent.txt")])
    assert code == 64
    assert "error:" in capsys.readouterr().err


def test_malformed_config_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "scenario deg\n")
    assert main(["deg", "--config", cfg]) == 64


def test_subcommand_scenario_mismatch(tmp_path, capsys):
    cfg = write(tmp_path, DEG_SCENARIO)
    assert main(["flz-point", "--config", cfg]) == 64


def test_unknown_generator_is_usage_error(tmp_path, capsys):
    cfg = write(tmp_path, "scenario = deg\nmap.kind = mystery\n")
    assert main(["deg", "--config", cfg]) == 64


PRODUCT_KEYS = ("geometry.p, geometry.q, map.f.kind, map.f.size, map.f.m, "
                "map.h.kind, map.h.size, map.h.m")


@pytest.mark.parametrize("command,body,message", [
    # The collapse radius and the t-node count (gamma.t_nodes below) are
    # fixed, so no kind reads their keys.
    ("deg-star", "geometry.collapse_radius = -1\nmap.h.kind = su2_identity\n",
     f"geometry.collapse_radius: not a deg-star key, expected one of {PRODUCT_KEYS}"),
    ("gamma-limit", "geometry.collapse_radius = nan\nmap.h.kind = su2_identity\n",
     "geometry.collapse_radius: not a gamma-limit key"),
    ("deg", "geometry.sphere = 0\nmap.kind = circle_winding\n",
     "geometry.sphere: expected an integer >= 1, got 0"),
    ("deg", "geometry.sphere = 2\nmap.kind = circle_winding\n",
     "geometry.sphere: deg needs an odd sphere, got 2"),
    ("localize", "geometry.p = 0\nmap.h.kind = su2_identity\n",
     "geometry.p: expected an integer >= 1, got 0"),
    ("index-report", "geometry.q = -1\nmap.h.kind = su2_identity\n",
     "geometry.q: expected an integer >= 1, got -1"),
    ("deg-star", "geometry.p = 2\ngeometry.q = 2\nmap.h.kind = su2_identity\n",
     "geometry.p, geometry.q: boundary models need p + q odd, got 2 + 2"),
    ("flz-point", "geometry.n = 0\nmap.kind = circle_winding\n",
     "geometry.n: expected an integer >= 1, got 0"),
    ("gamma-limit", "gamma.t_nodes = 0\nmap.h.kind = su2_identity\n",
     "gamma.t_nodes: not a gamma-limit key"),
    ("localize", "gamma.t_nodes = -2\nmap.h.kind = su2_identity\n",
     "gamma.t_nodes: not a localize key"),
    ("gamma-limit", "gamma.T = nan\nmap.h.kind = su2_identity\n",
     "gamma.T: expected a positive number, got nan"),
    ("gamma-limit", "gamma.T = -8\nmap.h.kind = su2_identity\n",
     "gamma.T: expected a positive number, got -8.0"),
    ("deg", "map.kind = su2_identity\nmap.size = 0\n",
     "map.size: expected an integer >= 1, got 0"),
    ("deg-star", "map.f.kind = circle_winding\nmap.f.size = 0\nmap.h.kind = su2_identity\n",
     "map.f.size: expected an integer >= 1, got 0"),
    ("localize", "map.h.kind = su2_identity\nmap.h.size = -1\n",
     "map.h.size: expected an integer >= 1, got -1"),
    # Only a winding reads m; an su2 or constant map would ignore it.
    ("deg", "map.kind = su2_identity\nmap.m = 5\n",
     "map.m: only a circle_winding map takes m, not su2_identity"),
    ("deg-star", "map.f.kind = constant\nmap.f.m = 2\nmap.h.kind = su2_identity\n",
     "map.f.m: only a circle_winding map takes m, not constant"),
])
def test_bad_geometry_is_usage_error(tmp_path, capsys, command, body, message):
    cfg = write(tmp_path, f"scenario = {command}\n" + body)
    assert main([command, "--config", cfg]) == 64
    assert f"error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("command,body,message", [
    ("deg", "geometry.sphre = 3\nmap.kind = su2_identity\n",
     "geometry.sphre: not a deg key, expected one of geometry.sphere, map.kind, map.size, "
     "map.m"),
    ("deg", "geometry.n = 2\nmap.kind = su2_identity\n", "geometry.n: not a deg key"),
    ("flz-point", "geometry.n = 2\nmap.kind = su2_identity\nmap.h.kind = su2_identity\n",
     "map.h.kind: not a flz-point key"),
    ("gamma-limit", "map.h.kind = su2_identity\ngamma.T = 8\ngamma.t = 4\n",
     f"gamma.t: not a gamma-limit key, expected one of {PRODUCT_KEYS}, gamma.T"),
    ("verify", "gamma.T = 8\n", "gamma.T: not a verify key, expected one of verify.only"),
])
def test_unknown_key_is_usage_error(tmp_path, capsys, monkeypatch, command, body, message):
    # A misspelt key or another kind's key would otherwise fall back to a
    # default; it is rejected before any map is built.
    def no_map(cfg, prefix):
        raise AssertionError("a map was built")

    monkeypatch.setattr(scenarios, "_build_generator", no_map)
    cfg = write(tmp_path, f"scenario = {command}\n" + body)
    assert main([command, "--config", cfg]) == 64
    captured = capsys.readouterr()
    assert f"error: {message}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command,body,key,dim", [
    ("deg", "geometry.sphere = 7\nmap.kind = circle_winding\n", "geometry.sphere", 7),
    ("flz-point", "geometry.n = 4\nmap.kind = circle_winding\n", "geometry.n", 7),
    ("deg-star", "geometry.p = 4\ngeometry.q = 3\nmap.h.kind = su2_identity\n",
     "geometry.p, geometry.q", 7),
])
def test_chart_beyond_the_node_budget_is_usage_error(tmp_path, capsys, command, body, key, dim):
    cfg = write(tmp_path, f"scenario = {command}\n" + body)
    assert main([command, "--config", cfg]) == 64
    assert (f"error: {key}: a {dim}-dimensional chart is beyond NODES_PER_ANGLE, "
            f"whose largest key is 5") in capsys.readouterr().err


def test_singular_map_is_usage_error(tmp_path, capsys, monkeypatch):
    # No scenario map kind is singular, so the builder is replaced by the
    # zero map, singular at every node.
    def zero_map(cfg, prefix):
        return DualMatrixMap(lambda cols: [[0.0 * cols[0]]], 1)

    monkeypatch.setattr(scenarios, "_build_generator", zero_map)
    cfg = write(tmp_path, DEG_SCENARIO)
    assert main(["deg", "--config", cfg]) == 64
    assert "error: matrix map singular at sample point index 0" in capsys.readouterr().err


def test_verify_rejects_a_resolution_scale(capsys):
    # verify's checks run on their own fixed grids, so a scale would be
    # echoed without taking effect.
    assert main(["verify", "--resolution-scale", "0.5"]) == 64
    captured = capsys.readouterr()
    assert "error: resolution scale: verify runs every check" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf", "-inf"])
def test_a_resolution_scale_that_is_not_finite_and_positive_is_usage_error(tmp_path, capsys,
                                                                           scale):
    # Such a scale used to be echoed (-1, 0), fail as unconverged (nan) or
    # overflow a node count (inf).
    cfg = write(tmp_path, DEG_SCENARIO)
    assert main(["deg", "--config", cfg, f"--resolution-scale={scale}"]) == 64
    captured = capsys.readouterr()
    assert "error: resolution scale: expected a finite number > 0" in captured.err
    assert captured.out == ""


def test_verify_rejects_an_unknown_check(tmp_path, capsys):
    cfg = write(tmp_path, "scenario = verify\nverify.only = gausian moment, point case\n")
    assert main(["verify", "--config", cfg]) == 64
    captured = capsys.readouterr()
    assert "error: verify.only: unknown check 'gausian moment'" in captured.err
    assert captured.out == ""


def clutching_map(cfg, prefix):
    # [[z^3, z/2], [5 conj(z)^2/8, 1]] has degree -3, but on 32 nodes of S^1
    # DEGREE_LADDER's last step is 5.8e-6, above its 1e-6 tolerance.
    def fn(cols):
        z = cols[0] + 1j * cols[1]
        return [[z ** 3, 0.5 * z], [0.625 * dual.conj(z) ** 2, 1.0 + 0.0 * cols[0]]]

    return DualMatrixMap(fn, 2)


@pytest.mark.parametrize("command,check", [
    ("deg", "deg integral quantizes"),
    ("flz-point", "point case quantizes"),
])
def test_unconverged_degree_prints_its_report_and_exits_3(
        tmp_path, capsys, monkeypatch, command, check):
    monkeypatch.setattr(scenarios, "_build_generator", clutching_map)
    cfg = write(tmp_path, f"scenario = {command}\nmap.kind = circle_winding\n")
    code = main([command, "--config", cfg, "--resolution-scale", "0.5"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert payload["checks"] == [{"name": check, "passed": False, "converged": False}]
    assert payload["values"]["deg"]["rounded"] == -3
    assert len(payload["convergence"]["deg"]) == len(DEGREE_LADDER.scales)


@pytest.mark.parametrize("command,check", [
    ("deg-star", "deg* integral quantizes"),
    ("localize", "degree path equals gamma path"),
    ("index-report", "index integral quantizes"),
])
def test_unconverged_deg_star_prints_its_report_and_exits_3(tmp_path, capsys,
                                                            command, check):
    # At scale 0.2 the phi* su2 ladder's one step, on the ball chart's 160
    # and 1,280 nodes, reads 1.0e-2 against SPLIT_LADDER's 2e-4 tolerance.
    cfg = write(tmp_path, f"""\
scenario = {command}
geometry.p = 2
geometry.q = 1
map.h.kind = su2_identity
""")
    code = main([command, "--config", cfg, "--resolution-scale", "0.2"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 3
    assert [c["name"] for c in payload["checks"]] == [check]
    assert payload["checks"][0]["converged"] is False
    assert len(payload["convergence"]["deg_star"]) == 2


PHI_SU2 = """\
geometry.p = 2
geometry.q = 1
map.h.kind = su2_identity
"""


def test_unconverged_check_has_its_own_status_line(tmp_path, capsys):
    # At scale 0.2 both gamma paths agree and the limit equals (-1)^n deg*,
    # but the deg* ladder they rest on ends unconverged.
    cfg = write(tmp_path, "scenario = gamma-limit\n" + PHI_SU2)
    out_path = tmp_path / "report.json"
    code = main(["gamma-limit", "--config", cfg, "--resolution-scale", "0.2",
                 "--out", str(out_path)])
    checks = json.loads(out_path.read_text(encoding="utf-8"))["checks"]
    assert code == 3
    assert [(c["passed"], c["converged"]) for c in checks] == [(True, False)] * 2
    assert capsys.readouterr().out.splitlines() == [
        "UNCONVERGED two gamma paths agree",
        "UNCONVERGED gamma limit equals (-1)^n deg*",
    ]


def test_gamma_limit_at_a_large_T_keeps_both_paths_together(tmp_path, capsys):
    # The t-integral is closed-form, so e^(-t^2) is resolved at any T: a
    # fixed 200-node t-quadrature on [0, 1000] parted the two paths by 4e-6.
    cfg = write(tmp_path, "scenario = gamma-limit\n" + PHI_SU2 + "gamma.T = 1000\n")
    assert main(["gamma-limit", "--config", cfg, "--resolution-scale", "0.75"]) == 0
    assert json.loads(capsys.readouterr().out)["values"]["two_path_gap"] < 1e-14


def test_singular_pole_value_is_usage_error_on_the_ball(tmp_path, capsys, monkeypatch):
    # h = (1 - x1) Id is singular only at the pole, the value of phi* h
    # outside the ball chart; the sweep of the ladder's first level, 160
    # nodes at scale 0.2, names index 160, one past its grid.
    def singular_at_the_pole(cfg, prefix):
        def fn(cols):
            zero = 0.0 * cols[0]
            return [[1.0 - cols[0], zero], [zero, 1.0 - cols[0]]]
        return DualMatrixMap(fn, 2)

    monkeypatch.setattr(scenarios, "_build_generator", singular_at_the_pole)
    cfg = write(tmp_path, "scenario = deg-star\n" + PHI_SU2)
    assert main(["deg-star", "--config", cfg, "--resolution-scale", "0.2"]) == 64
    assert "error: matrix map singular at sample point index 160" in capsys.readouterr().err


def test_flz_point_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, """\
scenario = flz-point
geometry.n = 1
map.kind = circle_winding
map.m = 1
""")
    code = main(["flz-point", "--config", cfg])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["values"]["point_contribution"] == [-1.0, 0.0]


def test_verify_subcommand_named_checks(tmp_path, capsys):
    cfg = write(tmp_path, """\
scenario = verify
verify.only = gaussian moment, point case
""")
    code = main(["verify", "--config", cfg])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    names = {c["name"] for c in payload["checks"]}
    assert names == {"gaussian moment", "point case"}
    assert all(c["passed"] for c in payload["checks"])


@pytest.mark.slow
def test_deg_star_split_example(tmp_path, capsys):
    cfg = write(tmp_path, """\
scenario = deg-star
geometry.p = 2
geometry.q = 1
map.f.kind = circle_winding
map.f.m = 3
map.h.kind = su2_identity
""")
    code = main(["deg-star", "--config", cfg, "--resolution-scale", "0.75"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["values"]["deg_star"]["rounded"] == -1
    assert payload["values"]["deg_h_oracle"]["rounded"] == -1


@pytest.mark.slow
def test_localize_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, """\
scenario = localize
geometry.p = 2
geometry.q = 1
map.h.kind = su2_identity
""")
    code = main(["localize", "--config", cfg, "--resolution-scale", "0.75"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["values"]["localized_value"] == [1.0, 0.0]


@pytest.mark.slow
def test_index_report_subcommand(tmp_path, capsys):
    cfg = write(tmp_path, """\
scenario = index-report
geometry.p = 2
geometry.q = 1
map.h.kind = su2_identity
""")
    code = main(["index-report", "--config", cfg, "--resolution-scale", "0.75"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    assert payload["values"]["index"] == [-1.0, 0.0]
    assert payload["values"]["deg_star"]["rounded"] == -1


# Imports oddchern, then numpy, and prints the thread count OpenBLAS uses
# ("None" when no loaded OpenBLAS exposes it).
OPENBLAS_THREADS_PROBE = """\
import ctypes
import oddchern
import numpy
count = None
try:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
except OSError:
    libs = []
for lib in libs:
    try:
        handle = ctypes.CDLL(lib)
    except OSError:
        continue
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
        fn = getattr(handle, symbol, None)
        if fn is not None and count is None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            count = fn()
print(count)
"""


def test_chern_threads_caps_openblas():
    if (os.cpu_count() or 1) < 2:
        pytest.skip("a one-thread cap is indistinguishable on one CPU")
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}
    env["CHERN_THREADS"] = "1"
    src = str(Path(oddchern.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", OPENBLAS_THREADS_PROBE], env=env,
                         capture_output=True, text=True, check=True, timeout=120)
    count = out.stdout.strip()
    if count == "None":
        pytest.skip("no OpenBLAS thread-count symbol in this numpy build")
    assert count == "1"
