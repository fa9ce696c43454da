"""The per-layer benchmark's hooks still find every name they patch.

perfbench/tracing.py wraps oddchern functions and methods by name at run
time.  A refactor that drops or renames one of them makes ``install`` fail,
which would otherwise only show when the benchmark runs with ``--trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

import oddchern  # noqa: F401 - loads every submodule that install patches
from oddchern.collapse import CollapseMap, volume_pullback_integral
from oddchern.defaults import CHUNK

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def package_state():
    """Every module global and class attribute of the loaded oddchern modules."""
    state = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not mod_name.startswith("oddchern"):
            continue
        for key, val in vars(mod).items():
            state[mod_name, key] = val
            if isinstance(val, type) and val.__module__ == mod_name:
                for attr, member in vars(val).items():
                    state[mod_name, key, attr] = member
    return state


def test_install_patches_and_restore_undoes_every_patch():
    tracing = load_tracing()
    before = package_state()
    restore = tracing.install(tracing.Tracer())
    try:
        during = package_state()
    finally:
        restore()
    after = package_state()
    patched = {key for key, val in before.items() if during.get(key) is not val}
    assert ("oddchern.forms", "GradedMatrixForm", "wedge") in patched
    assert ("oddchern.chern", "maurer_cartan") in patched
    assert ("oddchern.superconn", "_gamma_top_integral") in patched
    assert after.keys() == before.keys()
    assert [key for key, val in before.items() if after[key] is not val] == []


def test_trace_sees_the_ball_chart_grid():
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        volume_pullback_integral(CollapseMap(3, 1, resolution=0.25).ball())
    finally:
        restore()
    names = [span[0] for span in tracer.spans]
    assert "domains.grid" in names and "domains.embed" in names
    assert [span[4] for span in tracer.spans if span[0] == "domains.grid"] == [{"nodes": 12 * 4 ** 3}]


def test_trace_sees_one_jacobian_per_node_block_of_the_pullback():
    ball_map = CollapseMap(3, 1).ball()
    tracing = load_tracing()
    tracer = tracing.Tracer()
    restore = tracing.install(tracer)
    try:
        volume_pullback_integral(ball_map)
    finally:
        restore()
    names = [span[0] for span in tracer.spans]
    assert names.count("maps.jacobian") == len(list(ball_map.source.node_blocks(CHUNK))) == 3
