"""Collapse map construction, mapping degrees, and the preimage oracle."""

import numpy as np
import pytest

from oddchern.collapse import (CollapseMap, collapse_degree,
                               mapping_degree, signed_preimage_count,
                               smooth_step, volume_pullback_integral)
from oddchern.defaults import CHUNK
from oddchern.domains import ChartedSphereDomain
from oddchern.maps import antipodal_map, circle_power_map, identity_chart_map

COARSE = {1: 32, 2: 24, 3: 16}


def test_smooth_step_range_and_monotonicity():
    s = np.linspace(-1.0, 2.0, 301)
    y = smooth_step(s)
    assert np.all(y[s <= 0] == 0.0)
    assert np.all(y[s >= 1] == 1.0)
    assert np.all(np.diff(y) >= -1e-15)
    # Smooth at the left edge: tiny values, tiny slope.
    assert smooth_step(np.array([0.03]))[0] < 1e-10


def test_wedge_region_collapses_to_basepoint():
    phi = CollapseMap(2, 1, nodes_per_angle=COARSE)
    pts = phi.source.nodes()[::37]
    r = phi.local_radius(pts)
    far = r >= 2.0 * phi.radius
    assert far.any()
    out = phi.evaluate_ambient(pts[far])
    basepoint = np.zeros(4)
    basepoint[0] = 1.0
    assert np.abs(out - basepoint).max() < 1e-10


def test_identity_region_hits_target_sphere():
    phi = CollapseMap(2, 1, nodes_per_angle=COARSE)
    pts = phi.source.nodes()[::17]
    out = phi.evaluate_ambient(pts)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-10


def test_probe_point_lands_in_identity_region():
    phi = CollapseMap(2, 1, nodes_per_angle=COARSE)
    probe = phi.identity_region_probe()
    assert phi.local_radius(probe).max() < phi.radius


@pytest.mark.parametrize("spheres,expected", [([1], 1), ([2], -1), ([3], 1)])
def test_mapping_degree_of_antipodal_map(spheres, expected):
    dom = ChartedSphereDomain(spheres, nodes_per_angle=COARSE)
    r = mapping_degree(antipodal_map(dom))
    assert r.rounded == expected
    assert r.residual < 1e-8


def test_mapping_degree_identity():
    dom = ChartedSphereDomain([3], nodes_per_angle=COARSE)
    r = mapping_degree(identity_chart_map(dom))
    assert r.rounded == 1 and r.residual < 1e-8


@pytest.mark.parametrize("m", [-2, 1, 3])
def test_circle_power_degree(m):
    dom = ChartedSphereDomain([1], nodes_per_angle=COARSE)
    r = mapping_degree(circle_power_map(dom, m))
    assert r.rounded == m and r.residual < 1e-10


def test_concentrated_and_round_forms_agree():
    phi = CollapseMap(2, 1, nodes_per_angle=COARSE)
    round_form = volume_pullback_integral(phi, scale=2.0)
    cap_form = volume_pullback_integral(phi, scale=2.0, concentrated=True)
    assert abs(round_form - 1.0) < 1e-3
    assert abs(cap_form - 1.0) < 1e-5
    assert abs(round_form.imag) < 1e-10 and abs(cap_form.imag) < 1e-10


def test_collapse_degree_small_case():
    r = collapse_degree(2, 1)
    assert r.rounded == 1
    assert r.residual < 1e-4
    assert r.converged


def test_preimage_oracle_circle_power():
    dom = ChartedSphereDomain([1], nodes_per_angle=COARSE)
    rng = np.random.default_rng(3)
    total, count = signed_preimage_count(circle_power_map(dom, 3), [2.0], rng)
    assert total == 3
    assert count == 3


def test_preimage_oracle_collapse_map():
    phi = CollapseMap(2, 1, nodes_per_angle=COARSE)
    rng = np.random.default_rng(4)
    target = phi.target.angles_from_ambient_cols(
        [c for c in phi.evaluate_ambient(phi.identity_region_probe()).T])
    target = [float(t[0]) for t in target]
    total, count = signed_preimage_count(phi, target, rng)
    assert total == 1
    assert count == 1


def test_orientation_normalized_to_plus_one():
    for p, q in ((2, 1), (1, 2)):
        phi = CollapseMap(p, q, nodes_per_angle=COARSE)
        val = volume_pullback_integral(phi, scale=1.5, concentrated=True)
        assert round(val.real) == 1


def test_volume_pullback_does_not_depend_on_the_block_size():
    phi = CollapseMap(2, 1, nodes_per_angle=COARSE)
    assert phi.source.n_nodes > 2 * CHUNK
    for concentrated in (False, True):
        small = volume_pullback_integral(phi, chunk=997, concentrated=concentrated)
        assert abs(small - volume_pullback_integral(phi, concentrated=concentrated)) < 1e-13
