"""Collapse map construction, mapping degrees, and the preimage oracle."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import oddchern
from oddchern import collapse, domains, dual
from oddchern.collapse import (CollapseMap, collapse_degree, mapping_degree,
                               smooth_step, volume_pullback_integral)
from oddchern.defaults import CHUNK, COLLAPSE_LADDER, COLLAPSE_RADIUS
from oddchern.domains import (ChartedSphereDomain, embed_sphere,
                              sphere_angles_from_ambient, sphere_volume)
from oddchern.maps import (ChartMap, antipodal_map, circle_power_map,
                           compose_map_with_matrix, identity_chart_map, su2_identity)
from oddchern.scenarios import run
from reference import evaluate_ambient, local_radius, signed_preimage_count, sphere_sqrtg

COARSE = 0.5  # resolution: 32, 24 and 16 nodes per angle on S^1, S^2 and S^3


def identity_region_probe(phi):
    """A product-chart point that phi maps by the pure inverse-stereographic composite."""
    pt = np.full((1, phi.source.dim), 2.5)
    pt[0, phi.p - 1] = 2.2 if phi.p > 1 else 2.5
    pt[0, -1] = 2.9
    return pt


def _inverse_stereographic(w):
    """Stereographic coordinates -> unit vector in R^(len(w)+1), dual-safe.

    Inverts sigma(x) = x[1:] / (1 - x[0]), the projection from the basepoint
    x[0] = 1 that CollapseMap reads its factors through.
    """
    s = sum(wi * wi for wi in w)
    d = 1.0 / (1.0 + s)
    return [(s - 1.0) * d] + [2.0 * wi * d for wi in w]


def product_embedding_of_the_ball(p, pts):
    """The product ambient columns of S^p x S^q at ball chart points, seeded
    along every chart direction: each factor's block of w = r u through the
    inverse stereographic projection."""
    r, *rest = dual.seed_all(list(pts.T))
    w = [r * u for u in embed_sphere(rest, len(rest))]
    return _inverse_stereographic(w[:p]) + _inverse_stereographic(w[p:])


def test_smooth_step_range_and_monotonicity():
    s = np.linspace(-1.0, 2.0, 301)
    y = smooth_step(s)
    assert np.all(y[s <= 0] == 0.0)
    assert np.all(y[s >= 1] == 1.0)
    assert np.all(np.diff(y) >= -1e-15)
    # Smooth at the left edge: tiny values, tiny slope.
    assert smooth_step(np.array([0.03]))[0] < 1e-10


def test_wedge_region_collapses_to_basepoint():
    phi = CollapseMap(2, 1, resolution=COARSE)
    pts = phi.source.nodes()[::37]
    r = local_radius(phi, pts)
    far = r >= 2.0 * COLLAPSE_RADIUS
    assert far.any()
    out = evaluate_ambient(phi, pts[far])
    basepoint = np.zeros(4)
    basepoint[0] = 1.0
    assert np.abs(out - basepoint).max() < 1e-10


def test_identity_region_hits_target_sphere():
    phi = CollapseMap(2, 1, resolution=COARSE)
    pts = phi.source.nodes()[::17]
    out = evaluate_ambient(phi, pts)
    assert np.abs(np.linalg.norm(out, axis=1) - 1.0).max() < 1e-10


def test_probe_point_lands_in_identity_region():
    phi = CollapseMap(2, 1, resolution=COARSE)
    probe = identity_region_probe(phi)
    assert local_radius(phi, probe).max() < COLLAPSE_RADIUS


def random_angles(rng, m, npts=64):
    """npts random interior hyperspherical angle points of S^m, (npts, m)."""
    return rng.uniform(0.0, [np.pi] * (m - 1) + [2.0 * np.pi], size=(npts, m))


def jet_dets(rows, npts):
    """Per-node determinants of square jet rows (dual.jet_rows) on npts points."""
    return np.linalg.det(jet_array(rows, (npts,)).transpose(2, 0, 1))


@pytest.mark.parametrize("p,q", [(p, q) for p in range(1, 5) for q in range(1, 6 - p)])
def test_the_derived_orientation_holds_at_random_interior_points(p, q):
    # The signs that the domains and collapse module docstrings derive.
    rng = np.random.default_rng([p, q])
    for m in (p, q, p + q):
        amb = embed_sphere(dual.seed_all(list(random_angles(rng, m).T)), m)
        assert np.all(jet_dets(dual.jet_rows(amb, m), 64) > 0)
    # The ball's chart to the product angles, at r in (0, 2R).
    r = rng.uniform(0.0, 2.0 * COLLAPSE_RADIUS, size=(64, 1))
    amb = product_embedding_of_the_ball(p, np.hstack([r, random_angles(rng, p + q - 1)]))
    angles = (sphere_angles_from_ambient(amb[:p + 1], p)
              + sphere_angles_from_ambient(amb[p + 1:], q))
    assert np.all(jet_dets([row[1:] for row in dual.jet_rows(angles, p + q)], 64) > 0)
    # phi on the ball, at r < R, where it is the inverse stereographic
    # projection of w.
    phi = CollapseMap(p, q)
    ball = phi.ball()
    r = rng.uniform(0.0, COLLAPSE_RADIUS, size=(64, 1))
    pts = np.hstack([r, random_angles(rng, p + q - 1)])
    assert np.all(jet_dets(ball.ambient_jacobian_columns(pts), 64) > 0)
    if (p, q) == (2, 1):
        # Its last two target coordinates swapped back, phi has degree -1.
        mirrored = ChartMap(ball.source, ball.target,
                            lambda cols: phi._swapped(phi._on_ball(cols)))
        assert mapping_degree(mirrored, COLLAPSE_LADDER).rounded == -1


def _count_product_charts(monkeypatch):
    calls = []
    product = ChartedSphereDomain.product

    def counting(*args, **kw):
        calls.append(args)
        return product(*args, **kw)

    monkeypatch.setattr(ChartedSphereDomain, "product", staticmethod(counting))
    return calls


def test_pure_pullbacks_build_no_product_chart(monkeypatch):
    calls = _count_product_charts(monkeypatch)
    assert collapse_degree(3, 1).rounded == 1
    run({"scenario": "gamma-limit", "geometry.p": "2", "geometry.q": "1",
         "map.h.kind": "su2_identity"}, resolution_scale=0.625)
    assert calls == []


def test_a_split_map_builds_the_product_chart_once(monkeypatch):
    calls = _count_product_charts(monkeypatch)
    run({"scenario": "deg-star", "geometry.p": "2", "geometry.q": "1",
         "map.f.kind": "circle_winding", "map.f.m": "1",
         "map.h.kind": "su2_identity"}, resolution_scale=0.25)
    assert calls == [(2, 1)]


@pytest.mark.parametrize("spheres,expected", [([1], 1), ([2], -1), ([3], 1), ([4], -1)])
def test_mapping_degree_of_antipodal_map(spheres, expected):
    dom = ChartedSphereDomain(spheres, resolution=0.5)
    r = mapping_degree(antipodal_map(dom))
    assert r.rounded == expected
    assert r.residual < 1e-8


def test_mapping_degree_identity():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    r = mapping_degree(identity_chart_map(dom))
    assert r.rounded == 1 and r.residual < 1e-8


@pytest.mark.parametrize("m", [-2, 1, 3])
def test_circle_power_degree(m):
    dom = ChartedSphereDomain([1], resolution=COARSE)
    r = mapping_degree(circle_power_map(dom, m))
    assert r.rounded == m and r.residual < 1e-10


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_ball_chart_weights_integrate_the_ball_volume(m):
    ball = ChartedSphereDomain.ball(1, m - 1).at_scale(1.5)
    total = 0.0
    for block in ball.node_blocks(CHUNK):
        pts, w = block.points(), block.weights()
        angles = [pts[:, i] for i in range(1, m)]
        total += np.sum(w * pts[:, 0] ** (m - 1) * sphere_sqrtg(angles, m - 1))
    exact = sphere_volume(m - 1) * (2.0 * COLLAPSE_RADIUS) ** m / m
    assert abs(total / exact - 1.0) < 1e-12


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2)])
def test_ball_chart_degree_agrees_with_the_angle_chart(p, q):
    r = collapse_degree(p, q)
    assert r.rounded == 1
    phi = CollapseMap(p, q, resolution=COARSE)
    angle_chart = volume_pullback_integral(phi, scale=2.0)
    assert abs(r.value - angle_chart) < 1e-3
    assert abs(r.value.imag) < 1e-10 and abs(angle_chart.imag) < 1e-10


def test_collapse_degree_small_case():
    for p, q in ((2, 1), (1, 2), (3, 1)):
        r = collapse_degree(p, q)
        assert r.rounded == 1
        assert r.residual < 1e-8
        assert r.converged


def test_preimage_oracle_circle_power():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    rng = np.random.default_rng(3)
    total, count = signed_preimage_count(circle_power_map(dom, 3), [2.0], rng)
    assert total == 3
    assert count == 3


def test_preimage_oracle_collapse_map():
    for p, q in ((2, 1), (1, 2)):
        phi = CollapseMap(p, q, resolution=COARSE)
        rng = np.random.default_rng(4)
        target = phi.target.angles_from_ambient_cols(
            [c for c in evaluate_ambient(phi, identity_region_probe(phi)).T])
        target = [float(t[0]) for t in target]
        total, count = signed_preimage_count(phi, target, rng)
        assert total == 1
        assert count == 1


def test_volume_pullback_does_not_depend_on_the_block_size(monkeypatch):
    maps = (CollapseMap(2, 1, resolution=COARSE), CollapseMap(3, 1).ball())
    assert all(chart_map.source.n_nodes > 2 * CHUNK for chart_map in maps)
    default = [volume_pullback_integral(chart_map) for chart_map in maps]
    monkeypatch.setattr(domains, "CHUNK", 997)
    for chart_map, want in zip(maps, default):
        assert abs(volume_pullback_integral(chart_map) - want) < 1e-13


def jet_array(rows, shape):
    """Jet rows (dual.jet_rows) on a block or point array of that shape as one
    (k, 1 + d, npts) array: per ambient column its value, then its derivatives."""
    return np.array([[np.broadcast_to(e, shape).reshape(-1) for e in row] for row in rows])


def lapack_volume_pullback(chart_map):
    """volume_pullback_integral's sum, with every node's determinant taken by
    LAPACK on the same jet rows, broadcast to each block."""
    src = chart_map.source
    total = 0.0
    for block in src.node_blocks(CHUNK):
        jet = jet_array(chart_map.ambient_jacobian_columns(block), block.shape)
        dets = np.linalg.det(jet.transpose(2, 1, 0))
        total += np.sum(block.weights() * dets)
    return complex(total / chart_map.target.volume())


@pytest.mark.parametrize("case", ["ball 2 1", "ball 1 2", "ball 3 1", "ball 4 1", "ball 2 3",
                                  "identity 1", "identity 2", "identity 3",
                                  "antipodal 1", "antipodal 2", "antipodal 3"])
def test_volume_pullback_matches_a_lapack_reference(case):
    kind, *dims = case.split()
    if kind == "ball":
        chart_map = CollapseMap(*map(int, dims)).ball()
    else:
        dom = ChartedSphereDomain.sphere(int(dims[0]), resolution=COARSE)
        chart_map = (identity_chart_map if kind == "identity" else antipodal_map)(dom)
    got = volume_pullback_integral(chart_map)
    assert abs(got - lapack_volume_pullback(chart_map)) < 1e-14


def test_volume_pullback_peak_memory_is_the_jet_columns_and_the_widest_minors():
    # The (3,1) ball's blocks have npts = 16 * 8 * 8 * 8 nodes; a row is one
    # float per node.  Two of the jet's five ambient columns vary on all four
    # axes, so the jet holds 2 * (1 + 4) rows.  With those rows expanded
    # last, the determinant needs the five 4 x 4 minors below the top row,
    # plus that row's accumulator and term: 7 rows.  The weights, their
    # product with the determinant and the previous block's determinant add
    # 3.  The narrower columns and minors take under 2 rows, and 2 rows are
    # spare.  A packed (5, npts, 5) jet alone would be 25 rows.
    ball_map = CollapseMap(3, 1).ball()
    npts = max(len(b) for b in ball_map.source.node_blocks(CHUNK))
    row = 8 * npts
    bound = (10 + 7 + 3 + 2 + 2) * row
    volume_pullback_integral(ball_map)
    tracemalloc.start()
    try:
        volume_pullback_integral(ball_map)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


NO_LAPACK_DET = """
import numpy as np

def det(a):
    raise AssertionError(f"LAPACK determinant of shape {np.shape(a)}")

np.linalg.det = det
from oddchern.collapse import CollapseMap, collapse_degree
CollapseMap(3, 1)
assert collapse_degree(3, 1).rounded == 1
"""


def test_collapse_degree_takes_no_lapack_determinant():
    # The orientation is derived, not probed, and the volume form's
    # determinants are cofactor expansions (forms._block_det): building the
    # map and its degree call np.linalg.det on no matrix at all.  In a fresh
    # process, so that nothing an earlier test computed can hide a call.
    env = dict(os.environ)
    src = str(Path(oddchern.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    subprocess.run([sys.executable, "-c", NO_LAPACK_DET], env=env, check=True, timeout=120)


# -- the collapse map on its ball chart ---------------------------------------

def product_path_on_the_ball(phi, ball, pts):
    """phi's values and chart Jacobian columns at ball chart points, through
    the product embedding (inverse stereographic projection of each factor's
    block of w = r u) and CollapseMap._ambient."""
    out = phi._ambient(product_embedding_of_the_ball(phi.p, pts))
    vals = np.stack([c.val for c in out], axis=1)
    return vals, [np.stack([c.eps[i] for c in out], axis=1) for i in range(ball.dim)]


@pytest.mark.parametrize("p,q", [(2, 1), (1, 2), (3, 1), (2, 3)])
def test_ball_formula_matches_the_product_path(p, q):
    phi = CollapseMap(p, q, resolution=0.25)
    ball_map = phi.ball()
    pts = ball_map.source.nodes_at(np.arange(ball_map.source.n_nodes))
    jet = jet_array(ball_map.ambient_jacobian_columns(pts), (len(pts),))
    vals, jac = jet[:, 0].T, list(jet[:, 1:].transpose(1, 2, 0))
    ref_vals, ref_jac = product_path_on_the_ball(phi, ball_map.source, pts)
    assert len(jac) == len(ref_jac) == p + q
    for got, ref in zip([vals] + jac, [ref_vals] + ref_jac):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    # The exterior point, |w| = 4R, maps exactly to the pole, where phi is
    # constant.
    jet = jet_array(ball_map.ambient_jacobian_columns(ball_map.source.exterior), (1,))
    vals, jac = jet[:, 0].T, jet[:, 1:]
    pole = np.zeros((1, p + q + 1))
    pole[0, 0] = 1.0
    assert np.array_equal(vals, pole)
    assert not np.any(jac)


def test_product_path_rejects_ball_chart_columns():
    # The ball chart's map coordinates [r] + u are p + q + 1 columns, which
    # the product formula would misread as ambient columns of S^p x S^q.
    phi = CollapseMap(2, 1)
    ball = phi.ball().source
    with pytest.raises(ValueError, match="reads the 5 ambient columns of S\\^2 x S\\^1, got 4"):
        compose_map_with_matrix(phi, su2_identity()).jet(ball, ball.nodes_at(np.arange(8)))


def test_ball_jet_evaluates_the_radial_profile_on_the_radial_axis_alone(monkeypatch):
    shapes = []

    def recording_step(s):
        shapes.append(dual.value(s).shape)
        return smooth_step(s)

    ball_map = CollapseMap(3, 1).ball()
    block = next(ball_map.source.node_blocks(CHUNK))
    monkeypatch.setattr(collapse, "smooth_step", recording_step)
    assert block.shape == (16, 8, 8, 8)
    ball_map.ambient_jacobian_columns(block)
    compose_map_with_matrix(ball_map, su2_identity()).jet(ball_map.source, block)
    assert shapes == [(16, 1, 1, 1)] * 2
