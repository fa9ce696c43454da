"""Charted sphere domains: embeddings, measures, orientation, Stokes."""

import math

import numpy as np
import pytest

from oddchern.defaults import (BALL_NODES, CHUNK, COLLAPSE_LADDER, COLLAPSE_RADIUS,
                               DEGREE_LADDER, FD_STEP, GAMMA_COARSE_SCALE, NODES_PER_ANGLE,
                               SPLIT_LADDER)
from oddchern.collapse import volume_pullback_integral
from oddchern.domains import ChartedSphereDomain, gauss_legendre, sphere_volume
from oddchern.fields import FormField, exterior_derivative, integrate_top
from oddchern.forms import GradedMatrixForm
from oddchern.maps import identity_chart_map
from reference import grid_weights, max_abs, volume_density, volume_integral

COARSE = 0.375  # resolution: 24, 18, 12, 12 and 9 nodes per angle on S^1 to S^5


def closed_form_volume(m):
    return 2.0 * math.pi ** ((m + 1) / 2) / math.gamma((m + 1) / 2)


def test_sphere_volume_closed_form():
    for m in range(1, 7):
        assert sphere_volume(m) == pytest.approx(closed_form_volume(m), rel=1e-14)


@pytest.mark.parametrize("spheres", [[1], [2], [3], [4], [2, 1], [2, 3], [4, 1]])
def test_embedding_on_unit_spheres(spheres):
    dom = ChartedSphereDomain(spheres, resolution=COARSE)
    pts = dom.nodes()[:: max(1, dom.n_nodes // 500)]
    amb = dom.embed(pts)
    start = 0
    for m in spheres:
        block = amb[:, start:start + m + 1]
        assert np.abs(np.linalg.norm(block, axis=1) - 1.0).max() < 1e-12
        start += m + 1


@pytest.mark.parametrize("spheres", [[1], [2], [3], [2, 1], [2, 3]])
def test_quadrature_volume(spheres):
    dom = ChartedSphereDomain(spheres, resolution=COARSE)
    expected = 1.0
    for m in spheres:
        expected *= closed_form_volume(m)
    assert dom.volume() == pytest.approx(expected, rel=1e-10)
    # The same number again via actual quadrature of the volume form.
    quad = volume_integral(dom)
    assert quad == pytest.approx(expected, rel=1e-10)


def test_angles_from_ambient_roundtrip():
    dom = ChartedSphereDomain([2, 3], resolution=COARSE)
    pts = dom.nodes()[::97]
    amb = dom.embed(pts)
    back = np.stack(dom.angles_from_ambient_cols([c for c in amb.T]), axis=1)
    assert np.abs(dom.embed(back) - amb).max() < 1e-10


def test_sqrtg_matches_embedding_gram_determinant():
    dom = ChartedSphereDomain([2, 1], resolution=COARSE)
    pts = dom.nodes()[::53]
    h = 1e-6
    jac = []
    for i in range(dom.dim):
        dp = pts.copy()
        dm = pts.copy()
        dp[:, i] += h
        dm[:, i] -= h
        jac.append((dom.embed(dp) - dom.embed(dm)) / (2 * h))
    J = np.stack(jac, axis=2)  # (npts, ambient, dim)
    gram = np.swapaxes(J, 1, 2) @ J
    ref = np.sqrt(np.linalg.det(gram))
    assert np.abs(volume_density(dom, pts) - ref).max() < 1e-6


def test_orientation_volume_positive():
    for spheres in ([1], [3], [2, 1]):
        dom = ChartedSphereDomain(spheres, resolution=COARSE)
        total = volume_integral(dom)
        assert total.real > 0
        assert total == pytest.approx(dom.volume(), rel=1e-10)


def test_normalized_volume_integrates_to_one():
    dom = ChartedSphereDomain([2], resolution=COARSE)
    # The program's own path: the pulled-back normalized volume form of the identity.
    assert volume_pullback_integral(identity_chart_map(dom)) == pytest.approx(1.0, rel=1e-10)


def _smooth_one_form(dom):
    """A 1-form with smooth ambient-coordinate coefficients."""

    def sampler(pts):
        amb = dom.embed(pts)
        form = GradedMatrixForm(dom.dim, 1, len(pts))
        for i in range(dom.dim):
            co = amb[:, i % amb.shape[1]] * amb[:, (i + 1) % amb.shape[1]]
            form.comps[1 << i] = (co + 0.5)[None, None].astype(complex)
        return form

    return FormField(dom, 1, sampler)


def test_stokes_closed_manifold():
    # The integral of an exact top form over a closed manifold vanishes.
    dom = ChartedSphereDomain([2], resolution=2 / 3)
    alpha = _smooth_one_form(dom)
    total = integrate_top(exterior_derivative(alpha))
    assert abs(total) < 1e-8


def test_d_squared_is_zero():
    dom = ChartedSphereDomain([2, 1], resolution=COARSE)

    def sampler(pts):
        amb = dom.embed(pts)
        form = GradedMatrixForm(dom.dim, 1, len(pts))
        form.comps[0] = (amb[:, 0] * amb[:, 3] + amb[:, 1])[None, None].astype(complex)
        return form

    f = FormField(dom, 1, sampler)
    dd = exterior_derivative(exterior_derivative(f))
    pts = dom.nodes()[::211]
    assert max_abs(dd.at(pts)) < 1e-6


def _mixed_field(dom):
    """A 2 x 2 field with a smooth coefficient in every degree below the top."""

    def sampler(pts):
        amb = dom.embed(pts)
        form = GradedMatrixForm(dom.dim, 2, len(pts))
        for mask in range((1 << dom.dim) - 1):
            a, b = amb[:, mask % amb.shape[1]], amb[:, (mask + 1) % amb.shape[1]]
            form.comps[mask] = np.array([[a * b, a + 1j * b], [np.exp(a), 1j * b * b]])
        return form

    return FormField(dom, 2, sampler)


def _per_shift_derivative(field, pts):
    """The 5-point stencil of d with one field call per shift and direction."""
    dim = field.domain.dim
    out = {}
    for i in range(dim):
        shifted = []
        for c in (-2.0, -1.0, 1.0, 2.0):
            q = pts.copy()
            q[:, i] += c * FD_STEP
            shifted.append(field.at(q).comps)
        for mask in range(1 << dim):
            if mask & (1 << i) or shifted[0][mask] is None:
                continue
            fm2, fm1, fp1, fp2 = (f[mask] for f in shifted)
            sign = (-1) ** bin(mask & ((1 << i) - 1)).count("1")
            new = mask | (1 << i)
            out[new] = out.get(new, 0.0) + sign * (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * FD_STEP)
    return out


@pytest.mark.parametrize("spheres", [[3], [2, 1]])
def test_exterior_derivative_matches_a_per_shift_stencil(spheres):
    dom = ChartedSphereDomain(spheres, resolution=COARSE)
    field = _mixed_field(dom)
    pts = dom.sample_nodes(128)
    got = exterior_derivative(field).at(pts).comps
    ref = _per_shift_derivative(field, pts)
    assert sorted(ref) == [m for m, c in enumerate(got) if c is not None]
    for mask, r in ref.items():
        assert np.abs(got[mask] - r).max() <= 1e-14 * np.abs(r).max()


def test_exterior_derivative_samples_each_slice_in_one_call():
    dom = ChartedSphereDomain([3])
    field, calls = _mixed_field(dom), []
    recording = FormField(dom, 2, lambda pts: calls.append(len(pts)) or field.at(pts))
    d = exterior_derivative(recording)

    d.at(dom.sample_nodes(128))
    assert calls == [4 * 3 * 128]

    calls.clear()
    block = next(iter(dom.node_blocks(CHUNK)))
    assert len(block) == CHUNK
    d.at(block.points())
    assert max(calls) <= CHUNK
    assert sum(calls) == 4 * 3 * CHUNK


CHARTS = {
    "sphere": lambda: ChartedSphereDomain([2], resolution=1 / 3),
    "product": lambda: ChartedSphereDomain([2, 1], resolution=COARSE),
    "ball": lambda: ChartedSphereDomain.ball(2, 1, 0.5),
}


@pytest.mark.parametrize("kind", list(CHARTS))
def test_at_scale_rescales_nodes(kind):
    dom = CHARTS[kind]()
    assert dom.scale == 1.0
    assert dom.at_scale(2.0).n_nodes == 2 ** dom.dim * dom.n_nodes
    for scale in (0.5, 0.625, 1.5, 2.0):
        # A rescaled copy of a rescaled chart is the fresh chart rescaled.
        scaled, direct = dom.at_scale(2.0).at_scale(scale), CHARTS[kind]().at_scale(scale)
        assert scaled.scale == direct.scale == scale
        assert len(scaled.axes) == len(direct.axes) == dom.dim
        for (x, w), (dx, dw) in zip(scaled.axes, direct.axes):
            assert np.array_equal(x, dx) and np.array_equal(w, dw)
        assert np.array_equal(scaled.exterior, direct.exterior)
        if kind == "ball":
            # Two radial panels, [0, R] and [R, 2R], of n interior nodes each.
            n, R = max(2, round(12 * scale)), COLLAPSE_RADIUS
            r, w = scaled.axes[0]
            assert len(r) == 2 * n
            assert np.all((0.0 < r[:n]) & (r[:n] < R)) and np.all((R < r[n:]) & (r[n:] < 2 * R))
            assert w[:n].sum() == pytest.approx(R, rel=1e-14)
            assert w[n:].sum() == pytest.approx(R, rel=1e-14)
        else:
            assert scaled.volume() == pytest.approx(dom.volume(), rel=1e-9)


LADDER_SCALES = sorted({*DEGREE_LADDER.scales, *SPLIT_LADDER.scales,
                        *COLLAPSE_LADDER.scales, GAMMA_COARSE_SCALE})


@pytest.mark.parametrize("resolution", [0.2, 0.5, 0.625, 0.75, 1.0, 1.5])
def test_resolution_multiplies_every_default_node_count(resolution):
    # Each chart's default counts n, per axis with its number of panels.
    angles = {m: [(NODES_PER_ANGLE[m], 1)] * m for m in NODES_PER_ANGLE}
    charts = [(ChartedSphereDomain.sphere(m, resolution=resolution), angles[m])
              for m in range(1, 6)]
    charts += [(ChartedSphereDomain.product(p, q, resolution=resolution), angles[p] + angles[q])
               for p, q in ((2, 1), (1, 2), (2, 3), (4, 1))]
    charts += [(ChartedSphereDomain.ball(p, q, resolution),
                [(BALL_NODES[0], 2)] + [(BALL_NODES[1], 1)] * (p + q - 1))
               for p, q in ((2, 1), (3, 1), (2, 3))]
    for dom, defaults in charts:
        for s in LADDER_SCALES:
            expected = tuple(panels * max(2, round(max(4, round(n * resolution)) * s))
                             for n, panels in defaults)
            assert dom.at_scale(s).shape == expected


def test_a_sphere_beyond_the_node_budget_table_is_rejected():
    # NODES_PER_ANGLE has no count for S^6; the error names the dimensions
    # it has, which also exclude 0.
    with pytest.raises(ValueError, match=r"NODES_PER_ANGLE's \[1, 2, 3, 4, 5\], got \[6\]"):
        ChartedSphereDomain.sphere(6)
    with pytest.raises(ValueError, match=r"got \[6, 1\]"):
        ChartedSphereDomain.product(6, 1)
    with pytest.raises(ValueError, match=r"got \[0\]"):
        ChartedSphereDomain.sphere(0)


def test_node_blocks_cover_all_nodes():
    dom = ChartedSphereDomain([2, 1], resolution=COARSE)
    seen, wsum = 0, 0.0
    for block in dom.node_blocks(chunk=1000):
        w = block.weights()
        assert len(block) == len(w) <= 1000
        seen += len(block)
        wsum += w.sum()
    assert seen == dom.n_nodes
    # Chart weights only; the volume element rides along inside the forms.
    assert wsum == pytest.approx(grid_weights(dom).sum(), rel=1e-12)

    # S^2 x S^3 with 16 x 16 x 11 x 11 x 11 nodes: the slab axis is the
    # fourth at chunk 100, the third at 1,000, the second at 2,000 and the
    # first at 100,000.
    big = ChartedSphereDomain([2, 3], resolution=1 / 3)
    for d, chunk in ((dom, 1000), (big, 100), (big, 1000), (big, 2000), (big, 100_000)):
        blocks = list(d.node_blocks(chunk))
        flat = [b.flat_index() for b in blocks]
        assert np.array_equal(np.concatenate(flat), np.arange(d.n_nodes))
        weights = grid_weights(d)
        for b, idx in zip(blocks, flat):
            assert len(b) <= chunk
            assert np.array_equal(b.weights(), weights[idx])
            assert np.array_equal(b.points(), d.nodes_at(idx))


def test_gauss_rule_is_computed_once_and_read_only():
    x, w = gauss_legendre(12)
    assert gauss_legendre(12)[0] is x
    ref_x, ref_w = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(x, ref_x) and np.array_equal(w, ref_w)
    for arr in (x, w):
        with pytest.raises(ValueError):
            arr[0] = 0.0
