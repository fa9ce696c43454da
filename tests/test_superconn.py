"""Super-connection boundary models: unitarization, gamma, localization."""

from math import factorial

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddchern import chern, domains, superconn
from oddchern.chern import SingularMapError, deg_star, odd_chern_top_integral
from oddchern.collapse import CollapseMap
from oddchern.defaults import CHUNK, COLLAPSE_RADIUS, SPLIT_LADDER, Ladder
from oddchern.domains import ChartedSphereDomain
from oddchern.forms import SQRT_2PI_I, GradedMatrixForm, nilpotent_exp, normalize_2pi
from oddchern.maps import (DualMatrixMap, ProductMatrixMap, ScaledMatrixMap,
                           circle_winding, compose_map_with_matrix, constant_map,
                           stabilize, su2_identity)
from oddchern.results import DegreeResult
from oddchern.superconn import (SuperBundleModel, _top_supertrace,
                                flz_point_case, gamma_boundary_integral,
                                gamma_closed_form, gamma_report,
                                gaussian_moment, localize, unitarize)

COARSE = 0.5  # resolution: 32, 24 and 16 nodes per angle on S^1, S^2 and S^3


def coarse_model(winding=None):
    phi = CollapseMap(2, 1, resolution=COARSE)
    v = compose_map_with_matrix(phi, su2_identity())
    if winding is not None:
        from oddchern.chern import assemble_split_map

        v = assemble_split_map(circle_winding(winding), su2_identity(), phi)
    model = SuperBundleModel(phi.source, v)
    model.degree_star()
    return model


def test_gaussian_moment_values():
    assert gaussian_moment(1) == pytest.approx(0.5)
    assert gaussian_moment(2) == pytest.approx(0.5)
    assert gaussian_moment(3) == pytest.approx(1.0)


def test_unitarize_output_is_unitary():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    v = ScaledMatrixMap(3.0, su2_identity())
    u = unitarize(v)
    pts = dom.nodes()[::31]
    vals = u.evaluate(dom, pts)
    gram = np.einsum("kip,kjp->ijp", np.conj(vals), vals)
    assert np.abs(gram - np.eye(2)[:, :, None]).max() < 1e-12


def test_unitarize_fixes_unitary_maps():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    v = su2_identity()
    u = unitarize(v)
    pts = dom.nodes()[::31]
    assert np.abs(u.evaluate(dom, pts) - v.evaluate(dom, pts)).max() < 1e-12


def test_unitarize_rejects_singular_maps():
    dom = ChartedSphereDomain([1], resolution=COARSE)

    def fn(cols):
        x, y = cols[0], cols[1]
        return [[0.0 * x + 0.0j * y]]

    with pytest.raises(ValueError):
        unitarize(DualMatrixMap(fn, 1)).evaluate(dom, dom.nodes()[:8])


@pytest.mark.parametrize("sphere, v", [
    (1, ScaledMatrixMap(0.2 - 1j, circle_winding(3))),
    (3, ScaledMatrixMap(3.0, su2_identity())),
    (3, ProductMatrixMap(constant_map([[2.0, 0.3j], [0.1, 0.5 - 0.5j]]), su2_identity())),
], ids=["size1", "scaled-su2", "non-normal"])
def test_polar_part_matches_the_svd_polar_factor(sphere, v):
    # The polar factor of v = W S V* is W V*.  c su2 has equal singular
    # values; the non-normal product has distinct ones and det v = 1 - 1.03i.
    dom = ChartedSphereDomain([sphere], resolution=COARSE)
    pts = dom.nodes()[::7]
    w, _, vh = np.linalg.svd(np.moveaxis(v.evaluate(dom, pts), -1, 0))
    ref = np.moveaxis(w @ vh, 0, -1)
    assert np.abs(unitarize(v).evaluate(dom, pts) - ref).max() < 1e-13


def test_unitarize_rejects_size_3():
    with pytest.raises(ValueError, match="size 1 or 2, not 3"):
        unitarize(su2_identity(3))


def test_model_requires_odd_dimension():
    dom = ChartedSphereDomain([2], resolution=COARSE)
    with pytest.raises(ValueError):
        SuperBundleModel(dom, su2_identity())


def test_model_keeps_unitary_maps_and_unitarizes_others():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    v = su2_identity()
    assert SuperBundleModel(dom, v).v is v
    scaled = SuperBundleModel(dom, ScaledMatrixMap(2.0, v))
    assert scaled.v is not v
    pts = dom.nodes()[::31]
    assert np.abs(scaled.v.evaluate(dom, pts) - v.evaluate(dom, pts)).max() < 1e-12


def test_model_rejects_nonunitary_claim():
    model = SuperBundleModel(ChartedSphereDomain([3], resolution=COARSE),
                             su2_identity())
    model.v = ScaledMatrixMap(2.0, model.v)
    with pytest.raises(ValueError, match="not unitary"):
        model.check_unitary()


def test_unitarity_sample_names_the_singular_grid_node():
    # 24^3 = 13,824 nodes sampled with stride 27: grid node 8,991 is sample
    # node 333, and the error must name the grid node.
    dom = ChartedSphereDomain([3], resolution=0.75)
    node = 8991
    assert dom.sample_stride(512) == 27 and node % 27 == 0
    centre = dom.embed(dom.nodes()[node:node + 1])[0]

    def fn(cols):
        return [[sum((x - c) * (x - c) for x, c in zip(cols, centre)) + 0j]]

    with pytest.raises(SingularMapError, match=f"singular at sample point index {node}$"):
        SuperBundleModel(dom, DualMatrixMap(fn, 1))


@pytest.mark.parametrize("t", [0.5, 1.3, 3.0])
def test_dense_gamma_integrand_factors_through_the_top_supertrace(t):
    # The dense transgression integrand (2 pi i)^(-1/2) e^(-t^2)
    # phi(Tr_s(V exp(-t dV))) has odd degrees only, and its top component is
    # the t-factor (-t)^d e^(-t^2)/d! times the block kernel's Tr_s(V dV^d).
    # Without V the even supertrace blocks cancel: Tr_s exp(-t dV) is 0.
    model = coarse_model()
    pts = model.domain.nodes()[::301]
    d = model.domain.dim
    expdv = nilpotent_exp(model.derivative_form(pts).scale(-t))
    assert expdv.supertrace(model.rank).max_abs() < 1e-12
    form = model.odd_endomorphism(pts).wedge(expdv)
    form = normalize_2pi(form.supertrace(model.rank)).scale(np.exp(-t * t) / SQRT_2PI_I)
    for mask, comp in enumerate(form.comps):
        if comp is not None and np.abs(comp).max() > 1e-13:
            assert bin(mask).count("1") % 2 == 1
    top = _top_supertrace(*model.v.jet(model.domain, pts))
    factor = (-t) ** d * np.exp(-t * t) / factorial(d) * SQRT_2PI_I ** -(d + 1)
    assert np.abs(form.comps[-1][0, 0] - factor * top).max() < 1e-13 * np.abs(factor * top).max()


def test_two_paths_agree_on_shared_grid():
    model = coarse_model()
    sweep = gamma_boundary_integral(model, T=8.0)
    closed = gamma_closed_form(model)
    assert abs(sweep - closed) < 1e-10
    ds = deg_star(model.v, model.domain, Ladder((1.0,), 1e-6))
    assert abs(closed - (-1.0) ** model.n * ds.value) < 1e-12


def test_gamma_limit_saturates_in_T():
    model = coarse_model()
    g6 = gamma_boundary_integral(model, T=6.0)
    g8 = gamma_boundary_integral(model, T=8.0)
    assert abs(g6 - g8) < 1e-12  # Gaussian tail
    assert round(g8.real) == -1


def record_sweeps(monkeypatch):
    """Record every model sweep and every other odd Chern top integral.

    Returns (models, domains): the model of each _gamma_top_integral call,
    which sweeps the model's grid once for both top integrals, and the
    domain of each odd_chern_top_integral call, wherever it is made.
    """
    models, domains = [], []
    sweep, top_integral = superconn._gamma_top_integral, chern.odd_chern_top_integral

    def counting_sweep(model, *args, **kwargs):
        models.append(model)
        return sweep(model, *args, **kwargs)

    def counting_top(g, domain, *args, **kwargs):
        domains.append(domain)
        return top_integral(g, domain, *args, **kwargs)

    monkeypatch.setattr(superconn, "_gamma_top_integral", counting_sweep)
    for module in (chern, superconn):
        monkeypatch.setattr(module, "odd_chern_top_integral", counting_top)
    return models, domains


def test_gamma_report_fields(monkeypatch):
    models, domains = record_sweeps(monkeypatch)
    model = coarse_model()
    rep = gamma_report(model, T_values=(2.0, 4.0, 8.0))
    assert len(rep.boundary_integrals) == 3
    assert rep.two_path_gap < 1e-10
    assert rep.deg_star_value.rounded == -1
    assert len(rep.convergence) == 2
    # One sweep of the model grid serves the deg* level on that grid, the
    # closed form and every T; the coarse grid gets one sweep of its own.
    assert len(models) == 2
    assert models[0] is model
    assert models[1].domain.scale == 0.5
    assert models[1].domain.n_nodes < model.domain.n_nodes
    # The odd Chern form is integrated apart only on the other ladder level.
    assert [dom.scale for dom in domains] == [2.0]
    gamma_boundary_integral(model, T=6.0)
    gamma_closed_form(model)
    assert len(models) == 2 and len(domains) == 1


def test_degree_and_closed_form_sweep_the_model_grid_once(monkeypatch):
    models, domains = record_sweeps(monkeypatch)
    phi = CollapseMap(2, 1, resolution=0.25)
    model = SuperBundleModel(phi.source.at_scale(2.0),
                             compose_map_with_matrix(phi, su2_identity()))
    ds = model.degree_star()
    rep = gamma_report(model, T_values=(4.0, 8.0))
    # The ladder's scale-2 level is the model's own grid: it reads the
    # model's sweep, which the gamma integrals and the closed form reuse.
    assert [dom.scale for dom in domains] == [1.0]
    assert len(models) == 2
    assert models[0] is model
    assert models[1].domain.scale == 0.5
    assert ds.convergence[-1][1] == (-2.0j * np.pi) ** (-model.n) * model.chern_top()
    assert rep.closed_form_value == gamma_closed_form(model)
    assert len(models) == 2


def test_closed_form_sweeps_once_and_runs_no_ladder(monkeypatch):
    models, domains = record_sweeps(monkeypatch)
    ladders = []
    monkeypatch.setattr(superconn, "_normalized_degree",
                        lambda *args, **kwargs: ladders.append(args))
    model = sphere_model(3, su2_identity())
    first = gamma_closed_form(model)
    assert gamma_closed_form(model) == first
    gamma_boundary_integral(model)
    assert models == [model]
    assert domains == []
    assert ladders == []


def test_sweeps_do_not_depend_on_the_block_size(monkeypatch):
    model = collapse_su2_model()
    assert model.domain.n_nodes > 2 * CHUNK
    v, dom = model.v, model.domain
    gamma_default = superconn._gamma_top_integral(model)
    chern_default = odd_chern_top_integral(v, dom)
    assert chern_default == model.chern_top()
    monkeypatch.setattr(domains, "CHUNK", 997)
    for got, want in zip(superconn._gamma_top_integral(model), gamma_default):
        assert abs(got - want) < 1e-13
    assert abs(odd_chern_top_integral(v, dom) - chern_default) < 1e-13


def shared_model():
    # The localization chain needs deg* accepted (residual < 1e-4), which
    # this integrand only reaches near twice the default budget; reuse the
    # cached acceptance-suite model instead of rebuilding that grid here.
    from oddchern.verify import _boundary_models

    return _boundary_models()[0]


def test_localize_sign_chain():
    model = shared_model()
    rep = localize([model])
    assert rep.value == 1.0
    assert abs(rep.gamma_path - rep.value) < 1e-4
    assert len(rep.per_model) == 1


def test_localize_report_needs_converged_and_accepted_degrees():
    def report(ds):
        return superconn.LocalizeReport(value=1.0, gamma_path=1.0,
                                        per_model=[{"deg_star": ds}], agreement=0.0)

    good = report(DegreeResult.from_value(-1.0, [], True))
    unconverged = report(DegreeResult.from_value(-1.0, [], False))
    non_integral = report(DegreeResult.from_value(-0.9, [], True))
    assert good.consistent and good.converged
    assert not unconverged.consistent and not unconverged.converged
    assert not non_integral.consistent and non_integral.converged


def test_localize_rejects_mixed_dimensions():
    # n = 2 on S^3 and n = 1 on S^1; the check runs before any sweep.
    models = [sphere_model(3, su2_identity()), sphere_model(1, circle_winding(1))]
    with pytest.raises(ValueError, match="half-dimension"):
        localize(models)


@pytest.mark.parametrize("m", [-2, 0, 1, 2])
def test_point_case_matches_winding(m):
    dom = ChartedSphereDomain([1], resolution=COARSE)
    rep = flz_point_case(circle_winding(m), dom)
    assert rep.value == -m
    assert rep.degree.rounded == -m


def test_point_case_requires_matching_dimension():
    # n is read off the domain, which must be an odd sphere S^(2n-1).
    for spheres in ([2], [2, 1]):
        dom = ChartedSphereDomain(spheres, resolution=COARSE)
        with pytest.raises(ValueError, match="odd sphere"):
            flz_point_case(su2_identity(), dom)


def test_scaling_invariance_same_grid():
    base = coarse_model()
    scaled = SuperBundleModel(base.domain,
                              ScaledMatrixMap(10.0, base.v))
    g_base = gamma_boundary_integral(base, T=8.0)
    g_scaled = gamma_boundary_integral(scaled, T=8.0)
    assert abs(g_base - g_scaled) < 1e-8


def test_degree_star_runs_one_split_ladder_per_model(monkeypatch):
    calls = []
    ladder = superconn._normalized_degree

    def counting_ladder(g, domain, *args, **kwargs):
        calls.append(args)
        return ladder(g, domain, *args, **kwargs)

    monkeypatch.setattr(superconn, "_normalized_degree", counting_ladder)
    models = [sphere_model(3, su2_identity()), sphere_model(1, circle_winding(2))]
    first = [m.degree_star() for m in models]
    assert all(m.degree_star() is ds for m, ds in zip(models, first))
    assert calls == [(SPLIT_LADDER,)] * 2
    assert [ds.rounded for ds in first] == [-1, -2]


# -- the N x N block kernel against the dense 2N x 2N wedge ----------------------

def dense_top_supertrace(vform, dvform, rank):
    """Tr_s(V dV^d) on the top multi-index through GradedMatrixForm."""
    d = dvform.dim
    st_form = vform.wedge(dvform.wedge_power(d)).supertrace(rank)
    return st_form.comps[(1 << d) - 1][0, 0]


def odd_forms(vals, dvs):
    """V and dV as 2N x 2N graded forms from their off-diagonal blocks."""
    d, n, npts = len(dvs), vals.shape[0], vals.shape[-1]

    def odd(a):
        # [[0, a*], [a, 0]] at each point, point axis last.
        out = np.zeros((2 * n, 2 * n, npts), dtype=complex)
        out[:n, n:] = np.conj(np.swapaxes(a, 0, 1))
        out[n:, :n] = a
        return out

    vform = GradedMatrixForm(d, 2 * n, npts)
    vform.comps[0] = odd(vals)
    dvform = GradedMatrixForm(d, 2 * n, npts)
    for i, dv in enumerate(dvs):
        dvform.comps[1 << i] = odd(dv)
    return vform, dvform


def assert_close_to_dense(got, ref, vals, dvs):
    # 2 N^(d+1) d! max|v| max|dv|^d bounds the sum of the absolute values of
    # the terms of Tr_s(V dV^d), so it sets the scale of the rounding error.
    n, d = vals.shape[0], len(dvs)
    bound = (2 * n ** (d + 1) * factorial(d) * np.abs(vals).max()
             * max(np.abs(dv).max() for dv in dvs) ** d)
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * bound + 1e-300


ENTRIES = st.complex_numbers(max_magnitude=2.0, allow_nan=False,
                             allow_infinity=False, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), d=st.sampled_from([1, 3, 5]))
def test_block_kernel_matches_dense_supertrace(data, n, d):
    shape = (n, n, 4)
    vals = data.draw(hnp.arrays(complex, shape, elements=ENTRIES))
    dvs = [data.draw(hnp.arrays(complex, shape, elements=ENTRIES)) for _ in range(d)]
    ref = dense_top_supertrace(*odd_forms(vals, dvs), n)
    assert_close_to_dense(_top_supertrace(vals, dvs), ref, vals, dvs)


def collapse_su2_model():
    phi = CollapseMap(2, 1, resolution=COARSE)
    return SuperBundleModel(phi.source, compose_map_with_matrix(phi, su2_identity()))


def sphere_model(m, v):
    return SuperBundleModel(ChartedSphereDomain([m], resolution=COARSE), v)


@pytest.mark.parametrize("build", [
    lambda: sphere_model(1, circle_winding(3)),
    lambda: sphere_model(3, su2_identity()),
    lambda: sphere_model(3, stabilize(su2_identity(), 1)),
    collapse_su2_model,
], ids=["winding-S1", "su2-S3", "su2-S3-stabilized", "collapse-S2xS1"])
def test_block_kernel_matches_dense_on_models(build):
    model = build()
    pts = model.domain.nodes()[::37]
    vals, dvs = model.v.jet(model.domain, pts)
    ref = dense_top_supertrace(model.odd_endomorphism(pts),
                               model.derivative_form(pts), model.rank)
    assert np.abs(ref).max() > 0
    assert_close_to_dense(_top_supertrace(vals, dvs), ref, vals, dvs)


# -- pure pullbacks live on the collapse map's ball chart ---------------------

def test_collapse_pullback_is_constant_outside_its_support():
    # Outside |w| < 2R the pullback's value is h(pole) and its differentials
    # are exactly 0, so its top forms vanish there and the ball chart holds
    # all of their integral.
    phi = CollapseMap(2, 1, resolution=COARSE)
    h = su2_identity()
    g = compose_map_with_matrix(phi, h)
    dom = phi.source
    pts = dom.nodes()
    outside = phi.local_radius(pts) >= 2.0 * COLLAPSE_RADIUS
    assert 0 < outside.sum() < len(pts)
    vals, dgs = g.jet(dom, pts[outside])
    pole = h.evaluate(phi.target, np.zeros((1, 3)))
    assert np.array_equal(vals, np.broadcast_to(pole, vals.shape))
    assert not dgs.any()


@pytest.mark.parametrize("variant", ["plain", "scaled", "polar-of-scaled"])
def test_pullback_integrals_on_the_ball_agree_with_the_angle_chart(variant):
    # The angle chart's 36,000 nodes leave an error of 1.4e-4 in deg*, the
    # ball chart's 24,576 nodes at scale 2 about 3e-14.
    # phi* su2 is built on each chart: in the ball's polar coordinates there,
    # in the product's ambient coordinates on the angle chart.
    phi = CollapseMap(2, 1, resolution=0.625)
    ball_map = CollapseMap(2, 1).ball()
    ball, angle = ball_map.source.at_scale(2.0), phi.source

    def variant_of(chart_map, dom):
        g = compose_map_with_matrix(chart_map, su2_identity())
        return {"plain": g, "scaled": ScaledMatrixMap(2.0, g),
                "polar-of-scaled": unitarize(ScaledMatrixMap(0.5, g))}[variant]

    v_ball, v_angle = variant_of(ball_map, ball), variant_of(phi, angle)
    ds_ball, ds_angle = (deg_star(v, dom, Ladder((dom.scale,), 1e-6))
                         for v, dom in ((v_ball, ball), (v_angle, angle)))
    assert ds_ball.rounded == ds_angle.rounded == -1
    assert ds_ball.residual < 1e-12
    assert abs(ds_ball.value - ds_angle.value) < 1e-3
    on_ball, on_angle = SuperBundleModel(ball, v_ball), SuperBundleModel(angle, v_angle)
    assert (on_ball.v is v_ball) == (on_angle.v is v_angle) == (variant != "scaled")
    for top in ("gamma_top", "chern_top"):
        a, b = getattr(on_ball, top)(), getattr(on_angle, top)()
        assert abs(a - b) < 1e-3 * abs(a)
    assert abs((-2.0j * np.pi) ** -on_ball.n * on_ball.chern_top() - ds_ball.value) < 1e-12
