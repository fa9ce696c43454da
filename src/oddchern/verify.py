"""Acceptance checks: quantization, consistency, and localization identities.

Each check returns a dict with ``name``, ``passed``, ``converged``, and a
human-readable ``detail`` string. ``run_all_checks`` drives them in order;
the CLI ``verify`` subcommand and the acceptance test suite both route
through these functions so there is one source of truth for tolerances.
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

import numpy as np

from .chern import assemble_split_map, chern_simons, deg, deg_star, maurer_cartan, odd_chern, transgression_form
from .collapse import CollapseMap, collapse_degree, mapping_degree
from .defaults import DEGREE_RESIDUAL_TOL, T_MAX, TWO_PATH_TOL
from .domains import ChartedSphereDomain, gauss_axis
from .fields import constant_field, exterior_derivative, integrate_all_degrees
from .forms import SQRT_2PI_I
from .maps import (HomotopyFamily, ScaledMatrixMap, circle_winding,
                   compose_map_with_matrix, identity_chart_map, su2_identity)
from .superconn import (BOUNDARY_ORIENTATION_SIGN, SuperBundleModel, boundary_model,
                        flz_point_case, gamma_boundary_integral, gamma_closed_form,
                        gaussian_moment, localize, unitarize)


def _result(name, passed, detail, converged=True):
    return {"name": name, "passed": bool(passed), "converged": bool(converged),
            "detail": detail}


def check_winding_quantization():
    """deg(z -> z^m) = -m on the circle, residual below 1e-10."""
    dom = ChartedSphereDomain.sphere(1)
    worst = 0.0
    for m in range(-3, 4):
        r = deg(circle_winding(m), dom)
        if r.rounded != -m:
            return _result("winding quantization", False,
                           f"deg(z^{m}) rounded to {r.rounded}, expected {-m}")
        worst = max(worst, r.residual)
    return _result("winding quantization", worst < 1e-10,
                   f"max residual {worst:.3e} over m in -3..3")


def check_su2_generator():
    """deg of the su2 representative is -1, minus the sphere-map degree."""
    dom = ChartedSphereDomain.sphere(3)
    r = deg(su2_identity(), dom)
    oracle = mapping_degree(identity_chart_map(dom))
    ok = (r.rounded == -1 and r.residual < 1e-6
          and oracle.rounded == 1 and oracle.residual < 1e-4)
    return _result(
        "su2 generator degree", ok,
        f"deg = {r.value:.8f} (residual {r.residual:.2e}), "
        f"sphere-map oracle = {oracle.value:.6f}",
        converged=r.converged and oracle.converged)


def _cs_vs_chern_gap(g, dom):
    zero = constant_field(dom, np.zeros((g.size, g.size)))
    cs = chern_simons(zero, maurer_cartan(g, dom), dom)
    ints_cs = integrate_all_degrees(cs, dom)
    ints_ch = integrate_all_degrees(odd_chern(g, dom), dom)
    gap = 0.0
    for degree in set(ints_cs) | set(ints_ch):
        a = ints_cs.get(degree, 0.0)
        b = ints_ch.get(degree, 0.0)
        gap = max(gap, np.abs(np.asarray(a) - np.asarray(b)).max())
    return gap


def check_chern_simons_consistency():
    """cs(d, d + g^-1 dg) integrates to the same values as Ch(g)."""
    gap1 = _cs_vs_chern_gap(circle_winding(2, size=2),
                            ChartedSphereDomain.sphere(1))
    gap3 = _cs_vs_chern_gap(su2_identity(),
                            ChartedSphereDomain.sphere(3))
    gap = max(gap1, gap3)
    return _result("chern-simons consistency", gap < 1e-7,
                   f"max integrated gap {gap:.3e} (S1: {gap1:.3e}, S3: {gap3:.3e})")


def _random_coefficients(rng, n_ambient):
    """(A, B) of a family _trig_family(A, B): the complex 2 x 2 A_k and B_k,
    k < n_ambient, normal with deviation 0.12 / n_ambient, each with a last
    axis of length 1."""
    shape, scale = (n_ambient, 2, 2, 1), 0.12 / n_ambient
    A = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    B = scale * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    return A, B


def _trig_family(A, B):
    """Invertible family Id + sum_k (A_k + t B_k) x_k over the ambient
    columns x_k of a flat point array, with trig entries.  A and B are
    (n_ambient, N, N, m): m = 1 for one family, or one coefficient per node,
    with t then per node too."""
    size = A.shape[1]

    def fn(t, cols):
        # One (size, size, npts) expression per ambient column, summed in the
        # order of the columns.
        g = np.eye(size, dtype=complex)[:, :, None]
        for k in range(len(A)):
            g = cols[k] * (A[k] + t * B[k]) + g
        return [[g[i, j] for j in range(size)] for i in range(size)]

    return HomotopyFamily(fn, size)


def _transgression_errors(coefficients, dom):
    """Per family (A, B) of coefficients, the relative gap between FD
    d/dt Ch(g_t) and d Ch~(g_t) at t = 0.3, by a central difference of step
    1e-3 in t, on about 128 sample nodes.

    Ch(g_(t+h)) and Ch(g_(t-h)) of every family come from one field call:
    the sample nodes repeat family by family, then by +h and -h, and each
    node carries its family's A, B and its t.  Ch~'s stencil is one
    exterior_derivative call per family.
    """
    t, h = 0.3, 1e-3
    pts = dom.sample_nodes(128)
    n, families = len(pts), len(coefficients)
    A, B = (np.repeat(np.concatenate(c, axis=-1), 2 * n, axis=-1) for c in zip(*coefficients))
    t_nodes = np.tile(np.repeat([t + h, t - h], n), families)
    ch = odd_chern(_trig_family(A, B).slice_at(t_nodes), dom).at(np.tile(pts, (2 * families, 1)))
    errors = []
    for f, (a, b) in enumerate(coefficients):
        d_tilde = exterior_derivative(transgression_form(_trig_family(a, b), dom, t)).at(pts)
        plus, minus = slice(2 * f * n, (2 * f + 1) * n), slice((2 * f + 1) * n, (2 * f + 2) * n)
        worst, scale_ref = 0.0, 0.0
        for mask in range(1, 2 ** dom.dim):
            c, dt = ch.comps[mask], d_tilde.comps[mask]
            if c is None and dt is None:
                continue
            fd = 0.0 if c is None else (c[..., plus] - c[..., minus]) / (2 * h)
            dt = 0.0 if dt is None else dt
            worst = max(worst, np.abs(fd - dt).max())
            scale_ref = max(scale_ref, np.abs(fd).max())
        errors.append(worst / max(scale_ref, 1e-12))
    return errors


def check_transgression():
    """FD in t of Ch(g_t) matches d Ch~(g_t) for random trig families, five
    per sphere, whose Ch(g_(t+-h)) are sampled in one field call."""
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for dim in (1, 3):
        coefficients = [_random_coefficients(rng, dim + 1) for _ in range(5)]
        worst = max(worst, *_transgression_errors(coefficients, ChartedSphereDomain.sphere(dim)))
    return _result("transgression identity", worst < 1e-6,
                   f"max relative error {worst:.3e} over 10 families")


def check_product_splitting():
    """deg*(pr2* f . phi* h) depends only on h and equals deg(h)."""
    # Half the default budget: split maps live on the product angle chart.
    phi = CollapseMap(2, 1, resolution=0.5)
    s3 = ChartedSphereDomain.sphere(3)
    details, ok = [], True
    for h_kind, h in (("const", circle_winding(0, size=2)),
                      ("su2", su2_identity())):
        # The oracle is deg(h) over the collapse target S^3 (0 for constants).
        expected = deg(h, s3).rounded if h_kind == "su2" else 0
        vals = []
        for m in (0, 1, 3):
            g = assemble_split_map(circle_winding(m), h, phi)
            r = deg_star(g, phi.source)
            vals.append(r.value)
            if r.rounded != expected:
                ok = False
        spread = max(abs(a - b) for a in vals for b in vals)
        if spread >= 1e-6:
            ok = False
        details.append(f"h={h_kind}: values {[f'{v:.8f}' for v in vals]}, "
                       f"spread {spread:.2e}")
    return _result("product splitting", ok, "; ".join(details))


def check_collapse_degree():
    """The collapse map has degree +1 on all supported factor shapes, residual below 1e-8."""
    details, ok, converged = [], True, True
    for p, q in ((2, 1), (2, 3), (4, 1)):
        r = collapse_degree(p, q)
        details.append(f"({p},{q}): {r.value.real:.6f} residual {r.residual:.2e}")
        ok = ok and r.rounded == 1 and r.residual < 1e-8
        converged = converged and r.converged
    return _result("collapse degree", ok, "; ".join(details), converged=converged)


def check_gaussian_moment():
    """2 int_0^inf t^(2n-1) e^(-t^2) dt = (n-1)!, against quadrature."""
    t, w = gauss_axis((400, (0.0, 12.0)))
    worst = 0.0
    for n in (1, 2, 3):
        quad = np.sum(w * t ** (2 * n - 1) * np.exp(-t * t))
        worst = max(worst,
                    abs(2 * quad - factorial(n - 1)),
                    abs(2 * gaussian_moment(n) - factorial(n - 1)))
    return _result("gaussian moment", worst < 1e-12, f"max error {worst:.3e}")


@lru_cache(maxsize=1)
def _boundary_models():
    """S^2 x S^1 boundary models (n = 2) with unitary v's: phi* su2 on phi's
    ball chart and a split map on the product angle chart."""
    phi = CollapseMap(2, 1)
    ball = phi.ball()
    return [boundary_model(ball.source, compose_map_with_matrix(ball, su2_identity())),
            boundary_model(phi.source,
                           assemble_split_map(circle_winding(1), su2_identity(), phi))]


def check_two_path_gamma():
    """Deformation-limit and closed-form gamma integrals agree with deg*.

    The closed form and deg* share one odd Chern integral, so the sweep is
    also held to the integer (-1)^n round(deg*), which a wrong sweep misses.
    """
    details, ok, converged = [], True, True
    for label, model in zip(("phi* su2", "split"), _boundary_models()):
        sweep = gamma_boundary_integral(model, T_MAX)
        closed = gamma_closed_form(model)
        ds = model.degree_star()
        sign = (-1.0) ** model.n
        expected = sign * ds.value
        gap = max(abs(sweep - closed), abs(closed - expected))
        residual = abs(sweep - sign * ds.rounded)
        details.append(f"{label}: sweep {sweep:.8f}, closed {closed:.8f}, "
                       f"(-1)^n deg* = {expected:.8f}, gap {gap:.2e}, "
                       f"integer residual {residual:.2e}")
        ok = ok and gap < TWO_PATH_TOL and residual < DEGREE_RESIDUAL_TOL
        converged = converged and ds.converged
    return _result("two-path gamma identity", ok, "; ".join(details),
                   converged=converged)


def check_localize_sign_chain():
    """localize returns (-1)^(n+1) deg* and matches minus the gamma sum."""
    model = _boundary_models()[0]
    rep = localize([model])
    return _result(
        "localization sign chain", rep.value == 1.0 and rep.consistent,
        f"value {rep.value}, gamma path {rep.gamma_path:.8f}, "
        f"residual {rep.agreement:.2e}", converged=rep.converged)


def check_flz_point_case():
    """Point-case contribution equals the clutching value -m on the circle."""
    dom = ChartedSphereDomain.sphere(1)
    for m in range(-2, 3):
        rep = flz_point_case(circle_winding(m), dom)
        if rep.value != -m or not rep.degree.accepted:
            return _result("point case", False,
                           f"m={m}: got {rep.value} (residual {rep.degree.residual:.2e}), "
                           f"expected {-m}", converged=rep.degree.converged)
    return _result("point case", True, "matches -m for m in -2..2")


def check_gamma_profile():
    """gamma(T) = -sign gamma(n, T^2)/2 top/(d! sqrt(2 pi i)), gamma(n, x) the
    lower incomplete gamma (n-1)! (1 - e^(-x) sum_{k<n} x^k/k!), at finite T."""
    model = _boundary_models()[0]
    n, d = model.n, model.domain.dim
    top = model.gamma_top() / (factorial(d) * SQRT_2PI_I)
    worst = 0.0
    for T in (1.0, 2.0, 4.0, 6.0):
        x = T * T
        lower = factorial(n - 1) * (1.0 - np.exp(-x) * sum(x ** k / factorial(k) for k in range(n)))
        exact = -BOUNDARY_ORIENTATION_SIGN * 0.5 * lower * top
        worst = max(worst, abs(gamma_boundary_integral(model, T) - exact) / abs(exact))
    return _result("gamma(T) profile", worst < 1e-12,
                   f"max relative gap {worst:.3e} to the incomplete-gamma form at T in 1, 2, 4, 6")


def check_robustness():
    """deg*, gamma limit, localize are stable under scaling/re-unitarization.

    All variants share one grid, the collapse map's ball chart, so
    quadrature error cancels in the comparison and the 1e-8 bound probes only
    the map-level perturbations (scalar scaling and the polar part, whose
    closed form in superconn._polar is differentiated by a dual pass).
    """
    ball = CollapseMap(2, 1).ball()
    v = compose_map_with_matrix(ball, su2_identity())
    dom = ball.source
    base = SuperBundleModel(dom, v)

    def observables(model):
        ds = model.degree_star()
        loc = (-1.0) ** (model.n + 1) * ds.rounded
        return ds.value, gamma_boundary_integral(model, T_MAX), loc

    base_vals = observables(base)
    worst = 0.0
    variants = [SuperBundleModel(dom, ScaledMatrixMap(0.1, v)),
                SuperBundleModel(dom, ScaledMatrixMap(10.0, v)),
                SuperBundleModel(dom, unitarize(v))]
    for model in variants:
        vals = observables(model)
        worst = max(worst, max(abs(a - b) for a, b in zip(base_vals, vals)))
    return _result("scale/unitarization robustness", worst < 1e-8,
                   f"max deviation {worst:.3e} across 3 variants")


CHECKS = (
    ("winding quantization", check_winding_quantization),
    ("su2 generator degree", check_su2_generator),
    ("chern-simons consistency", check_chern_simons_consistency),
    ("transgression identity", check_transgression),
    ("product splitting", check_product_splitting),
    ("collapse degree", check_collapse_degree),
    ("gaussian moment", check_gaussian_moment),
    ("two-path gamma identity", check_two_path_gamma),
    ("localization sign chain", check_localize_sign_chain),
    ("point case", check_flz_point_case),
    ("gamma(T) profile", check_gamma_profile),
    ("scale/unitarization robustness", check_robustness),
)


def run_all_checks(only=None):
    """Run the named checks (all by default) and return their result dicts."""
    results = []
    for name, fn in CHECKS:
        if only and name not in only:
            continue
        results.append(fn())
    return results
