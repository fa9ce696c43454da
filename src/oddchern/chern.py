"""Odd Chern character, Chern-Simons transgression, and degree functionals.

The odd Chern form of an invertible matrix map g is the finite series
sum_k (-1)^k k!/(2k+1)! Tr(w^(2k+1)) with w = g^{-1} dg, truncated by
nilpotency at the chart dimension.  Its normalized top integral over an odd
sphere (or a product sphere of odd total dimension) quantizes to an integer.

Every form here is a forms.GradedMatrixForm on point-axis-last blocks.  On a
chart of odd dimension d only the k = (d-1)/2 term reaches the top degree,
so the degree functionals integrate that term alone (odd_chern_top_integral):
per node block one jet pass gives g and its d differentials,
_maurer_cartan_form builds w, and _odd_chern_top folds its last wedge into
the trace, Tr(w^d)_top = d Tr(w_0 (w_1 ^ ... ^ w_(d-1))_top), which holds
because a cyclic shift of an odd number of factors is an even permutation.
w is formed on the same (N, N, npts) blocks, as g^{-1} times each dg_i, with
g^{-1} in closed form for N <= 3 (1/g, or the adjugate over det g) and by
LAPACK from N = 4; a node with |det g| < MIN_DETERMINANT raises SingularMapError
naming its grid index.  The sweep (_sweep) runs the jet on the columns of
each node block of domains.ChartedSphereDomain.integrate, so the map's
intermediates are computed per axis and expanded to the block's nodes only
when packed; the kernel allocates g^{-1}, the w_i and the wedge per block.
A pure pullback through the collapse map is swept on the map's ball chart
(domains.ChartedSphereDomain.ball), outside which it is constant, with the
map in the ball's polar coordinates (collapse.CollapseMap.ball); the sweep
still tests its value there for singularity.  A boundary model's single
sweep (superconn) feeds the same kernel from the jet it also uses for the
gamma top integral.  The mixed-degree forms odd_chern and maurer_cartan
serve the transgression and Chern-Simons identities, which need every
degree; transgression_form's Ch~ takes g^{-1}, w and d/dt g_t from one
jet of g_t (maps.HomotopyFamily.jet), which embeds the points once.
"""

from __future__ import annotations

from math import factorial

import numpy as np

from .defaults import DEGREE_LADDER, MIN_DETERMINANT
from .domains import SingularMapError, gauss_axis
from .fields import FormField, exterior_derivative
from .forms import (
    GradedMatrixForm,
    _block_product,
    _diagonal_sum,
    _trace_of_product,
    nilpotent_exp,
)
from .maps import (
    ChartMap,
    DualMatrixMap,
    ProductMatrixMap,
    SmoothMatrixMap,
    circle_winding,
    compose_map_with_matrix,
    projection_second_factor,
    stabilize,
    su2_identity,
)
from .results import DegreeResult

# Sign of the curvature exponent in the Chern-Simons integrand, pinned so
# that cs(d, d + g^{-1} dg) reproduces the odd Chern series (regression
# tested): for A_u = u*w the curvature is (u^2 - u) w^2 and
# int_0^1 (u^2-u)^k du = (-1)^k k! k! / (2k+1)! yields exactly the series.
CURVATURE_EXP_SIGN = +1.0


def _checked_inverse(g):
    """Pointwise inverse of an (N, N, npts) block array, rejecting singular nodes.

    N <= 3 are closed forms: 1/g; for N = 2 the adjugate over
    det = g00 g11 - g01 g10; for N = 3 the transposed cofactors, written
    entry by entry into the result, over the det that expands along their
    first row.  From N = 4 it falls back to batched LAPACK on a
    point-axis-first view.
    """
    n = g.shape[0]
    out = np.empty_like(g)
    if n == 1:
        det = g[0, 0]
    elif n == 2:
        det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    elif n == 3:
        # out[j, i] = cof[i, j] = g[i+1, j+1] g[i+2, j+2] - g[i+1, j+2] g[i+2, j+1], indices mod 3.
        for i in range(3):
            i1, i2 = (i + 1) % 3, (i + 2) % 3
            for j in range(3):
                j1, j2 = (j + 1) % 3, (j + 2) % 3
                np.multiply(g[i1, j1], g[i2, j2], out=out[j, i])
                out[j, i] -= g[i1, j2] * g[i2, j1]
        det = g[0, 0] * out[0, 0] + g[0, 1] * out[1, 0] + g[0, 2] * out[2, 0]
    else:
        det = np.linalg.det(np.moveaxis(g, -1, 0))
    absdet = np.abs(det)
    node = int(np.argmin(absdet))
    if absdet[node] < MIN_DETERMINANT:
        raise SingularMapError("matrix map singular", node)
    if n == 1:
        return np.divide(1.0, g, out=out)
    if n == 2:
        r = 1.0 / det
        np.multiply(g[1, 1], r, out=out[0, 0])
        np.multiply(g[0, 0], r, out=out[1, 1])
        np.multiply(g[0, 1], -r, out=out[0, 1])
        np.multiply(g[1, 0], -r, out=out[1, 0])
        return out
    if n == 3:
        return np.divide(out, det, out=out)
    out[...] = np.moveaxis(np.linalg.inv(np.moveaxis(g, -1, 0)), 0, -1)
    return out


def _sweep(g: SmoothMatrixMap, domain, kernel):
    """Oriented quadrature sum of kernel(vals, dgs), (..., npts), over domain's grid.

    (vals, dgs) is g.jet(domain, block) on each block of domain.integrate.
    The kernel allocates its (N, N, npts) block arrays per block, and they
    are freed before the next block's jet.  A domain whose grid leaves out a
    region where g is taken to be constant (the ball,
    domains.ChartedSphereDomain.ball) has an exterior point there; g's value
    at it is held to _checked_inverse's singularity test first, and an error
    there names index domain.n_nodes, one past the grid's last node.
    """
    if domain.exterior is not None:
        try:
            _checked_inverse(g.evaluate(domain, domain.exterior))
        except SingularMapError as exc:
            raise SingularMapError(exc.what, domain.n_nodes) from None
    return domain.integrate(lambda block: kernel(*g.jet(domain, block)))


def maurer_cartan(g: SmoothMatrixMap, domain) -> FormField:
    """Degree-1 matrix form field with coefficients g^{-1} dg/dx_i."""

    def sampler(pts):
        vals, dgs = g.jet(domain, pts)
        return _maurer_cartan_form(_checked_inverse(vals), dgs)

    return FormField(domain, g.size, sampler)


def odd_chern_coefficient(k: int) -> float:
    return (-1.0) ** k * factorial(k) / factorial(2 * k + 1)


def _maurer_cartan_form(inv, dgs) -> GradedMatrixForm:
    """w = sum_i g^{-1} dg_i dx_i from g^{-1} and the differentials of g.

    inv is g^{-1} at a batch of nodes, an (N, N, npts) block, and dgs the
    (d, N, N, npts) differentials of g's jet, in the same block layout, so
    each w_i is one block product with no conversion.
    """
    return GradedMatrixForm.one_form([_block_product(inv, dg) for dg in dgs])


def _odd_chern_top(vals, dgs) -> np.ndarray:
    """Top coefficient of odd_chern(g) from a jet of g: c_k Tr(w^d), d = 2k + 1.

    A cyclic shift of an odd number of factors is an even permutation, so
    under the trace every term of w^d can be rotated to start with w_0:
    Tr(w^d)_top = d Tr(w_0 (w_1 ^ ... ^ w_(d-1))_top), where the wedge is the
    (d-1)-th power of sum_(i>0) w_i dx_i on the coordinates after the first.
    g^{-1} is freed once w is formed, before the wedge allocates its top
    component.
    """
    d = len(dgs)
    w = _maurer_cartan_form(_checked_inverse(vals), dgs)
    w0, *w_rest = (w.comps[1 << i] for i in range(d))
    c = odd_chern_coefficient((d - 1) // 2)
    if d == 1:
        return c * _diagonal_sum(w0, range(vals.shape[0]))
    top = (1 << (d - 1)) - 1
    rest = GradedMatrixForm.one_form(w_rest).wedge_power(d - 1)
    return (c * d) * _trace_of_product(w0, rest.comps[top])


def odd_chern_top_integral(g: SmoothMatrixMap, domain) -> complex:
    """Integral of the top-degree part of odd_chern(g) over the domain's grid."""
    return complex(_sweep(g, domain, _odd_chern_top))


def odd_chern(g: SmoothMatrixMap, domain) -> FormField:
    """Odd Chern character form of g as a scalar-valued odd-degree field."""
    omega = maurer_cartan(g, domain)

    def sampler(pts):
        w = omega.at(pts)
        return _trace_series(w, 1, w, domain.dim, odd_chern_coefficient)

    return FormField(domain, 1, sampler)


def _trace_series(lead, degree, w, dim, coefficient):
    """sum_k coefficient(k) Tr(lead ^ (w ^ w)^k) over every k with
    degree + 2k <= dim, for a lead of that degree and a 1-form w."""
    w2, power = w.wedge(w), lead
    out = lead.trace().scale(coefficient(0))
    for k in range(1, (dim - degree) // 2 + 1):
        power = power.wedge(w2)
        out = out + power.trace().scale(coefficient(k))
    return out


def chern_simons(conn0: FormField, conn1: FormField, domain) -> FormField:
    """Transgression form between two trivial-bundle connections d + A.

    16-node Gauss-Legendre quadrature in the interpolation parameter of
    Tr(d/du A_u wedge exp(F_u)), F_u = dA_u + A_u wedge A_u; the nilpotent
    exponential is exact, so only the u-quadrature is approximate (and the
    integrand is polynomial in u, hence exact for enough nodes).
    """
    d0 = exterior_derivative(conn0)
    d1 = exterior_derivative(conn1)
    xs, ws = gauss_axis((16, (0.0, 1.0)))

    def sampler(pts):
        a0, da0 = conn0.at(pts), d0.at(pts)
        adot, dadot = conn1.at(pts) - a0, d1.at(pts) - da0
        out = None
        for u, w in zip(xs, ws):
            au = a0 + adot.scale(u)
            dau = da0 + dadot.scale(u)
            curv = (dau + au.wedge(au)).scale(CURVATURE_EXP_SIGN)
            term = adot.wedge(nilpotent_exp(curv)).trace().scale(w)
            out = term if out is None else out + term
        return out

    return FormField(domain, 1, sampler)


def transgression_form(family, domain, t: float) -> FormField:
    """Ch~(g_t) = sum_k (-1)^k k!/(2k)! Tr(g^-1 g_dot w^(2k)), whose exterior
    derivative is d/dt Ch(g_t).  g, its differentials and g_dot come from
    one family.jet, so the points are embedded once per sample."""

    def tilde_sampler(pts):
        vals, dgs, g_dot = family.jet(domain, pts, t)
        inv = _checked_inverse(vals)
        q = GradedMatrixForm(domain.dim, family.size, len(pts))
        q.comps[0] = _block_product(inv, g_dot)
        return _trace_series(q, 0, _maurer_cartan_form(inv, dgs), domain.dim,
                             lambda k: (-1.0) ** k * factorial(k) / factorial(2 * k))

    return FormField(domain, 1, tilde_sampler)


def _normalized_degree(g: SmoothMatrixMap, domain, ladder=DEGREE_LADDER,
                       top_integral=None) -> DegreeResult:
    """Ladder of the normalized odd-Chern top integral over domain.at_scale(s),
    of odd dimension 2n - 1 and normalized by (-2 pi i)^(-n).

    top_integral(dom), when given, supplies the top integral on each level's
    grid, so that a caller holding that integral for some grid can reuse it.
    """
    if top_integral is None:
        def top_integral(dom):
            return odd_chern_top_integral(g, dom)
    norm = (-2.0j * np.pi) ** (-((domain.dim + 1) // 2))
    return DegreeResult.from_ladder(ladder, domain, lambda dom: norm * top_integral(dom))


def deg(g: SmoothMatrixMap, domain, ladder=DEGREE_LADDER) -> DegreeResult:
    """Normalized odd-Chern integral over an odd sphere S^(2k-1)."""
    if domain.is_product or domain.dim % 2 == 0:
        raise ValueError("deg is defined on odd spheres")
    return _normalized_degree(g, domain, ladder)


def deg_star(g: SmoothMatrixMap, domain, ladder=DEGREE_LADDER) -> DegreeResult:
    """Normalized odd-Chern integral over a product sphere of odd total dimension."""
    if not domain.is_product or domain.dim % 2 == 0:
        raise ValueError("deg_star needs a product domain of odd total dimension")
    return _normalized_degree(g, domain, ladder)


def assemble_split_map(f: DualMatrixMap, h: DualMatrixMap,
                       collapse: ChartMap) -> SmoothMatrixMap:
    """The normal-form product (pr_2^* f) . (phi^* h) on the product domain."""
    if f.size != h.size:
        big = max(f.size, h.size)
        if f.size < big:
            f = stabilize(f, big - f.size)
        else:
            h = stabilize(h, big - h.size)
    product = collapse.source
    pr2 = projection_second_factor(product, type(product).sphere(product.spheres[1]))
    return ProductMatrixMap(
        compose_map_with_matrix(pr2, f),
        compose_map_with_matrix(collapse, h),
    )


def generator(kind: str, size: int = 2, m: int = 1) -> DualMatrixMap:
    """Explicit representatives: circle windings and the S^3 -> SU(2) identity."""
    if kind == "circle_winding":
        return circle_winding(m, size=size)
    if kind == "su2_identity":
        return su2_identity(size=size)
    if kind == "constant":
        return circle_winding(0, size=size)
    raise ValueError(f"unknown generator kind: {kind}")
