"""Super-connection Chern forms and the boundary transgression on sphere models.

On a boundary model (product sphere, or odd sphere for the point case) the
bundles are trivialized and the connection is the flat d, so the whole
deformation machinery reduces to explicit expressions in the unitary-valued
map v and its derivative (a model replaces a non-unitary v of size 1 or 2 by
its polar part, whose dual pass through v's jet is exact): the deformed square
is t^2 Id + t dV with V = [[0, v*], [v, 0]], and the boundary transgression
form is (2 pi i)^{-1/2} phi(Tr_s(V exp(-t dV))) e^{-t^2} integrated in t.

Only the top-degree piece of that form reaches the boundary integral, and
its t-dependence factors out: it is (-t)^d/d! phi(Tr_s(V dV^d)) with d the
chart dimension.  So each model integrates the T-independent form
phi(Tr_s(V dV^d)) once and keeps the value; every gamma(T) is then a scalar
t-integral in closed form times it.  The same sweep of the model grid, from the
same jet of v per node block, also integrates the top odd Chern form of v,
which deg* and the closed-form limit need.  V and dV are block
off-diagonal: with a = sum dv_i dx_i and b = sum dv_i* dx_i, V dV^d is
block diagonal with blocks v* (a b a ...) and v (b a b ...), so the
supertrace is Tr(v* X) - Tr(v Y) with the alternating wedges
X = a b a ... and Y = b a b ... (d factors each).  Both are built from one
N x N form c = (b a)^k, k = (d - 1)/2, as X = a c and Y = c b, one block
product per adjoint pair; the kernel wedges c by GradedMatrixForm.wedge, as
the dense odd_endomorphism and derivative_form, and folds the last factor
into the trace.  A model of a pure pullback phi* h lives on the collapse
map's ball chart, since outside the ball both top forms are exactly 0:
v = compose_map_with_matrix(ball, h) on ball.source, with
ball = collapse.CollapseMap.ball() the map in the ball's polar coordinates.

Orientation convention: the boundary of a tubular neighborhood is oriented
opposite to our factor-ordered product orientation.  Boundary integrals of
the transgression form therefore carry BOUNDARY_ORIENTATION_SIGN; with that
pin the limit of the boundary integral equals (-1)^n deg*(v) and the main
localization sum (-1)^(n+1) sum deg*(v_i) equals minus the sum of the limits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import exp, factorial, lgamma, log

import numpy as np

from . import dual
from .chern import _normalized_degree, _odd_chern_top, _sweep, deg, odd_chern_top_integral
from .defaults import (
    DEGREE_RESIDUAL_TOL,
    GAMMA_COARSE_SCALE,
    MIN_SINGULAR_VALUE,
    SPLIT_LADDER,
    T_MAX,
    UNITARY_TOL,
)
from .domains import SingularMapError
from .forms import (
    SQRT_2PI_I,
    GradedMatrixForm,
    _block_product,
    _trace_of_product,
)
from .maps import SmoothMatrixMap
from .results import DegreeResult

BOUNDARY_ORIENTATION_SIGN = -1.0


def gaussian_moment(n: int) -> float:
    """int_0^inf t^(2n-1) exp(-t^2) dt = (n-1)!/2, used analytically."""
    return 0.5 * factorial(n - 1)


def _incomplete_gamma_ratio(n: int, T: float) -> float:
    """P(n, T^2) = int_0^T t^(2n-1) e^(-t^2) dt / gaussian_moment(n), the Poisson
    tail sum_(k >= n) e^(-x) x^k/k! at x = T^2: summed below T = 1 (20 terms
    leave under 1/20! of the first), else 1 - sum_(k < n).  Each term is
    exp(2k log T - T^2 - lgamma(k + 1)), finite at every finite T."""
    def term(k):
        return exp(2 * k * log(T) - T * T - lgamma(k + 1))

    return sum(map(term, range(n, n + 20))) if T < 1.0 else 1.0 - sum(map(term, range(n)))


def _polar(v, n):
    """The polar part u of v = u P, P = (v* v)^(1/2), on an (n, n, npts) block of
    plain values or Duals (Higham, Functions of Matrices, ch. 8): u = v/|v| for
    n = 1; for n = 2 Cayley-Hamilton gives u = (v + w adj(v)*)/tr P with
    w = det v/|det v| and tr P = sqrt(F + 2|det v|), F = ||v||_F^2.  The least
    singular value, |v| or 2|det v|/(sqrt(F + 2|det v|) + sqrt(F - 2|det v|)),
    is held to MIN_SINGULAR_VALUE on plain values, before any dual square root."""
    q = dual.real(v) ** 2 + dual.imag(v) ** 2
    if n == 1:
        low = np.sqrt(dual.value(q)[0, 0])
    else:
        f = q[0, 0] + q[0, 1] + q[1, 0] + q[1, 1]
        det = v[0, 0] * v[1, 1] - v[0, 1] * v[1, 0]
        det2 = dual.real(det) ** 2 + dual.imag(det) ** 2
        fv, dv = dual.value(f), np.sqrt(dual.value(det2))
        spread = np.sqrt(fv + 2.0 * dv) + np.sqrt(np.maximum(fv - 2.0 * dv, 0.0))
        low = np.divide(2.0 * dv, spread, out=np.zeros_like(fv), where=fv > 0.0)
    node = int(np.argmin(low))
    if low[node] < MIN_SINGULAR_VALUE:
        raise SingularMapError("v*v nearly singular", node)
    if n == 1:
        return v / dual.sqrt(q)
    dabs, signs = dual.sqrt(det2), np.array([[1.0, -1.0], [-1.0, 1.0]])[:, :, None]
    return (v + det / dabs * dual.conj(v[::-1, ::-1]) * signs) / dual.sqrt(f + 2.0 * dabs)


class _PolarMap(SmoothMatrixMap):
    """The polar part of v, _polar of v's values; its jet is _polar's dual
    pass through v's jet, so it is exact without a derivative formula."""

    def __init__(self, v: SmoothMatrixMap):
        self.v, self.size = v, v.size

    def evaluate(self, domain, pts):
        return _polar(self.v.evaluate(domain, pts), self.size)

    def jet(self, domain, pts):
        u = _polar(dual.from_jet(*self.v.jet(domain, pts)), self.size)
        vals, *ds = dual.jet_rows([u], domain.dim)[0]
        return vals, np.stack(ds)


def unitarize(v: SmoothMatrixMap) -> SmoothMatrixMap:
    """Polar part v (v* v)^(-1/2) of a map of size 1 or 2, homotopic to v through invertibles."""
    if v.size > 2:
        raise ValueError(f"unitarize takes maps of size 1 or 2, not {v.size}")
    return _PolarMap(v)


def _unitarity_defect(v, domain) -> float:
    """max ||v* v - Id|| over about 512 strided grid nodes; errors name grid nodes."""
    try:
        a = v.evaluate(domain, domain.sample_nodes(512))
    except SingularMapError as exc:
        raise SingularMapError(exc.what, exc.index * domain.sample_stride(512)) from None
    return float(np.abs(_block_product(_adjoint(a), a) - np.eye(v.size)[:, :, None]).max())


class SuperBundleModel:
    """Z2-graded boundary data (E+ (+) E-, v) over a charted sphere domain.

    A v that is unitary on the 512-node sample is kept with its own jet;
    any other v is replaced by its polar part, unitarize(v).
    """

    def __init__(self, domain, v: SmoothMatrixMap):
        if domain.dim % 2 == 0:
            raise ValueError("boundary models have odd dimension 2n - 1")
        self.domain = domain
        self.rank = v.size
        self.v = v
        self._deg_star = None
        self._top_integrals = None  # (gamma top, odd Chern top)
        if _unitarity_defect(v, domain) >= UNITARY_TOL:
            self.v = unitarize(v)
            self.check_unitary()

    def at_scale(self, scale: float) -> "SuperBundleModel":
        """This v, unitarity decision kept, on self.domain.at_scale(scale), unswept."""
        out = SuperBundleModel.__new__(SuperBundleModel)
        out.__dict__.update(vars(self), domain=self.domain.at_scale(scale),
                            _deg_star=None, _top_integrals=None)
        return out

    @property
    def n(self) -> int:
        return (self.domain.dim + 1) // 2

    def check_unitary(self):
        err = _unitarity_defect(self.v, self.domain)
        if err > UNITARY_TOL:
            raise ValueError(f"model's v is not unitary: ||v* v - Id|| = {err:.3e}")

    # -- pointwise super data ---------------------------------------------------

    def odd_endomorphism(self, pts) -> GradedMatrixForm:
        """V = v + v* as a degree-0 form with 2N x 2N coefficients."""
        v = self.v.evaluate(self.domain, pts)
        form = GradedMatrixForm(self.domain.dim, 2 * self.rank, len(pts))
        form.comps[0] = _odd_block(_adjoint(v), v)
        return form

    def derivative_form(self, pts) -> GradedMatrixForm:
        """dV as a degree-1 form with odd 2N x 2N coefficients."""
        dvs = self.v.jet(self.domain, pts)[1]
        return GradedMatrixForm.one_form([_odd_block(_adjoint(dv), dv) for dv in dvs])

    def _tops(self):
        if self._top_integrals is None:
            self._top_integrals = _gamma_top_integral(self)
        return self._top_integrals

    def gamma_top(self) -> complex:
        """Integral of phi(Tr_s(V dV^d)) over the model, from the model's one sweep.

        This is the T-independent factor of every gamma(T) on the model.
        """
        return self._tops()[0]

    def chern_top(self) -> complex:
        """Top integral of the odd Chern form of v over the model, from the same sweep.

        This is the un-normalized deg*(v) on the model's own grid, shared by
        the deg* ladder and the closed-form gamma limit.
        """
        return self._tops()[1]

    def _chern_top_on(self, dom) -> complex:
        """Odd Chern top integral on a ladder grid, self.domain.at_scale(s),
        reusing the model's own sweep when s is the model's scale."""
        if dom.scale == self.domain.scale:
            return self.chern_top()
        return odd_chern_top_integral(self.v, dom)

    def degree_star(self) -> DegreeResult:
        """deg* of v (deg on an odd sphere) on SPLIT_LADDER, computed once per model.

        The ladder level on the model's own grid reuses chern_top().
        """
        if self._deg_star is None:
            self._deg_star = _normalized_degree(self.v, self.domain, SPLIT_LADDER,
                                                top_integral=self._chern_top_on)
        return self._deg_star


def boundary_model(source, v: SmoothMatrixMap) -> SuperBundleModel:
    """The model of v on source's grid at the last SPLIT_LADDER scale.

    deg* then ends on the model's own grid, whose sweep the gamma integrals
    and the closed form share.
    """
    return SuperBundleModel(source.at_scale(SPLIT_LADDER.scales[-1]), v)


def _adjoint(blocks):
    """Pointwise conjugate transpose of (..., N, N, npts) block arrays."""
    return np.conj(np.swapaxes(blocks, -3, -2))


def _odd_block(pm, mp):
    """The odd 2N x 2N block [[0, pm], [mp, 0]] of two (N, N, npts) blocks."""
    n, _, npts = pm.shape
    out = np.zeros((2 * n, 2 * n, npts), dtype=complex)
    out[:n, n:] = pm
    out[n:, :n] = mp
    return out


def _top_supertrace(v, dv) -> np.ndarray:
    """Tr_s(V dV^d) on the top multi-index, from v and its d differentials.

    v is an (N, N, npts) block and dv (d, N, N, npts), a jet as every map
    returns it, so no block is converted here.  With a = sum dv_i dx_i and
    b = sum dv_i* dx_i, V dV^d = diag(v* X, v Y) where X = a ^ b ^ a ... and
    Y = b ^ a ^ b ..., so the supertrace is Tr(v* X) - Tr(v Y).  Both share
    c = b ^ a ^ ... (d - 1 factors): X = a ^ c and Y = c ^ b.  With c^i the
    coefficient of c on every coordinate but i, their top coefficients are
    sum_i (-1)^i a_i c^i and, d being odd, sum_i (-1)^i c^i b_i.  So the
    supertrace is sum_i (-1)^i Tr(m_i c^i), m_i = v* dv_i - dv_i* v.  Each
    adjoint pair is one block product, for any v: m_i = X_i - X_i* with
    X_i = v* dv_i, and c = Z^k (k = (d - 1)/2, Id at d = 1) for the 2-form
    Z = b ^ a, Y_ij - Y_ij* on dx_i ^ dx_j (i < j) with Y_ij = dv_i* dv_j.
    Z* = -Z gives c* = (-1)^k c, so Tr(m_i c^i) = t - (-1)^k conj(t) with
    t = Tr(X_i c^i).  That is 6 block products at d = 3 and 45 at d = 5.
    """
    d, top, k = len(dv), (1 << len(dv)) - 1, (len(dv) - 1) // 2
    z = GradedMatrixForm(d, v.shape[0], v.shape[-1])
    for i in range(d - 1):
        dvh = _adjoint(dv[i])
        for j in range(i + 1, d):
            z.comps[(1 << i) | (1 << j)] = y = _block_product(dvh, dv[j])
            y -= _adjoint(y)
    c = z.wedge_power(k) if k else GradedMatrixForm.identity(d, v.shape[0], v.shape[-1])
    vh, total = _adjoint(v), 0.0
    for i in range(d):
        t = _trace_of_product(_block_product(vh, dv[i]), c.comps[top ^ (1 << i)])
        term = t + np.conj(t) if k & 1 else t - np.conj(t)
        total = total - term if i & 1 else total + term
    return total


def _gamma_top_integral(model: SuperBundleModel):
    """The model's one sweep: (gamma top, odd Chern top) over its grid.

    Per node block one jet of v feeds both top integrals: phi(Tr_s(V dV^d))
    with the t-factor stripped (_top_supertrace), and c_k Tr((v^{-1} dv)^d),
    the top part of the odd Chern form (_odd_chern_top, which rejects
    singular nodes).
    """
    norm = SQRT_2PI_I ** (-model.domain.dim)

    def kernel(vals, dvs):
        return np.stack([norm * _top_supertrace(vals, dvs), _odd_chern_top(vals, dvs)])

    gamma, chern = _sweep(model.v, model.domain, kernel)
    return complex(gamma), complex(chern)


def gamma_boundary_integral(model: SuperBundleModel, T: float = T_MAX) -> complex:
    """Boundary integral of the transgression form gamma(T).

    The top piece of the integrand is (-t)^d exp(-t^2)/d! times the
    T-independent form phi(Tr_s(V dV^d)), whose integral the model computes
    once and keeps (SuperBundleModel.gamma_top).  Each call only takes the
    t-integral of the scalar factor, in closed form: d = 2n - 1 is odd, so
    int_0^T (-t)^d exp(-t^2) dt = -gaussian_moment(n) P(n, T^2).
    """
    n = model.n
    scalar = -gaussian_moment(n) * _incomplete_gamma_ratio(n, T) / factorial(model.domain.dim)
    return complex(BOUNDARY_ORIENTATION_SIGN * scalar * model.gamma_top() / SQRT_2PI_I)


def gamma_closed_form(model: SuperBundleModel) -> complex:
    """Large-deformation limit of the boundary integral, in closed form.

    The Gaussian moment is used analytically; the remaining factor is the
    normalized top integral of Tr(( v^{-1} dv )^(2n-1)) over the model, which
    equals (-1)^n deg*(v) under the pinned boundary orientation.  That
    integral is the model's chern_top(): it is swept at most once per model,
    and reused here if the deg* ladder has already swept the model's grid.
    No ladder runs, whether or not deg* has been computed.
    """
    n = model.n
    # chern_top() carries the odd Chern coefficient (-1)^(n-1) (n-1)!/(2n-1)!,
    # and the limit needs (-1)^n 2 gaussian_moment(n)/(2n-1)! times the same
    # trace; the ratio of the two factorial factors is exactly 1.
    coeff = -2.0 * gaussian_moment(n) / factorial(n - 1) * (2.0j * np.pi) ** (-n)
    return complex(BOUNDARY_ORIENTATION_SIGN * coeff * model.chern_top())


@dataclass
class GammaReport:
    """Two-path record for one boundary model."""

    T_values: list
    boundary_integrals: list
    limit: complex
    closed_form_value: complex
    deg_star_value: DegreeResult
    convergence: list = field(default_factory=list)

    @property
    def two_path_gap(self) -> float:
        return abs(self.limit - self.closed_form_value)


def gamma_report(model: SuperBundleModel, T_values) -> GammaReport:
    """Run the deformation sweep plus the closed form and degree cross-check.

    The limit is the boundary integral at the last T, and the coarse row the
    same model at GAMMA_COARSE_SCALE (at_scale).  deg* runs first, so on a
    boundary_model its ladder's last level makes the model's one sweep.
    """
    deg_star_value = model.degree_star()
    integrals = [gamma_boundary_integral(model, T) for T in T_values]
    limit = integrals[-1]
    coarse_model = model.at_scale(GAMMA_COARSE_SCALE)
    coarse = gamma_boundary_integral(coarse_model, T_values[-1])
    return GammaReport(
        T_values=list(T_values),
        boundary_integrals=integrals,
        limit=limit,
        closed_form_value=gamma_closed_form(model),
        deg_star_value=deg_star_value,
        convergence=[(coarse_model.domain.scale, coarse), (model.domain.scale, limit)],
    )


@dataclass
class LocalizeReport:
    """Localization of the relative Chern character number over boundary models."""

    value: complex
    gamma_path: complex
    per_model: list
    agreement: float

    @property
    def converged(self) -> bool:
        return all(m["deg_star"].converged for m in self.per_model)

    @property
    def consistent(self) -> bool:
        # The degree path is rounded to an integer while the gamma path keeps
        # its quadrature error, so the gap is bounded by the degree residual
        # tolerance rather than the same-grid two-path tolerance.  Each
        # rounded deg* counts only if it is accepted.
        return (self.agreement < DEGREE_RESIDUAL_TOL
                and all(m["deg_star"].accepted for m in self.per_model))


def localize(models) -> LocalizeReport:
    """(-1)^(n+1) sum deg*(v_i), cross-checked against -sum of gamma limits;
    every model shares the half-dimension n."""
    if not models:
        raise ValueError("localize needs at least one boundary model")
    n = models[0].n
    if any(m.n != n for m in models):
        raise ValueError("all models must share the same half-dimension n")
    per_model, deg_sum, gamma_sum = [], 0, 0.0 + 0.0j
    for m in models:
        ds = m.degree_star()
        glim = gamma_boundary_integral(m, T_MAX)
        per_model.append({"deg_star": ds, "gamma_limit": glim})
        deg_sum += ds.rounded
        gamma_sum += glim
    value = complex((-1.0) ** (n + 1) * deg_sum)
    gamma_path = -gamma_sum
    return LocalizeReport(
        value=value,
        gamma_path=gamma_path,
        per_model=per_model,
        agreement=abs(value - gamma_path),
    )


@dataclass
class PointCaseReport:
    value: complex
    degree: DegreeResult


def flz_point_case(v: SmoothMatrixMap, domain) -> PointCaseReport:
    """Point-singularity contribution (-1)^(n-1) deg(v) on domain = S^(2n-1)."""
    if domain.is_product or domain.dim % 2 == 0:
        raise ValueError("point case lives on an odd sphere S^(2n-1)")
    n = (domain.dim + 1) // 2
    model = SuperBundleModel(domain, v)
    d = deg(model.v, domain)
    return PointCaseReport(value=complex((-1.0) ** (n - 1) * d.rounded), degree=d)
