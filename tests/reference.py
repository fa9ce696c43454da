"""Reference code and test inputs that the package itself never runs.

Independent oracles (a signed preimage count, the round volume density of a
chart, a whole grid's weights, the two-connection Chern-Simons form),
plain-pass views of a map (its ambient
values, the collapse map's stereographic radius), and small builders of test
inputs.  The tests import them from here so that src/oddchern holds only
the program.
"""

import numpy as np

from oddchern import dual
from oddchern.chern import CURVATURE_EXP_SIGN
from oddchern.domains import NodeBlock, chart_columns, gauss_axis
from oddchern.fields import FormField, exterior_derivative
from oddchern.forms import SQRT_2PI_I, GradedMatrixForm, nilpotent_exp
from oddchern.maps import DualMatrixMap

# -- maps -------------------------------------------------------------------------


def constant_map(mat) -> DualMatrixMap:
    """The matrix map x -> mat."""
    mat = np.asarray(mat, dtype=complex)

    def fn(cols):
        ones = np.ones_like(dual.value(cols[0]))
        return [[mat[i, j] * ones for j in range(mat.shape[1])]
                for i in range(mat.shape[0])]

    return DualMatrixMap(fn, mat.shape[0])


def evaluate_ambient(chart_map, pts) -> np.ndarray:
    """A chart map's ambient values at pts, one (npts, k) array of a plain pass."""
    cols, shape = chart_columns(pts)
    out = chart_map.ambient_fn(chart_map.source.embed_cols(cols))
    return np.stack([np.broadcast_to(c, shape) for c in out], axis=-1).reshape(-1, len(out))


def local_radius(phi, pts) -> np.ndarray:
    """|w| = |(sigma_p, sigma_q)| of a collapse map phi at its product chart
    points; np.inf at the wedge."""
    amb = phi.source.embed(np.asarray(pts, float))
    with np.errstate(divide="ignore"):
        s1 = (1.0 + amb[:, 0]) / (1.0 - amb[:, 0])
        s2 = (1.0 + amb[:, phi.p + 1]) / (1.0 - amb[:, phi.p + 1])
    return np.sqrt(s1 + s2)


# -- forms ------------------------------------------------------------------------


def max_abs(form) -> float:
    """The largest |coefficient| over every component of a GradedMatrixForm."""
    vals = [np.abs(c).max() for c in form.comps if c is not None]
    return float(max(vals)) if vals else 0.0


def normalize_2pi(w):
    """Scale each degree-k component by (2*pi*i)**(-k/2), principal branch."""
    return w.scale_by_degree(lambda k: SQRT_2PI_I ** (-k))


# -- fields -----------------------------------------------------------------------


def zero_field(domain, size) -> FormField:
    """The degree-0 field 0 of size x size matrices: no components."""
    return FormField(domain, size, lambda pts: GradedMatrixForm(domain.dim, size, len(pts)))


def chern_simons_between(conn0, conn1, domain) -> FormField:
    """cs(d + A0, d + A1) between two trivial-bundle connections: 16-node
    Gauss-Legendre quadrature in u of Tr(d/du A_u wedge exp(F_u)),
    A_u = A0 + u (A1 - A0), F_u = dA_u + A_u wedge A_u."""
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


# -- quadrature -------------------------------------------------------------------


def sphere_sqrtg(cols, m: int):
    """Volume density of the round metric on S^m in hyperspherical angles."""
    g = 1.0
    for j in range(m - 1):
        g = g * np.sin(cols[j]) ** (m - 1 - j)
    return g if m > 1 else np.ones_like(cols[0])


def volume_density(dom, pts) -> np.ndarray:
    """The round volume density of a sphere or product chart at (npts, dim) points."""
    g = 1.0
    for chart, _ in dom.factor_slices():
        g = g * sphere_sqrtg(list(pts.T[chart]), chart.stop - chart.start)
    return np.asarray(g, dtype=float) * np.ones(len(pts))


def volume_integral(dom) -> float:
    """The quadrature of the round volume form over a sphere or product chart."""
    return dom.integrate(lambda block: volume_density(dom, block.points()))


def grid_weights(dom) -> np.ndarray:
    """The weights of every grid node in C order: the block of every node."""
    return NodeBlock(dom.axes, dom.shape, [np.arange(n) for n in dom.shape]).weights()


# -- the preimage oracle ----------------------------------------------------------


def signed_preimage_count(chart_map, target_chart_point, rng):
    """Independent degree oracle: signed count of preimages of a regular value.

    60 Gauss-Newton steps in chart coordinates from 300 scattered starts;
    roots with residual at most 1e-9 are deduped in the source's ambient
    metric and signed by the orientation of the ambient Jacobian determinant.
    """
    src, tgt = chart_map.source, chart_map.target
    y = tgt.embed(np.asarray(target_chart_point, float).reshape(1, -1))[0]

    los = np.array([a[0].min() for a in src.axes])
    his = np.array([a[0].max() for a in src.axes])
    starts = rng.uniform(los, his, size=(300, src.dim))

    roots = []
    x = starts.copy()
    for _ in range(60):
        jet = np.array(chart_map.ambient_jacobian_columns(x))  # (amb_t, 1 + dim_s, n)
        res = jet[:, 0].T - y
        jac = jet[:, 1:].transpose(2, 0, 1)  # (n, amb_t, dim_s)
        step = np.zeros_like(x)
        for i in range(len(x)):
            step[i], *_ = np.linalg.lstsq(jac[i], res[i], rcond=None)
        x = x - np.clip(step, -0.5, 0.5)
        x = np.clip(x, los + 1e-9, his - 1e-9)
    jet = np.array(chart_map.ambient_jacobian_columns(x))
    res_norm = np.linalg.norm(jet[:, 0].T - y, axis=1)
    amb = src.embed(x)
    for i in np.argsort(res_norm):
        if res_norm[i] > 1e-9:
            break
        if any(np.linalg.norm(amb[i] - a) < 1e-5 for a, _ in roots):
            continue
        sign = 1 if np.linalg.det(jet[..., i]) > 0 else -1
        roots.append((amb[i], sign))
    return sum(s for _, s in roots), len(roots)
