"""Invertible-matrix-valued maps on charted domains, with derivative contracts.

Maps are written as functions of the domain's *ambient* coordinates, so the
same map works on any quadrature resolution of the domain and derivatives in
chart directions follow by seeding dual numbers through the embedding.  A
map's jet (its values and all d chart differentials) comes from one pass
with every chart direction seeded at once.
"""

from __future__ import annotations

import numpy as np

from . import dual
from .defaults import FD_STEP
from .domains import NodeBlock, chart_columns
from .forms import _block_product


def pack_matrix(rows, shape, ndirs=0):
    """Nested-list matrix of Dual/array entries -> (values, derivatives).

    Each entry is broadcast into the block shape and the block flattened
    once, to npts nodes in C order.  values has the forms' block layout,
    (n, n, npts), and derivatives (ndirs, n, n, npts), one block per seeded
    direction, so the N x N block kernels take both as they are.
    """
    n, npts = len(rows), int(np.prod(shape))
    vals = np.empty((n, n) + shape, dtype=complex)
    eps = np.zeros((ndirs, n, n) + shape, dtype=complex)
    for i, row in enumerate(rows):
        for j, e in enumerate(row):
            if isinstance(e, dual.Dual):
                vals[i, j] = e.val
                eps[:, i, j] = e.eps
            else:
                vals[i, j] = e
    return vals.reshape(n, n, npts), eps.reshape(ndirs, n, n, npts)


class SmoothMatrixMap:
    """Base contract: pointwise values plus chart-direction derivatives.

    pts is a domains.NodeBlock or an (npts, dim) point array; results are
    (N, N, npts) blocks, the forms' layout, flat over its nodes in C order.
    """

    size: int

    def evaluate(self, domain, pts) -> np.ndarray:
        raise NotImplementedError

    def differential(self, domain, pts, direction: int) -> np.ndarray:
        raise NotImplementedError

    def jet(self, domain, pts):
        """(values, differentials): g at pts, an (N, N, npts) block, and its
        chart derivatives stacked as (dim, N, N, npts), row i along direction i.
        Blocks turn point axis first only for LAPACK, in
        chern._checked_inverse from N = 4.

        This default evaluates each direction on its own; maps with a
        one-pass derivative override it.
        """
        return self.evaluate(domain, pts), np.stack(
            [self.differential(domain, pts, i) for i in range(domain.dim)])


class DualMatrixMap(SmoothMatrixMap):
    """Map given entrywise as dual-safe functions of ambient coordinates."""

    def __init__(self, fn_entries, size):
        self.fn_entries = fn_entries
        self.size = size

    def evaluate(self, domain, pts):
        cols, shape = chart_columns(pts)
        return pack_matrix(self.fn_entries(domain.embed_cols(cols)), shape)[0]

    def differential(self, domain, pts, direction):
        return self.jet(domain, pts)[1][direction]

    def jet(self, domain, pts):
        cols, shape = chart_columns(pts)
        return pack_matrix(self.fn_entries(domain.embed_dual_cols(cols)), shape, domain.dim)


class NumericMatrixMap(SmoothMatrixMap):
    """Map given only by eval_fn -> (N, N, npts); derivatives via Richardson differences."""

    def __init__(self, eval_fn, size):
        self.eval_fn = eval_fn
        self.size = size

    @staticmethod
    def _points(pts):
        return pts.points() if isinstance(pts, NodeBlock) else np.asarray(pts, float)

    def evaluate(self, domain, pts):
        return self.eval_fn(domain, self._points(pts))

    def differential(self, domain, pts, direction):
        h, unit = FD_STEP, np.eye(domain.dim)[direction]
        fm2, fm1, fp1, fp2 = (self.eval_fn(domain, self._points(pts) + c * h * unit)
                              for c in (-2.0, -1.0, 1.0, 2.0))
        return (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * h)


class ProductMatrixMap(SmoothMatrixMap):
    """Pointwise matrix product a(x) b(x) with product-rule derivatives."""

    def __init__(self, a: SmoothMatrixMap, b: SmoothMatrixMap):
        if a.size != b.size:
            raise ValueError("factor matrix sizes must match")
        self.a, self.b = a, b
        self.size = a.size

    def evaluate(self, domain, pts):
        return _block_product(self.a.evaluate(domain, pts), self.b.evaluate(domain, pts))

    def differential(self, domain, pts, direction):
        return self.jet(domain, pts)[1][direction]

    def jet(self, domain, pts):
        va, da = self.a.jet(domain, pts)
        vb, db = self.b.jet(domain, pts)
        ds = np.empty_like(da)
        for dai, dbi, out in zip(da, db, ds):
            _block_product(dai, vb, out)
            _block_product(va, dbi, out, +1)
        return _block_product(va, vb), ds


class ScaledMatrixMap(SmoothMatrixMap):
    def __init__(self, c, inner: SmoothMatrixMap):
        self.c, self.inner = c, inner
        self.size = inner.size

    def evaluate(self, domain, pts):
        return self.c * self.inner.evaluate(domain, pts)

    def differential(self, domain, pts, direction):
        return self.jet(domain, pts)[1][direction]

    def jet(self, domain, pts):
        vals, ds = self.inner.jet(domain, pts)
        return self.c * vals, self.c * ds


def constant_map(mat) -> DualMatrixMap:
    mat = np.asarray(mat, dtype=complex)

    def fn(cols):
        ones = np.ones_like(dual.value(cols[0]))
        return [[mat[i, j] * ones for j in range(mat.shape[1])]
                for i in range(mat.shape[0])]

    return DualMatrixMap(fn, mat.shape[0])


def _embed_block(block_rows, size, ones):
    """Place a small matrix block in the top-left of an identity of `size`."""
    k = len(block_rows)
    rows = []
    for i in range(size):
        row = []
        for j in range(size):
            if i < k and j < k:
                row.append(block_rows[i][j])
            else:
                row.append((1.0 if i == j else 0.0) * ones)
        rows.append(row)
    return rows


def circle_winding(m: int, size: int = 1) -> DualMatrixMap:
    """z -> diag(z**m, 1, ..., 1) on S^1 (ambient coordinates (x, y))."""

    def fn(cols):
        x, y = cols[0], cols[1]
        ones = np.ones_like(dual.value(x))
        z = x + 1j * y
        zm = z ** m if m != 0 else 1.0 * ones
        return _embed_block([[zm]], size, ones)

    return DualMatrixMap(fn, size)


def su2_identity(size: int = 2) -> DualMatrixMap:
    """The degree-one S^3 -> SU(2) representative, embedded in U(size).

    Ambient coordinates (x1, x2, x3, x4) of S^3 are read as the pair of
    complex numbers (a, b) = (x1 + i x2, x3 - i x4); the orientation of this
    identification is pinned so the normalized top integral of the odd Chern
    form equals -1 (see the degree module's tests).
    """
    if size < 2:
        raise ValueError("su2 generator needs matrix size >= 2")

    def fn(cols):
        x1, x2, x3, x4 = cols[0], cols[1], cols[2], cols[3]
        ones = np.ones_like(dual.value(x1))
        a = x1 + 1j * x2
        b = x3 - 1j * x4
        block = [[a, -dual.conj(b)], [b, dual.conj(a)]]
        return _embed_block(block, size, ones)

    return DualMatrixMap(fn, size)


def stabilize(inner: DualMatrixMap, extra: int) -> DualMatrixMap:
    """Embed g as diag(g, Id_extra)."""

    def fn(cols):
        rows = inner.fn_entries(cols)
        ones = np.ones_like(dual.value(cols[0]))
        return _embed_block(rows, inner.size + extra, ones)

    return DualMatrixMap(fn, inner.size + extra)


class HomotopyFamily:
    """Family (t, point) -> invertible matrix, differentiable in t.

    fn_entries(t, ambient_cols) must be dual-safe in both t and the columns.
    """

    def __init__(self, fn_entries, size):
        self.fn_entries = fn_entries
        self.size = size

    def slice_at(self, t: float) -> DualMatrixMap:
        return DualMatrixMap(lambda cols: self.fn_entries(t, cols), self.size)

    def t_derivative(self, domain, pts, t: float) -> np.ndarray:
        """d/dt of the family's values at pts, an (N, N, npts) block: the
        chart columns are embedded as plain arrays and only t is seeded."""
        cols, shape = chart_columns(pts)
        amb = domain.embed_cols(cols)
        td, = dual.seed_all([np.full(shape, float(t))])
        _, eps = pack_matrix(self.fn_entries(td, amb), shape, 1)
        return eps[0]


class ChartMap:
    """Smooth map between charted domains, given on ambient coordinates."""

    def __init__(self, source, target, ambient_fn):
        self.source = source
        self.target = target
        self.ambient_fn = ambient_fn

    def evaluate_ambient(self, pts) -> np.ndarray:
        """The map's ambient values at pts, one (npts, k) array of a plain pass."""
        cols, shape = chart_columns(pts)
        out = self.ambient_fn(self.source.embed_cols(cols))
        return np.stack([np.broadcast_to(c, shape) for c in out], axis=-1).reshape(-1, len(out))

    def ambient_jacobian_columns(self, pts):
        """The map's jet at pts in one pass, as dual.jet_rows: per ambient
        column its value, then its derivatives along every source chart
        direction, each in the broadcast shape it has on pts's columns."""
        cols, _ = chart_columns(pts)
        return dual.jet_rows(self.ambient_fn(self.source.embed_dual_cols(cols)), self.source.dim)

    def jacobian_chart(self, pts) -> np.ndarray:
        """d(target chart)/d(source chart) at an (npts, dim) point array,
        shape (npts, dim_t, dim_s)."""
        cols, _ = chart_columns(pts)
        angles = self.target.angles_from_ambient_cols(
            self.ambient_fn(self.source.embed_dual_cols(cols)))
        return np.array(dual.jet_rows(angles, self.source.dim))[:, 1:].transpose(2, 0, 1)


def identity_chart_map(domain) -> ChartMap:
    return ChartMap(domain, domain, lambda cols: cols)


def antipodal_map(domain) -> ChartMap:
    return ChartMap(domain, domain, lambda cols: [-c for c in cols])


def circle_power_map(domain, m: int) -> ChartMap:
    """z -> z**m on S^1 in ambient coordinates."""

    def fn(cols):
        x, y = cols[0], cols[1]
        z = x + 1j * y
        zm = z ** m
        return [dual.real(zm), dual.imag(zm)]

    return ChartMap(domain, domain, fn)


def projection_second_factor(product_domain, factor_domain) -> ChartMap:
    """pr_2: S^p x S^q -> S^q, dropping the first factor's ambient block."""
    (_, amb1), (_, amb2) = product_domain.factor_slices()

    def fn(cols):
        return cols[amb2.start:amb2.stop]

    return ChartMap(product_domain, factor_domain, fn)


def compose_map_with_matrix(chart_map: ChartMap, g: DualMatrixMap) -> DualMatrixMap:
    """Pull a matrix map on the target back through a chart map (g o phi)."""
    return DualMatrixMap(lambda cols: g.fn_entries(chart_map.ambient_fn(cols)), g.size)
