"""Charted spheres and two-factor products with Gauss-Legendre quadrature.

A sphere S^m is parametrized by hyperspherical angles
theta_1..theta_{m-1} in (0, pi) and theta_m in (0, 2*pi); the Gauss nodes are
interior, so no node ever touches the coordinate-singular poles.  A product
domain concatenates the factor charts (first factor's angles first) and
carries the product orientation.

Every grid is a tensor product of per-axis rules, and node_blocks sweeps it
in NodeBlocks: tensor sub-grids that keep one node array per axis.  A
block's columns are shaped to broadcast against each other, so a map
evaluated on them computes each intermediate only on the axes it depends on
(a collapse map's radial profile on theta_1 x theta_(p+1), say), and the
block is expanded to its full node count only where a result is packed.
An (npts, dim) point array is the special case of a block whose columns
all have shape (npts,); chart_columns reads either.
"""

from __future__ import annotations

from functools import lru_cache
from math import gamma, pi

import numpy as np

from . import dual
from .defaults import BALL_NODES, NODES_PER_ANGLE


class NodeBlock:
    """A tensor sub-grid of a domain's grid: per axis, a set of grid indices.

    Attributes:
      shape: nodes per axis of the block.
      cols: one chart coordinate column per axis, axis i of shape
        (1, ..., n_i, ..., 1), so the columns broadcast against each other.
      index: per-axis grid indices of the block's nodes.
    """

    def __init__(self, axes, grid_shape, index):
        self._axes, self.grid_shape = axes, grid_shape
        self.index = index
        self.shape = tuple(len(i) for i in index)
        self.cols = [self._column(a[0][i], k) for k, (a, i) in enumerate(zip(axes, index))]

    def _column(self, values, axis):
        sh = [1] * len(self.shape)
        sh[axis] = -1
        return values.reshape(sh)

    def __len__(self):
        return int(np.prod(self.shape))

    def weights(self) -> np.ndarray:
        """Per-node quadrature weights in C order, folded axis by axis as
        ChartedSphereDomain.weights folds them, so they are bit-identical."""
        w = np.ones(self.shape)
        for k, ((_, wi), i) in enumerate(zip(self._axes, self.index)):
            w = w * self._column(wi[i], k)
        return w.reshape(-1)

    def points(self) -> np.ndarray:
        """The block's nodes as an (npts, dim) array, for callers that shift points."""
        out = np.empty(self.shape + (len(self.shape),))
        for k, c in enumerate(self.cols):
            out[..., k] = c
        return out.reshape(-1, len(self.shape))

    def flat_index(self) -> np.ndarray:
        """Each node's C-order index on the whole grid."""
        strides = np.cumprod((self.grid_shape[1:] + (1,))[::-1])[::-1]
        flat = sum(self._column(i * s, k) for k, (i, s) in enumerate(zip(self.index, strides)))
        return np.broadcast_to(flat, self.shape).reshape(-1)


def chart_columns(pts):
    """(columns, shape) of a NodeBlock, or of an (npts, dim) point array,
    which is a block whose columns all have shape (npts,)."""
    if isinstance(pts, NodeBlock):
        return pts.cols, pts.shape
    pts = np.asarray(pts, dtype=float)
    return list(pts.T), (len(pts),)


def sphere_volume(m: int) -> float:
    """Riemannian volume of the unit round S^m (2*pi, 4*pi, 2*pi**2, ...)."""
    return 2.0 * pi ** ((m + 1) / 2.0) / gamma((m + 1) / 2.0)


@lru_cache(maxsize=64)
def gauss_legendre(n: int):
    """The n-node Gauss-Legendre rule (x, w) on [-1, 1], computed once per n.

    Both arrays are read-only, because every caller shares them.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _gauss_axis(n: int, a: float, b: float):
    x, w = gauss_legendre(n)
    return 0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w


def embed_sphere(cols, m: int):
    """Hyperspherical angles -> ambient unit vector in R^(m+1), dual-safe."""
    out = []
    prefix = 1.0
    for j in range(m):
        out.append(prefix * dual.cos(cols[j]))
        prefix = prefix * dual.sin(cols[j])
    out.append(prefix)
    return out


def sphere_angles_from_ambient(cols, m: int):
    """Invert the hyperspherical chart; dual-safe away from the poles."""
    angles = []
    for j in range(m - 1):
        tail = None
        for i in range(j + 1, m + 1):
            sq = cols[i] * cols[i]
            tail = sq if tail is None else tail + sq
        angles.append(dual.arctan2(dual.sqrt(tail), cols[j]))
    angles.append(dual.arctan2(cols[m], cols[m - 1]))
    return angles


def _sphere_sqrtg(cols, m: int):
    """Volume density of the round metric in hyperspherical angles."""
    g = 1.0
    for j in range(m - 1):
        g = g * dual.sin(cols[j]) ** (m - 1 - j)
    return g if m > 1 else np.ones_like(dual.value(cols[0]))


class ChartedSphereDomain:
    """Quadrature-gridded S^m or S^p x S^q with a single global chart.

    Attributes:
      dim: chart dimension (m, or p + q).
      ambient_dim: length of ambient coordinate vectors.
      axes: per-angle (nodes, weights) pairs.
      orientation_sign: +1; the chart coordinate order is the positive
        orientation, so the round volume form integrates to +Vol.
      ambient_det_sign: +-1 with det[y, dy/dtheta_1, ...] = sign * sqrt(g);
        used by the ambient-determinant route to volume-form pullbacks.
      exterior: None; the grid covers the whole chart (compare BallChart).
    """

    exterior = None

    def __init__(self, spheres, nodes_per_angle=None, scale=1.0):
        """spheres: list of factor dimensions, e.g. [2] for S^2, [2, 1] for S^2 x S^1."""
        if len(spheres) not in (1, 2):
            raise ValueError("only spheres and two-factor products are supported")
        self.spheres = tuple(int(m) for m in spheres)
        if any(m < 1 for m in self.spheres):
            raise ValueError("factor dimension must be >= 1")
        self.nodes_per_angle = dict(nodes_per_angle or NODES_PER_ANGLE)
        self.scale = float(scale)
        self.dim = sum(self.spheres)
        self.ambient_dim = sum(m + 1 for m in self.spheres)

        self.axes = []
        for m in self.spheres:
            n = max(2, int(round(self.nodes_per_angle.get(m, 32) * scale)))
            for j in range(m):
                hi = pi if j < m - 1 else 2.0 * pi
                self.axes.append(_gauss_axis(n, 0.0, hi))
        self.shape = tuple(len(a[0]) for a in self.axes)
        self.n_nodes = int(np.prod(self.shape))
        self._weights_cache = None
        self.orientation_sign = 1
        self.ambient_det_sign = self._calibrate_det_sign()

    # -- construction helpers -------------------------------------------------

    @classmethod
    def sphere(cls, m, **kw):
        return cls([m], **kw)

    @classmethod
    def product(cls, p, q, **kw):
        return cls([p, q], **kw)

    def at_scale(self, scale: float) -> "ChartedSphereDomain":
        return ChartedSphereDomain(self.spheres, self.nodes_per_angle, scale=scale)

    @property
    def is_product(self) -> bool:
        return len(self.spheres) == 2

    def factor_slices(self):
        """(chart-coordinate slice, ambient-coordinate slice) per factor."""
        out, c0, a0 = [], 0, 0
        for m in self.spheres:
            out.append((slice(c0, c0 + m), slice(a0, a0 + m + 1)))
            c0 += m
            a0 += m + 1
        return out

    # -- chart maps -------------------------------------------------------------

    def embed_cols(self, cols):
        """Chart coordinate columns -> ambient coordinate columns (dual-safe)."""
        out, c0 = [], 0
        for m in self.spheres:
            out.extend(embed_sphere(cols[c0:c0 + m], m))
            c0 += m
        return out

    def embed(self, pts: np.ndarray) -> np.ndarray:
        cols = [pts[:, i] for i in range(self.dim)]
        return np.stack([np.asarray(c, dtype=float) for c in self.embed_cols(cols)], axis=1)

    def angles_from_ambient_cols(self, cols):
        out, a0 = [], 0
        for m in self.spheres:
            out.extend(sphere_angles_from_ambient(cols[a0:a0 + m + 1], m))
            a0 += m + 1
        return out

    def sqrtg_cols(self, cols):
        g, c0 = 1.0, 0
        for m in self.spheres:
            g = g * _sphere_sqrtg(cols[c0:c0 + m], m)
            c0 += m
        return g

    def sqrtg(self, pts: np.ndarray) -> np.ndarray:
        cols = [pts[:, i] for i in range(self.dim)]
        return np.asarray(self.sqrtg_cols(cols), dtype=float) * np.ones(len(pts))

    def embed_dual_cols(self, cols):
        """Ambient columns with every chart coordinate column seeded at once.

        Each dual column's eps has a leading direction axis of length dim:
        row i is the derivative along chart coordinate i.
        """
        return self.embed_cols(dual.seed_all(cols))

    # -- quadrature ---------------------------------------------------------------

    def nodes_at(self, flat) -> np.ndarray:
        """Grid nodes at flat (C-order) indices, without building the grid."""
        idx = np.unravel_index(flat, self.shape)
        return np.stack([a[0][i] for a, i in zip(self.axes, idx)], axis=1)

    def nodes(self) -> np.ndarray:
        return self.nodes_at(np.arange(self.n_nodes))

    def sample_stride(self, n_sample: int) -> int:
        return max(1, self.n_nodes // n_sample)

    def sample_nodes(self, n_sample: int) -> np.ndarray:
        """About n_sample evenly strided grid nodes: nodes()[::sample_stride(n_sample)]."""
        return self.nodes_at(np.arange(0, self.n_nodes, self.sample_stride(n_sample)))

    def weights(self) -> np.ndarray:
        if self._weights_cache is None:
            w = np.ones(self.shape)
            for i, (_, wi) in enumerate(self.axes):
                sh = [1] * self.dim
                sh[i] = -1
                w = w * wi.reshape(sh)
            self._weights_cache = w.reshape(-1)
        return self._weights_cache

    def node_blocks(self, chunk: int):
        """Yield the grid as NodeBlocks of at most chunk nodes, in C order.

        Axis k is the first whose trailing axes hold at most chunk nodes;
        each block fixes the indices before k, takes a slab of axis k whose
        nodes times that trailing product stay within chunk, and the trailing
        axes whole.
        """
        k = 0
        while int(np.prod(self.shape[k + 1:])) > chunk:
            k += 1
        slab = max(1, chunk // int(np.prod(self.shape[k + 1:])))
        whole = [np.arange(n) for n in self.shape[k + 1:]]
        for lead in np.ndindex(*self.shape[:k]):
            for lo in range(0, self.shape[k], slab):
                index = ([np.array([i]) for i in lead]
                         + [np.arange(lo, min(lo + slab, self.shape[k]))] + whole)
                yield NodeBlock(self.axes, self.shape, index)

    def volume(self) -> float:
        return float(np.prod([sphere_volume(m) for m in self.spheres]))

    # -- orientation -----------------------------------------------------------------

    def _calibrate_det_sign(self) -> int:
        """Sign making det[y, d y/d theta_1, ...] agree with +sqrt(g).

        For a product the chart Jacobian is block diagonal over the factors, so
        the sign is the product of the factor signs.
        """
        sign = 1
        for m in self.spheres:
            probe = np.full((1, m), 0.9)  # generic interior angle point
            cols = [probe[:, i] for i in range(m)]
            amb = embed_sphere(dual.seed_all(cols), m)
            # Rows: the point y, then d y / d theta_i for each chart direction.
            det = np.linalg.det(np.array([[a.val[0] for a in amb]]
                                         + [[a.eps[i, 0] for a in amb] for i in range(m)]))
            sq = float(dual.value(_sphere_sqrtg(cols, m))[0]) if m > 1 else 1.0
            sign *= 1 if det * sq > 0 else -1
        return sign


def _inverse_stereographic(w):
    """Stereographic coordinates -> unit vector in R^(len(w)+1), dual-safe.

    Inverts sigma(x) = x[1:] / (1 - x[0]), the projection from the basepoint
    x[0] = 1 that collapse.CollapseMap reads its factors through.
    """
    s = sum(wi * wi for wi in w)
    d = 1.0 / (1.0 + s)
    return [(s - 1.0) * d] + [2.0 * wi * d for wi in w]


class BallChart:
    """The ball |w| < 2R of stereographic coordinates on S^p x S^q.

    w = (sigma_p(x), sigma_q(y)) in R^(p+q); the chart coordinates are
    (r, theta_1..theta_{p+q-1}) with w = r u and u in S^(p+q-1) in
    hyperspherical angles.  r runs over two Gauss-Legendre panels, [0, R] and
    [R, 2R], and no node lies beyond 2R, so an integrand must vanish there:
    the collapse map with radius R is constant outside the ball, and so is
    every pullback through it.  A map on the ball reads the map coordinates
    [r] + u (embed_cols), not a point of S^p x S^q, so it is written for
    this chart: collapse.CollapseMap.ball is the collapse map's.

    Attributes:
      dim: chart dimension p + q.
      is_product: True; the ball charts the product S^p x S^q.
      ball_nodes: (nodes per radial panel, nodes per angle) at scale 1, as
        in BALL_NODES.
      scale: the multiplier of ball_nodes this grid was built at.
      axes: per-coordinate (nodes, weights) pairs, the radial axis first.
      orientation_sign: +-1 relating the chart coordinate order to the
        product angle chart's orientation of S^p x S^q.
      exterior: one chart point at |w| = 4R, in the region the grid leaves
        out, where chern._sweep tests a map's value for singularity.
    """

    is_product = True

    def __init__(self, p: int, q: int, radius: float, ball_nodes=BALL_NODES, scale=1.0):
        self.p, self.q, self.radius = p, q, float(radius)
        self.ball_nodes, self.scale = tuple(ball_nodes), float(scale)
        self.dim = p + q
        n_r, n_a = (max(2, int(round(n * scale))) for n in self.ball_nodes)

        inner = _gauss_axis(n_r, 0.0, self.radius)
        outer = _gauss_axis(n_r, self.radius, 2.0 * self.radius)
        self.axes = [tuple(np.concatenate(pair) for pair in zip(inner, outer))]
        for j in range(self.dim - 1):
            hi = pi if j < self.dim - 2 else 2.0 * pi
            self.axes.append(_gauss_axis(n_a, 0.0, hi))
        self.shape = tuple(len(a[0]) for a in self.axes)
        self.n_nodes = int(np.prod(self.shape))
        self.exterior = np.full((1, self.dim), 0.9)
        self.exterior[0, 0] = 4.0 * self.radius
        self.orientation_sign = self._calibrate_orientation()

    def at_scale(self, scale: float) -> "BallChart":
        return BallChart(self.p, self.q, self.radius, self.ball_nodes, scale)

    def embed_cols(self, cols):
        """(r, angles) columns -> the map coordinates [r] + u (dual-safe).

        u is the unit vector of S^(p+q-1) at the angles, so w = r u; a map on
        the ball reads r and u (collapse.CollapseMap.ball) and computes its
        radial intermediates on the radial column alone.
        """
        return [cols[0]] + embed_sphere(cols[1:], self.dim - 1)

    # The tensor-grid quadrature is the sphere charts', over the axes above.
    nodes_at = ChartedSphereDomain.nodes_at
    sample_stride = ChartedSphereDomain.sample_stride
    sample_nodes = ChartedSphereDomain.sample_nodes
    node_blocks = ChartedSphereDomain.node_blocks
    embed_dual_cols = ChartedSphereDomain.embed_dual_cols

    def _calibrate_orientation(self) -> int:
        """Sign of det d(product angles)/d(r, angles) at a generic probe.

        The product angle chart carries orientation_sign +1, so this sign
        makes the ball chart integrate top forms with the same orientation.
        """
        probe = np.full((1, self.dim), 0.9)
        probe[0, 0] = 0.6 * self.radius
        r, *u = self.embed_dual_cols(list(probe.T))
        w = [r * ui for ui in u]
        amb = _inverse_stereographic(w[:self.p]) + _inverse_stereographic(w[self.p:])
        ang = (sphere_angles_from_ambient(amb[:self.p + 1], self.p)
               + sphere_angles_from_ambient(amb[self.p + 1:], self.q))
        det = np.linalg.det(np.array([[a.eps[i, 0] for i in range(self.dim)] for a in ang]))
        return 1 if det > 0 else -1
