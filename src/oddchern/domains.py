"""Tensor charts with Gauss-Legendre quadrature: spheres, two-factor
products, and the collapse map's ball.

Every grid is a tensor product of per-axis rules (gauss_axis).  A sphere S^m
is parametrized by hyperspherical angles theta_1..theta_{m-1} in (0, pi) and
theta_m in (0, 2*pi); the Gauss nodes are interior, so no node ever touches
the coordinate-singular poles.  A product domain concatenates the factor
charts (first factor's angles first) and carries the product orientation.
The ball chart is polar: a radius on two panels, then angles.

node_blocks sweeps a grid in NodeBlocks: tensor sub-grids that keep one node
array per axis.  A block's columns are shaped to broadcast against each
other, so a map evaluated on them computes each intermediate only on the
axes it depends on (a collapse map's radial profile on the ball's radius,
say), and the block is expanded to its full node count only where a result
needs it.  An (npts, dim) point array is the special case of a block whose
columns all have shape (npts,); chart_columns reads either.
ChartedSphereDomain.integrate is the one quadrature sum over such blocks.

Orientation is derived, not probed: every chart's coordinate order is its
positive orientation, so integrate's plain sum is the oriented integral.
The hyperspherical embedding has det[y, dy/dtheta_1, ..., dy/dtheta_m] =
+sqrt(g) on every S^m.  On the ball, the polar chart w = r u has determinant
r^(n-1) sqrt(g_u) > 0, and each factor's inverse stereographic projection
from x_0 = 1 reverses orientation (det[y, dy/dw] = -2^n at w = 0, and it
never vanishes); so (r, angles) -> product angles reverses it twice.
"""

from __future__ import annotations

import copy
from functools import lru_cache
from math import gamma, pi

import numpy as np

from . import dual
from .defaults import BALL_NODES, CHUNK, COLLAPSE_RADIUS, NODES_PER_ANGLE


class SingularMapError(ValueError):
    """A matrix map is numerically singular at a node; index names the node."""

    def __init__(self, what: str, index: int):
        super().__init__(f"{what} at sample point index {index}")
        self.what, self.index = what, index


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
        """Per-node quadrature weights in C order, folded axis by axis, so a
        block's weights are bit-identical to those of the same nodes in the
        block of every node."""
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


def gauss_axis(rule, scale=1.0):
    """The (nodes, weights) axis of a rule (n, breaks) at a resolution scale:
    max(2, round(n scale)) Gauss-Legendre nodes on each [breaks[i], breaks[i+1]]."""
    n, breaks = rule
    x, w = gauss_legendre(max(2, int(round(n * scale))))
    panels = [(0.5 * (b - a) * x + 0.5 * (a + b), 0.5 * (b - a) * w)
              for a, b in zip(breaks[:-1], breaks[1:])]
    return tuple(np.concatenate(c) for c in zip(*panels))


def _budget(n: int, resolution: float) -> int:
    """A default node count n at a chart's resolution: max(4, round(n resolution))."""
    return max(4, int(round(n * resolution)))


def _angle_rules(m: int, n: int):
    """Rules of S^m's hyperspherical angles: (0, pi), then (0, 2 pi) last."""
    return ((n, (0.0, pi)),) * (m - 1) + ((n, (0.0, 2.0 * pi)),)


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


class ChartedSphereDomain:
    """A tensor chart: one quadrature rule per chart coordinate, and an embedding.

    The constructor (or sphere, product) builds a sphere or product angle
    chart, and ball the collapse map's ball chart.  volume,
    angles_from_ambient_cols and factor_slices apply to sphere and product
    charts only.  Each chart's coordinate order is its orientation (module
    docstring).

    Attributes:
      spheres: factor dimensions, (m,) or (p, q); the ball charts S^p x S^q.
      dim: chart dimension (m, or p + q).
      rules: per-coordinate rules (n, breaks) at scale 1 (gauss_axis), each
        n a default count (NODES_PER_ANGLE, BALL_NODES) at the resolution the
        chart was built with.
      scale: the multiplier of every rule's n, 1.0 as built (at_scale sets
        another); axes are the rules at scale.
      radius: the ball's R; None on sphere charts.
      exterior: on the ball, one chart point at |w| = 4R, outside the grid,
        where chern._sweep tests a map's value for singularity; else None.
    """

    def __init__(self, spheres, resolution=1.0):
        """spheres: list of factor dimensions, e.g. [2] for S^2, [2, 1] for S^2 x S^1;
        resolution: the multiplier of every default node count (_budget)."""
        if len(spheres) not in (1, 2):
            raise ValueError("only spheres and two-factor products are supported")
        self.spheres = tuple(int(m) for m in spheres)
        if any(m not in NODES_PER_ANGLE for m in self.spheres):
            raise ValueError(f"factor dimensions must be among NODES_PER_ANGLE's "
                             f"{sorted(NODES_PER_ANGLE)}, got {list(self.spheres)}")
        self.rules = sum((_angle_rules(m, _budget(NODES_PER_ANGLE[m], resolution))
                          for m in self.spheres), ())
        self._set_scale(1.0)
        self.radius = self.exterior = None

    @classmethod
    def sphere(cls, m, **kw):
        return cls([m], **kw)

    @classmethod
    def product(cls, p, q, **kw):
        return cls([p, q], **kw)

    @classmethod
    def ball(cls, p: int, q: int, resolution=1.0):
        """The ball |w| < 2R, R = COLLAPSE_RADIUS, of stereographic coordinates
        on S^p x S^q.

        w = (sigma_p(x), sigma_q(y)) in R^(p+q); the chart coordinates are
        (r, theta_1..theta_{p+q-1}) with w = r u and u in S^(p+q-1) in
        hyperspherical angles, on BALL_NODES (nodes per radial panel, nodes
        per angle) at the resolution.  r runs over two panels, [0, R] and
        [R, 2R], and no node lies beyond 2R, so an integrand must vanish
        there: the collapse map with radius R is constant outside the ball,
        and so is every pullback through it.  A map on the ball reads the map
        coordinates [r] + u (embed_cols), as collapse.CollapseMap.ball does.
        """
        self = cls.__new__(cls)
        self.spheres, self.radius = (p, q), COLLAPSE_RADIUS
        n_r, n_angle = (_budget(n, resolution) for n in BALL_NODES)
        self.rules = (((n_r, (0.0, self.radius, 2.0 * self.radius)),)
                      + _angle_rules(p + q - 1, n_angle))
        self._set_scale(1.0)
        self.exterior = np.array([[4.0 * self.radius] + [0.9] * (self.dim - 1)])
        return self

    def _set_scale(self, scale):
        self.scale = float(scale)
        self.axes = [gauss_axis(rule, self.scale) for rule in self.rules]
        self.dim = len(self.axes)
        self.shape = tuple(len(a[0]) for a in self.axes)
        self.n_nodes = int(np.prod(self.shape))

    def at_scale(self, scale: float) -> "ChartedSphereDomain":
        """The same chart and rules at another scale."""
        out = copy.copy(self)
        out._set_scale(scale)
        return out

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
        """Chart coordinate columns -> ambient coordinate columns (dual-safe).

        On the ball these are the map coordinates [r] + u, with u the unit
        vector of S^(p+q-1) at the angles, so w = r u; a map on the ball reads
        r and u (collapse.CollapseMap.ball) and computes its radial
        intermediates on the radial column alone.
        """
        if self.radius is not None:
            return [cols[0]] + embed_sphere(cols[1:], self.dim - 1)
        out, c0 = [], 0
        for m in self.spheres:
            out.extend(embed_sphere(cols[c0:c0 + m], m))
            c0 += m
        return out

    def embed(self, pts: np.ndarray) -> np.ndarray:
        return np.stack([np.asarray(c, dtype=float) for c in self.embed_cols(list(pts.T))], axis=1)

    def angles_from_ambient_cols(self, cols):
        out, a0 = [], 0
        for m in self.spheres:
            out.extend(sphere_angles_from_ambient(cols[a0:a0 + m + 1], m))
            a0 += m + 1
        return out

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

    def integrate(self, integrand):
        """Oriented quadrature sum of integrand(block), (..., npts), over the
        grid's NodeBlocks of at most CHUNK nodes.  A SingularMapError naming
        a node of the block is re-raised naming its index on the whole grid.
        """
        total = 0.0
        for block in self.node_blocks(CHUNK):
            try:
                values = integrand(block)
            except SingularMapError as exc:
                raise SingularMapError(exc.what, int(block.flat_index()[exc.index])) from None
            total = total + np.sum(block.weights() * values, axis=-1)
        return total

    def volume(self) -> float:
        return float(np.prod([sphere_volume(m) for m in self.spheres]))
