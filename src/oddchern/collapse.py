"""The smooth collapse map S^p x S^q -> S^(p+q) and mapping-degree tools.

The collapse map is built as c o (sigma_p x sigma_q): both factors are
stereographically projected away from a basepoint, the combined vector is
radially reparametrized by a monotone profile that is the identity for
|w| <= R = COLLAPSE_RADIUS and runs off to infinity as |w| -> 2R, and the
result is mapped back through the inverse stereographic projection.  Outside
|w| < 2R the map is constant at the projection pole, which collapses the
wedge of the two factor basepoints smoothly.

There its differentials are exactly 0 too, so a matrix map pulled back
through it is one constant matrix there, and every top-degree integrand
built from its jet is exactly 0.  Such an integrand is integrated on the
ball alone: CollapseMap.ball is phi on the ball chart
(domains.ChartedSphereDomain.ball) that collapse_degree and every boundary
model of a pure pullback phi* h sweep.  There phi is written in the chart's
polar coordinates w = r u, as the inverse stereographic projection of
rho(r) u, so the profile runs on the radial column alone.  The map is built
ball first, and split maps pr2* f . phi* h, which vary outside the ball,
build the product angle chart and read phi there, through _ambient.

On |w| < R, phi is the inverse stereographic projection sigma^-1 of w, which
reverses orientation (domains' module docstring), and the ball chart and the
product chart carry the same orientation.  So phi always swaps its last two
target coordinates, a reflection, and has degree +1 on every S^p x S^q.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import dual
from .defaults import COLLAPSE_LADDER, COLLAPSE_RADIUS, DEGREE_LADDER
from .domains import ChartedSphereDomain
from .forms import _block_det
from .maps import ChartMap
from .results import DegreeResult

# Division guard for the stereographic charts; points this close to a factor
# basepoint are already deep inside the constant region (|sigma|^2 >= 2e6).
_DENOM_FLOOR = 1e-6
# Clamp for the smooth-step argument; the neglected derivative there is
# of size exp(-1/0.02) ~ 2e-22.
_STEP_CLAMP = 0.02


def smooth_step(s):
    """C-infinity step: 0 for s <= 0, 1 for s >= 1, exp(-1/s)-glued between."""
    sv = dual.value(s)
    sc = dual.where((sv > _STEP_CLAMP) & (sv < 1.0 - _STEP_CLAMP),
                    s, 0.5 * np.ones_like(sv))
    e1 = dual.exp(-1.0 / sc)
    e2 = dual.exp(-1.0 / (1.0 - sc))
    mid = e1 / (e1 + e2)
    out = dual.where(sv <= _STEP_CLAMP, np.zeros_like(sv), mid)
    return dual.where(sv >= 1.0 - _STEP_CLAMP, np.ones_like(sv), out)


class CollapseMap(ChartMap):
    """Degree-one smash/collapse map, its last two target coordinates swapped
    (module docstring); its charts are built at one resolution, source on
    first use."""

    def __init__(self, p: int, q: int, resolution: float = 1.0):
        if p < 1 or q < 1:
            raise ValueError("need p, q >= 1")
        self.p, self.q, self.resolution = p, q, resolution
        # ChartMap's fields but source, a cached property.
        self.target = ChartedSphereDomain.sphere(p + q, resolution=resolution)
        self.ambient_fn = self._ambient
        self._ball = ChartMap(ChartedSphereDomain.ball(p, q, resolution),
                              self.target, self._on_ball)

    @cached_property
    def source(self) -> ChartedSphereDomain:
        """The product angle chart of S^p x S^q."""
        return ChartedSphereDomain.product(self.p, self.q, resolution=self.resolution)

    # -- map definition ------------------------------------------------------

    @staticmethod
    def _eta(r, inside):
        """The radial profile eta of rho(|w|) = |w| / eta(|w|) at |w| = r:
        1 where inside (|w| <= R), smooth_step((2R - r)/R) beyond."""
        R = COLLAPSE_RADIUS
        ones = np.ones_like(dual.value(r))
        return dual.where(inside, ones, smooth_step((2.0 * R - r) / R))

    def _ambient(self, cols):
        p, q, R = self.p, self.q, COLLAPSE_RADIUS
        if len(cols) != p + q + 2:
            raise ValueError(f"the collapse map reads the {p + q + 2} ambient columns of "
                             f"S^{p} x S^{q}, got {len(cols)}; on a ball chart use ball()")
        x1 = cols[0]          # first factor's leading ambient coordinate
        y1 = cols[p + 1]      # second factor's leading ambient coordinate
        ones = np.ones_like(dual.value(x1))

        d1 = 1.0 - x1
        d2 = 1.0 - y1
        near1, near2 = dual.value(d1) > _DENOM_FLOOR, dual.value(d2) > _DENOM_FLOOR
        d1s = dual.where(near1, d1, ones)
        d2s = dual.where(near2, d2, ones)

        # |sigma(x)|^2 = (1 + x1)/(1 - x1) on the unit sphere.
        s1 = (1.0 + x1) / d1s
        s2 = (1.0 + y1) / d2s
        r2 = s1 + s2
        # |w| >= 2R, or a factor at its basepoint: the map is constant there.
        far = ~near1 | ~near2 | (dual.value(r2) >= 4.0 * R * R)

        w = [c / d1s for c in cols[1:p + 1]] + [c / d2s for c in cols[p + 2:p + q + 2]]

        r2_safe = dual.where(dual.value(r2) >= 0.25 * R * R, r2, (R * R) * ones)
        eta = self._eta(dual.sqrt(r2_safe), dual.value(r2) <= R * R)
        denom = r2 + eta * eta

        first = (r2 - eta * eta) / denom
        rest = [2.0 * eta * wi / denom for wi in w]

        first = dual.where(far, ones, first)
        rest = [dual.where(far, np.zeros_like(ones), ri) for ri in rest]
        return self._swapped([first] + rest)

    def _on_ball(self, cols):
        """phi on the ball chart's map coordinates [r] + u, with w = r u
        (domains.ChartedSphereDomain.ball): the inverse stereographic
        projection of rho(r) u.  Every radial intermediate keeps the radial
        column's shape; only the last p + q products, by the u_i, reach the
        block's, with one product per derivative row (dual.separable_mul).
        From r >= 2R on, eta and its derivatives are exactly 0: phi is the pole."""
        r, u = cols[0], cols[1:]
        eta = self._eta(r, dual.value(r) <= COLLAPSE_RADIUS)
        r2, eta2 = r * r, eta * eta
        denom = r2 + eta2
        radial = 2.0 * eta * r / denom
        return self._swapped([(r2 - eta2) / denom] + [dual.separable_mul(radial, c) for c in u])

    @staticmethod
    def _swapped(out):
        """out with its last two coordinates swapped, which makes phi's degree +1."""
        out[-1], out[-2] = out[-2], out[-1]
        return out

    def ball(self) -> ChartMap:
        """phi on the chart of the ball |w| < 2R, outside which it is
        constant, at the map's resolution: the one map the constructor built."""
        return self._ball


def volume_pullback_integral(chart_map: ChartMap, scale=1.0) -> complex:
    """Integral of the pulled-back normalized round volume form of the target sphere.

    Evaluated through ambient determinants det[y, dy/dx_1, ...], which stays
    smooth across the target chart's poles (unlike chart-coordinate minors).
    Each block's determinants are taken by cofactor expansion on node arrays
    (forms._block_det) of the transposed matrix, the map's jet rows
    (ChartMap.ambient_jacobian_columns), whose entries keep the broadcast
    shapes of one jet pass (domains.NodeBlock): the products on the
    narrowest rows run on their nodes alone.
    """
    src = chart_map.source.at_scale(scale)
    norm = 1.0 / chart_map.target.volume()

    def dets(block):
        # The rows are unnamed, so they are freed before the next block's jet.
        det = _block_det(chart_map.ambient_jacobian_columns(block))
        return np.broadcast_to(det, block.shape).reshape(-1)

    return complex(norm * src.integrate(dets))


def mapping_degree(chart_map: ChartMap, ladder=DEGREE_LADDER) -> DegreeResult:
    """Topological degree via the normalized-volume pullback integral."""
    if chart_map.source.dim != chart_map.target.dim:
        raise ValueError("mapping degree needs equal source and target dimension")
    return DegreeResult.from_ladder(
        ladder, chart_map.source,
        lambda dom: volume_pullback_integral(chart_map, scale=dom.scale))


def collapse_degree(p: int, q: int) -> DegreeResult:
    """Mapping degree of the collapse map, on a ball chart, on COLLAPSE_LADDER.

    The map is constant outside |w| < 2R in stereographic coordinates w, so
    its pulled-back volume form is integrated over that ball alone.
    """
    return mapping_degree(CollapseMap(p, q).ball(), COLLAPSE_LADDER)
