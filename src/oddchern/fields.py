"""Form fields on a charted domain: smooth maps from chart points to forms.

A FormField can be sampled at arbitrary chart points (not only quadrature
nodes), which is what the exterior derivative needs.  Samples are
GradedMatrixForms, whose (N, N, npts) components the integrals below
contract against the quadrature weights along the point axis.
"""

from __future__ import annotations

import numpy as np

from .defaults import CHUNK, FD_STEP
from .domains import ChartedSphereDomain
from .forms import GradedMatrixForm


class FormField:
    """A form-valued field given by a sampler pts -> GradedMatrixForm."""

    def __init__(self, domain: ChartedSphereDomain, size: int, sampler):
        self.domain = domain
        self.size = size
        self._sampler = sampler

    def at(self, pts: np.ndarray) -> GradedMatrixForm:
        return self._sampler(np.asarray(pts, dtype=float))


def constant_field(domain, mat) -> FormField:
    """The degree-0 field mat; the zero matrix gives a field with no components."""
    mat = np.asarray(mat, dtype=complex)

    def sampler(pts):
        f = GradedMatrixForm(domain.dim, mat.shape[0], len(pts))
        if mat.any():
            f.comps[0] = np.broadcast_to(mat[:, :, None], mat.shape + (len(pts),)).copy()
        return f

    return FormField(domain, mat.shape[0], sampler)


def volume_field(domain, normalized=False) -> FormField:
    """The round volume form (top degree, scalar coefficients)."""
    top = (1 << domain.dim) - 1
    scale = 1.0 / domain.volume() if normalized else 1.0

    def sampler(pts):
        f = GradedMatrixForm(domain.dim, 1, len(pts))
        f.comps[top] = (scale * domain.sqrtg(pts)).astype(complex)[None, None]
        return f

    return FormField(domain, 1, sampler)


def exterior_derivative(field: FormField) -> FormField:
    """Coordinate exterior derivative via Richardson-extrapolated differences.

    Uses the 5-point fourth-order stencil of step FD_STEP per chart
    direction; the input field must be smooth (evaluable at arbitrary nearby
    points).  The 4 * dim
    shifted copies of the points are stacked into one field.at call per
    slice of at most CHUNK // (4 * dim) points, so no call passes more than
    CHUNK nodes, and each difference is taken from views of that call.
    """
    dim = field.domain.dim
    # Row 4 i + k shifts chart coordinate i by the k-th stencil offset.
    offsets = np.kron(np.eye(dim), FD_STEP * np.array([[-2.0], [-1.0], [1.0], [2.0]]))[:, None]
    per_call = CHUNK // (4 * dim)

    def sampler(pts):
        n = len(pts)
        out = GradedMatrixForm(dim, field.size, n)
        for lo in range(0, n, per_call):
            part = pts[lo:lo + per_call]
            m = len(part)
            shifted = field.at((part[None] + offsets).reshape(-1, dim)).comps
            # (N, N, dim, 4, m): direction, then stencil offset, then point.
            shifted = [None if c is None else c.reshape(c.shape[:2] + (dim, 4, m))
                       for c in shifted]
            for i in range(dim):
                for mask, c in enumerate(shifted):
                    if c is None or mask & (1 << i):
                        continue
                    fm2, fm1, fp1, fp2 = (c[:, :, i, k] for k in range(4))
                    der = (8.0 * (fp1 - fm1) - (fp2 - fm2)) / (12.0 * FD_STEP)
                    # d prepends dx^i; sign counts indices of the mask below i.
                    sign = -1 if bin(mask & ((1 << i) - 1)).count("1") & 1 else 1
                    new = mask | (1 << i)
                    if out.comps[new] is None:
                        out.comps[new] = np.zeros(c.shape[:2] + (n,), dtype=complex)
                    out.comps[new][:, :, lo:lo + m] += sign * der
        return out

    return FormField(field.domain, field.size, sampler)


def integrate_top(field: FormField, domain, chunk: int = CHUNK):
    """Oriented quadrature of the top-degree component of a field over the
    domain: a complex number for a scalar field, else an (N, N) array."""
    top = integrate_all_degrees(field, domain, chunk).get((1 << domain.dim) - 1, 0j)
    return domain.orientation_sign * (complex(top[0, 0]) if np.shape(top) == (1, 1) else top)


def integrate_all_degrees(field: FormField, domain, chunk: int = CHUNK):
    """Component-wise integral of every multi-index against the quadrature weights.

    Not a geometric invariant (except for the top degree); verify's
    Chern-Simons check compares two fields with it 'in every integrated
    degree', and integrate_top reads its top component.
    """
    sums = {}
    for block in domain.node_blocks(chunk):
        f, w = field.at(block.points()), block.weights()
        for mask, c in enumerate(f.comps):
            if c is None:
                continue
            sums[mask] = sums.get(mask, 0.0) + np.einsum("ijn,n->ij", c, w)
    return sums
