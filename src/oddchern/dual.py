"""Minimal forward-mode differentiation for array-valued chart maps.

A Dual carries a value array and its derivatives with respect to real seed
parameters.  seed_all seeds, from_jet re-enters a jet, and every Dual has one
leading direction axis: with val of shape (npts,) and eps of shape (dim,
npts), row i of eps is the derivative along seed i, and numpy broadcasting
carries every operation below through all directions at once (vector forward
mode, one pass for the value and the whole Jacobian).  Values need not share
one shape: on a tensor node block (domains.NodeBlock) the seeded columns
have shapes (1, ..., n_i, ..., 1), and each result takes the broadcast shape
of what it depends on, its eps that shape behind the direction axis.  An
operand of + - * / or arctan2, or a branch of where, may have more axes than
a Dual's value (a matrix's index axes ahead of the node axes, say): the
Dual's eps then gets unit axes behind its direction axis, as a reshape view,
so the operand's extra axes never meet the direction axis.  Indexing a Dual
indexes its value axes.  Every operation is elementwise, so it gives bit for
bit what the same values give as flat arrays; separable_mul multiplies factors
along disjoint directions one product per row.  All the built-in geometry
(sphere embeddings, stereographic projections, collapse profiles, generator
maps) is written against the dispatching helpers below, so seeding the chart
coordinates yields exact derivatives through arbitrary compositions,
including across arctan2 branch cuts where finite differences would break.
"""

from __future__ import annotations

import numpy as np


class Dual:
    __slots__ = ("val", "eps")
    # An ndarray or numpy scalar on the left of + - * / defers to the Dual's
    # reflected method, instead of making an object array.
    __array_ufunc__ = None

    def __init__(self, val, eps):
        self.val = np.asarray(val)
        self.eps = np.asarray(eps)

    def _eps_for(self, o):
        """eps with a unit axis behind the direction axis for each value axis
        that o (a Dual, an ndarray or a scalar) has beyond self.val, as a
        reshape view."""
        extra = (o.val.ndim if isinstance(o, Dual) else getattr(o, "ndim", 0)) - self.val.ndim
        if extra <= 0:
            return self.eps
        return self.eps.reshape(self.eps.shape[:1] + (1,) * extra + self.eps.shape[1:])

    def __getitem__(self, index):
        """The value entries at index, with their derivatives."""
        if not isinstance(index, tuple):
            index = (index,)
        return Dual(self.val[index], self.eps[(slice(None),) + index])

    # arithmetic ------------------------------------------------------------

    def __add__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val + o.val, self._eps_for(o) + o._eps_for(self))
        return Dual(self.val + o, self._eps_for(o) + np.zeros_like(np.asarray(o) * 0.0))

    __radd__ = __add__

    def __neg__(self):
        return Dual(-self.val, -self.eps)

    def __sub__(self, o):
        return self + (-o if isinstance(o, Dual) else -np.asarray(o))

    def __rsub__(self, o):
        return (-self) + o

    def __mul__(self, o):
        if isinstance(o, Dual):
            return Dual(self.val * o.val, self._eps_for(o) * o.val + self.val * o._eps_for(self))
        return Dual(self.val * o, self._eps_for(o) * o)

    __rmul__ = __mul__

    # Values are divided exactly as plain arrays are, so that a dual pass
    # and a plain pass of the same code give bit-identical values.
    def __truediv__(self, o):
        if isinstance(o, Dual):
            val = self.val / o.val
            return Dual(val, (self._eps_for(o) - val * o._eps_for(self)) * (1.0 / o.val))
        return Dual(self.val / o, self._eps_for(o) / o)

    def __rtruediv__(self, o):
        val = o / self.val
        return Dual(val, -val * (1.0 / self.val) * self._eps_for(o))

    def __pow__(self, p):
        if not np.isscalar(p):
            raise TypeError("only scalar exponents are supported")
        return Dual(self.val ** p, p * self.val ** (p - 1) * self.eps)


def separable_mul(a, b):
    """a * b for a varying along direction 0 only and b along the rest: each
    derivative row is the one nonzero term of a * b's, written into the result,
    so every row equals a * b's.  A plain operand gives a * b."""
    if not (isinstance(a, Dual) and isinstance(b, Dual)):
        return a * b
    val = a.val * b.val
    eps = np.empty(a.eps.shape[:1] + val.shape, np.result_type(val, a.eps, b.eps))
    np.multiply(a._eps_for(b)[:1], b.val, out=eps[:1])
    np.multiply(a.val, b._eps_for(a)[1:], out=eps[1:])
    return Dual(val, eps)


def seed_all(cols):
    """Duals for the given columns, column i seeded along direction i.

    Every eps gets the leading direction axis: shape (len(cols),) + column
    shape, one in row i of column i and zero elsewhere.
    """
    out = []
    for i, c in enumerate(cols):
        c = np.asarray(c, dtype=float)
        eps = np.zeros((len(cols),) + c.shape)
        eps[i] = 1.0
        out.append(Dual(c, eps))
    return out


def from_jet(vals, derivs):
    """A Dual of a jet as maps return it: derivs stacks vals' derivatives on the direction axis."""
    return Dual(vals, derivs)


def jet_rows(cols, ndirs):
    """The jet of a pass as rows: per column its value, then its ndirs
    derivatives, each in its broadcast shape; a plain column's are 0.0."""
    return [[c.val, *c.eps] if isinstance(c, Dual) else [c] + [0.0] * ndirs for c in cols]


def value(x):
    return x.val if isinstance(x, Dual) else np.asarray(x)


def _lift(fn_val, fn_der):
    def apply(x):
        if isinstance(x, Dual):
            return Dual(fn_val(x.val), fn_der(x.val) * x.eps)
        return fn_val(x)

    return apply


sin = _lift(np.sin, np.cos)
cos = _lift(np.cos, lambda v: -np.sin(v))
exp = _lift(np.exp, np.exp)
sqrt = _lift(np.sqrt, lambda v: 0.5 / np.sqrt(v))


def real(x):
    if isinstance(x, Dual):
        return Dual(x.val.real, x.eps.real)
    return np.real(x)


def imag(x):
    if isinstance(x, Dual):
        return Dual(x.val.imag, x.eps.imag)
    return np.imag(x)


def conj(x):
    if isinstance(x, Dual):
        return Dual(np.conj(x.val), np.conj(x.eps))
    return np.conj(x)


def arctan2(y, x):
    """Two-argument arctangent; derivative is smooth across the branch cut."""
    if not isinstance(y, Dual) and not isinstance(x, Dual):
        return np.arctan2(y, x)
    yv, xv = value(y), value(x)
    ye = y._eps_for(x) if isinstance(y, Dual) else np.zeros_like(yv)
    xe = x._eps_for(y) if isinstance(x, Dual) else np.zeros_like(xv)
    r2 = xv * xv + yv * yv
    return Dual(np.arctan2(yv, xv), (xv * ye - yv * xe) / r2)


def where(cond, a, b):
    """Select between dual/array branches elementwise.

    Both branches must already be finite where selected; masked-out entries
    may hold arbitrary finite values but must not be NaN/Inf producing.
    """
    da, db = isinstance(a, Dual), isinstance(b, Dual)
    if not da and not db:
        return np.where(cond, a, b)
    av, bv = value(a), value(b)
    val = np.where(cond, av, bv)
    ae = a._eps_for(val) if da else np.zeros_like(np.broadcast_arrays(av, bv)[0])
    be = b._eps_for(val) if db else np.zeros_like(np.broadcast_arrays(av, bv)[0])
    return Dual(val, np.where(cond, ae, be))
