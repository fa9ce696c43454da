"""Graded exterior algebra of complex-matrix-valued differential forms.

A form lives on a d-dimensional chart and is stored densely over the 2**d
subsets of chart coordinates (bitmask index).  Each coefficient is one
layout, an (N, N, npts) complex block over a batch of chart points: point
axis last, so every matrix product unrolls into elementwise vector
operations (_block_product, _trace_of_product).  Only strictly increasing
multi-indices are stored; antisymmetry is canonicalized into Koszul signs at
wedge time.  GradedMatrixForm.wedge is the one product, for every degree;
it sums each term after a component's first into that component in place.
_block_det takes pointwise determinants the same way, by cofactor expansion
on node arrays that need only broadcast against each other, so
collapse.volume_pullback_integral hands it a jet's columns as they are.
"""

from __future__ import annotations

from itertools import combinations
from math import factorial, prod

import numpy as np

# Principal branch of sqrt(2*pi*i); odd-degree normalization uses this branch.
SQRT_2PI_I = np.sqrt(2.0 * np.pi) * np.exp(1j * np.pi / 4.0)


def bit_indices(mask: int):
    """Chart coordinates present in a multi-index bitmask, ascending."""
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def shuffle_sign(mask_a: int, mask_b: int) -> int:
    """Koszul sign of sorting dx^A wedge dx^B into the increasing dx^(A|B).

    Counts transpositions: each index j of B must jump over the indices of A
    that are larger than j.  Assumes mask_a & mask_b == 0.
    """
    sign = 0
    for j in bit_indices(mask_b):
        sign += int(bin(mask_a >> (j + 1)).count("1"))
    return -1 if sign & 1 else 1


def _block_product(a, b, out=None, add=0):
    """Pointwise N x N matrix product of two (N, N, npts) block arrays.

    out, when given, is an (N, N, npts) buffer that overlaps neither factor.
    With add = 0 the product is written there; with add = +1 or -1 it is
    added to or subtracted from out one entry at a time, bit for bit as
    out += a b or out -= a b would, without a block temporary.
    """
    n = a.shape[0]
    if out is None:
        out = np.empty_like(a)
    term = np.empty_like(out[0, 0])
    row = np.empty_like(term) if add else None
    for i in range(n):
        for j in range(n):
            acc = row if add else out[i, j]
            np.multiply(a[i, 0], b[0, j], out=acc)
            for k in range(1, n):
                acc += np.multiply(a[i, k], b[k, j], out=term)
            if add > 0:
                out[i, j] += acc
            elif add < 0:
                out[i, j] -= acc
    return out


def _trace_of_product(a, b):
    """Pointwise Tr(a b) of two (N, N, npts) block arrays."""
    n = a.shape[0]
    total = None
    for i in range(n):
        entry = a[i, 0] * b[0, i]
        for k in range(1, n):
            entry += a[i, k] * b[k, i]
        total = entry if total is None else total + entry
    return total


def _block_det(rows):
    """Pointwise determinant of k x k matrices given as rows[i][j] node
    arrays, such as a (k, k, npts) block array or a view of one.

    Entries need only broadcast against each other: a row may hold arrays of
    different shapes, and scalars such as 0.0.  The result has the broadcast
    shape of them all.

    Laplace expansion from the last row up: the minors of the lower rows on
    every column subset are formed once, each from the row above them and
    the minors one row smaller, so the k x k determinant costs
    k 2^(k-1) - k products (75 at k = 5, 186 at k = 6).  The rows are first
    sorted widest first (stably, by the node count of each row's broadcast
    shape), and the result takes that permutation's sign: the many small
    minors are then built on the narrowest rows' nodes, and only the
    products of the top rows, expanded last, run on the widest."""
    k = len(rows)
    shapes = [np.broadcast_shapes(*(np.shape(e) for e in row)) for row in rows]
    order = sorted(range(k), key=lambda i: -prod(shapes[i]))
    # One shape per row, so all minors of the same rows share a shape and
    # are accumulated in place.
    rows = [[e if np.shape(e) == shapes[i] else np.broadcast_to(e, shapes[i])
             for e in rows[i]] for i in order]
    minors = {(j,): rows[k - 1][j] for j in range(k)}
    for i in range(k - 2, -1, -1):
        row, below, minors = rows[i], minors, {}
        for cols in combinations(range(k), k - i):
            acc = row[cols[0]] * below[cols[1:]]
            for pos in range(1, len(cols)):
                term = row[cols[pos]] * below[cols[:pos] + cols[pos + 1:]]
                if pos & 1:
                    acc -= term
                else:
                    acc += term
            minors[cols] = acc
    det = minors[tuple(range(k))]
    inversions = sum(a > b for i, a in enumerate(order) for b in order[i + 1:])
    return -det if inversions & 1 else det


def _diagonal_sum(a, rows):
    """Sum of the diagonal rows a[i, i], i in rows, of an (N, N, npts) block."""
    total = a[rows[0], rows[0]].copy()
    for i in rows[1:]:
        total += a[i, i]
    return total


class GradedMatrixForm:
    """Mixed-degree matrix-valued form over a batch of chart points.

    comps is a dense list of length 2**dim; entry `mask` is an
    (N, N, npts) complex array or None when the component vanishes.
    Instances are treated as immutable by all operations.
    """

    def __init__(self, dim: int, size: int, npts: int):
        if dim < 1:
            raise ValueError("chart dimension must be >= 1")
        self.dim = dim
        self.size = size
        self.npts = npts
        self.comps = [None] * (1 << dim)

    # -- constructors -------------------------------------------------------

    @classmethod
    def identity(cls, dim, size, npts):
        """Degree-0 form with identity matrix coefficient."""
        f = cls(dim, size, npts)
        f.comps[0] = np.broadcast_to(
            np.eye(size, dtype=complex)[:, :, None], (size, size, npts)
        ).copy()
        return f

    @classmethod
    def one_form(cls, blocks):
        """Degree-1 form sum_i blocks[i] dx_i from (N, N, npts) blocks."""
        n, _, npts = blocks[0].shape
        f = cls(len(blocks), n, npts)
        for i, b in enumerate(blocks):
            f.comps[1 << i] = b
        return f

    # -- linear structure ----------------------------------------------------

    def _check_compatible(self, other):
        if (self.dim, self.size, self.npts) != (other.dim, other.size, other.npts):
            raise ValueError("forms live on different charts or matrix sizes")

    def __add__(self, other):
        self._check_compatible(other)
        out = GradedMatrixForm(self.dim, self.size, self.npts)
        for m in range(1 << self.dim):
            a, b = self.comps[m], other.comps[m]
            if a is None and b is None:
                continue
            out.comps[m] = (a if a is not None else 0) + (b if b is not None else 0)
        return out

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def scale(self, c):
        out = GradedMatrixForm(self.dim, self.size, self.npts)
        for m, a in enumerate(self.comps):
            if a is not None:
                out.comps[m] = c * a
        return out

    def scale_by_degree(self, fn):
        """Scale each degree-k component by the scalar fn(k)."""
        out = GradedMatrixForm(self.dim, self.size, self.npts)
        for m, a in enumerate(self.comps):
            if a is not None:
                out.comps[m] = fn(bin(m).count("1")) * a
        return out

    # -- multiplicative structure ---------------------------------------------

    def wedge(self, other):
        """Wedge product with matrix multiplication on coefficients.

        Both factors are N x N forms on the same chart and point batch.
        Terms are summed in mask order, negative Koszul terms subtracted,
        each term after a component's first summed into it entry by entry
        (_block_product's add), so only components the wedge allocated
        itself are written.
        """
        self._check_compatible(other)
        out = GradedMatrixForm(self.dim, self.size, self.npts)
        comps = out.comps
        for ma, a in enumerate(self.comps):
            if a is None:
                continue
            for mb, b in enumerate(other.comps):
                if b is None or (ma & mb):
                    continue
                k, sign = ma | mb, shuffle_sign(ma, mb)
                if comps[k] is not None:
                    _block_product(a, b, comps[k], sign)
                    continue
                term = _block_product(a, b)
                comps[k] = np.negative(term, out=term) if sign < 0 else term
        return out

    def wedge_power(self, m: int):
        """m-fold left-folded wedge of the form with itself (m >= 1)."""
        if m < 1:
            raise ValueError("wedge_power needs m >= 1")
        acc = self
        for _ in range(m - 1):
            acc = acc.wedge(self)
        return acc

    # -- trace-like maps ------------------------------------------------------

    def trace(self):
        """Componentwise matrix trace; result is scalar-valued (N = 1)."""
        out = GradedMatrixForm(self.dim, 1, self.npts)
        rows = range(self.size)
        for m, a in enumerate(self.comps):
            if a is not None:
                out.comps[m] = _diagonal_sum(a, rows)[None, None]
        return out

    def supertrace(self, rank: int):
        """Tr over the E+ block minus Tr over the E- block.

        Coefficients must be (2*rank x 2*rank) matrices in the block order
        (E+, E-).
        """
        if self.size != 2 * rank:
            raise ValueError("supertrace needs 2*rank coefficients")
        out = GradedMatrixForm(self.dim, 1, self.npts)
        plus, minus = range(rank), range(rank, 2 * rank)
        for m, a in enumerate(self.comps):
            if a is not None:
                out.comps[m] = (_diagonal_sum(a, plus) - _diagonal_sum(a, minus))[None, None]
        return out


def nilpotent_exp(w: GradedMatrixForm) -> GradedMatrixForm:
    """Exact exponential sum_m w**m / m! of a form with no 0-degree part.

    The series truncates at the chart dimension because positive-degree forms
    are nilpotent there.  Callers must factor out any degree-0 part
    analytically beforehand.
    """
    if w.comps[0] is not None and np.abs(w.comps[0]).max() > 0.0:
        raise ValueError("nilpotent_exp requires a vanishing degree-0 part")
    out = GradedMatrixForm.identity(w.dim, w.size, w.npts)
    term = None
    for m in range(1, w.dim + 1):
        term = w if term is None else term.wedge(w)
        out = out + term.scale(1.0 / factorial(m))
    return out
