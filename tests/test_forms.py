"""Graded exterior-algebra oracles: signs, wedges, exponentials, supertraces."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oddchern.forms import (GradedMatrixForm, SQRT_2PI_I,
                            _block_det, _block_product, bit_indices,
                            nilpotent_exp, shuffle_sign)
from reference import max_abs, normalize_2pi


def perm_sign_oracle(seq):
    """Permutation parity via the determinant of the permutation matrix."""
    n = len(seq)
    order = np.argsort(seq)
    mat = np.zeros((n, n))
    mat[np.arange(n), order] = 1.0
    return int(round(np.linalg.det(mat)))


def test_bit_indices_roundtrip():
    for mask in range(64):
        idx = list(bit_indices(mask))
        assert sum(1 << i for i in idx) == mask
        assert idx == sorted(idx)


def test_shuffle_sign_vs_permutation_determinant():
    # Exhaustive over all disjoint mask pairs in dimension 5.
    for a in range(32):
        for b in range(32):
            if a & b or a == 0 or b == 0:
                continue
            seq = list(bit_indices(a)) + list(bit_indices(b))
            assert shuffle_sign(a, b) == perm_sign_oracle(seq), (a, b)


def test_shuffle_sign_graded_antisymmetry():
    for a in range(32):
        for b in range(32):
            if a & b or a == 0 or b == 0:
                continue
            pa, pb = bin(a).count("1"), bin(b).count("1")
            assert shuffle_sign(a, b) * shuffle_sign(b, a) == (-1) ** (pa * pb)


def random_form(rng, dim, size, npts, masks):
    form = GradedMatrixForm(dim, size, npts)
    for m in masks:
        form.comps[m] = rng.standard_normal((size, size, npts)) \
            + 1j * rng.standard_normal((size, size, npts))
    return form


def brute_wedge(fa, fb):
    """Reference wedge: sort concatenated indices, sign from the permutation.

    Coefficients multiply by einsum, so the oracle shares no product code
    with GradedMatrixForm.
    """
    out = GradedMatrixForm(fa.dim, fa.size, fa.npts)
    for ma, A in enumerate(fa.comps):
        if A is None:
            continue
        for mb, B in enumerate(fb.comps):
            if B is None or (ma & mb):
                continue
            seq = list(bit_indices(ma)) + list(bit_indices(mb))
            term = perm_sign_oracle(seq) * np.einsum("ikn,kjn->ijn", A, B)
            if out.comps[ma | mb] is None:
                out.comps[ma | mb] = term
            else:
                out.comps[ma | mb] = out.comps[ma | mb] + term
    return out


def assert_forms_close(a, b, tol=1e-12):
    assert a.dim == b.dim
    for m in range(2 ** a.dim):
        ca, cb = a.comps[m], b.comps[m]
        if ca is None and cb is None:
            continue
        ca = 0.0 if ca is None else ca
        cb = 0.0 if cb is None else cb
        assert np.abs(ca - cb).max() < tol, f"mask {m}"


def test_wedge_against_brute_force():
    rng = np.random.default_rng(7)
    for dim in (2, 3, 4):
        fa = random_form(rng, dim, 2, 5, range(0, 2 ** dim, 1))
        fb = random_form(rng, dim, 2, 5, range(0, 2 ** dim, 2))
        assert_forms_close(fa.wedge(fb), brute_wedge(fa, fb))


def test_wedge_associative():
    rng = np.random.default_rng(8)
    a = random_form(rng, 3, 2, 4, (1, 3, 5))
    b = random_form(rng, 3, 2, 4, (2, 4))
    c = random_form(rng, 3, 2, 4, (1, 6))
    assert_forms_close(a.wedge(b).wedge(c), a.wedge(b.wedge(c)), tol=1e-10)


def test_scalar_one_forms_anticommute():
    rng = np.random.default_rng(9)
    a = random_form(rng, 3, 1, 6, (1, 2, 4))
    b = random_form(rng, 3, 1, 6, (1, 2, 4))
    assert_forms_close(a.wedge(b), b.wedge(a).scale(-1.0), tol=1e-12)


def test_nilpotent_exp_matches_series():
    rng = np.random.default_rng(11)
    w = random_form(rng, 4, 2, 3, (3, 5, 9, 6, 7))  # no degree-0 part
    for scale in (1.0, -2.5):
        expected = GradedMatrixForm.identity(4, 2, 3)
        for k in range(1, 5):
            expected = expected + w.wedge_power(k).scale(scale ** k / math.factorial(k))
        assert_forms_close(nilpotent_exp(w.scale(scale)), expected, tol=1e-10)


def test_nilpotent_exp_rejects_degree_zero():
    rng = np.random.default_rng(12)
    w = random_form(rng, 2, 2, 3, (0, 1))
    with pytest.raises(ValueError):
        nilpotent_exp(w)


def test_trace_graded_cyclic():
    rng = np.random.default_rng(13)
    for pa, ma in ((1, (1, 2)), (2, (3, 5))):
        for pb, mb in ((1, (4,)), (2, (6,))):
            a = random_form(rng, 3, 2, 4, ma)
            b = random_form(rng, 3, 2, 4, mb)
            lhs = a.wedge(b).trace()
            rhs = b.wedge(a).trace().scale((-1.0) ** (pa * pb))
            assert_forms_close(lhs, rhs, tol=1e-10)


def test_supertrace_matrix_kills_even_commutators():
    rng = np.random.default_rng(14)
    rank = 2
    # Even (block-diagonal) degree-0 forms: str([a, b]) = 0.
    def even(r):
        f = random_form(r, 1, 2 * rank, 3, (0,))
        f.comps[0][:rank, rank:] = 0.0
        f.comps[0][rank:, :rank] = 0.0
        return f

    a, b = even(rng), even(rng)
    comm = a.wedge(b) - b.wedge(a)
    assert max_abs(comm.supertrace(rank)) < 1e-12


def test_supertrace_form_is_signed_block_trace():
    rng = np.random.default_rng(15)
    rank = 2
    w = random_form(rng, 2, 2 * rank, 3, (0, 1, 2, 3))
    st = w.supertrace(rank)
    grading = np.diag([1.0, 1.0, -1.0, -1.0])
    for m in range(4):
        expected = np.einsum("ij,jin->n", grading, w.comps[m])
        assert np.abs(st.comps[m][0, 0] - expected).max() < 1e-12


def test_normalize_2pi_scales_by_half_degree():
    rng = np.random.default_rng(16)
    w = random_form(rng, 3, 1, 2, (1, 3, 7))
    out = normalize_2pi(w)
    for m in (1, 3, 7):
        d = bin(m).count("1")
        expected = w.comps[m] / SQRT_2PI_I ** d
        assert np.abs(out.comps[m] - expected).max() < 1e-12
    assert abs(SQRT_2PI_I ** 2 - 2j * np.pi) < 1e-12


def random_masks(dim):
    return st.sets(st.integers(0, 2 ** dim - 1), min_size=1)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), dim=st.integers(1, 5), n=st.sampled_from([1, 2, 3, 4]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_wedge_matches_einsum_oracle(data, dim, n, seed):
    rng = np.random.default_rng(seed)
    fa = random_form(rng, dim, n, 3, data.draw(random_masks(dim)))
    fb = random_form(rng, dim, n, 3, data.draw(random_masks(dim)))
    before = [[c if c is None else c.tobytes() for c in f.comps] for f in (fa, fb)]
    got = fa.wedge(fb)
    assert got.size == n
    # Later terms are summed in place into components the wedge allocated,
    # never into a factor's.
    assert [[c if c is None else c.tobytes() for c in f.comps] for f in (fa, fb)] == before
    # Each coefficient sums at most 2**dim products of n terms of modulus
    # about 1, which sets the scale of the rounding error.
    assert_forms_close(got, brute_wedge(fa, fb), tol=1e-13 * 2 ** dim * n)


@pytest.mark.parametrize("sizes", [(1, 2), (2, 1), (2, 3)])
def test_wedge_rejects_unequal_matrix_sizes(sizes):
    rng = np.random.default_rng(7)
    fa, fb = (random_form(rng, 2, n, 3, [1]) for n in sizes)
    with pytest.raises(ValueError):
        fa.wedge(fb)


def graded_form(rng, dim, rank, degree, odd):
    """Homogeneous form of one degree whose coefficients are even or odd.

    Even coefficients are block diagonal in (E+, E-), odd ones off-diagonal.
    """
    masks = [m for m in range(2 ** dim) if bin(m).count("1") == degree]
    form = random_form(rng, dim, 2 * rank, 3, masks)
    keep = np.kron(np.array([[0, 1], [1, 0]]) if odd else np.eye(2),
                   np.ones((rank, rank)))
    for m in masks:
        form.comps[m] = form.comps[m] * keep[:, :, None]
    return form


@settings(max_examples=60, deadline=None)
@given(dim=st.integers(1, 4), rank=st.integers(1, 3), odd=st.booleans(),
       degrees=st.tuples(st.integers(0, 4), st.integers(0, 4)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(dim=3, rank=2, odd=False, degrees=(1, 2), seed=0)  # commutator of even forms
@example(dim=3, rank=2, odd=True, degrees=(0, 0), seed=0)  # anticommutator of odd 0-forms
def test_supertrace_kills_supercommutators(dim, rank, odd, degrees, seed):
    # Tr_s(a ^ b) = (-1)^(|a||b| + p_a p_b) Tr_s(b ^ a) for form degrees |.|
    # and matrix parities p, so the supercommutator has zero supertrace.
    pa, pb = (min(p, dim) for p in degrees)
    rng = np.random.default_rng(seed)
    a = graded_form(rng, dim, rank, pa, odd)
    b = graded_form(rng, dim, rank, pb, odd)
    sign = (-1.0) ** (pa * pb + int(odd))
    supercomm = a.wedge(b) - b.wedge(a).scale(sign)
    scale = max_abs(a) * max_abs(b) * 2 * rank * 2 ** dim
    assert max_abs(supercomm.supertrace(rank)) <= 1e-13 * scale


@pytest.mark.parametrize("k", range(1, 7))
def test_block_det_matches_lapack(k):
    rng = np.random.default_rng(30 + k)
    for npts in (1, 7, 997):
        a = rng.standard_normal((k, k, npts))
        # Hadamard's bound |det| <= prod of the row norms, per node.
        bound = np.prod(np.linalg.norm(a, axis=1), axis=0)
        det = _block_det(a)
        assert det.shape == (npts,)
        assert np.all(np.abs(det - np.linalg.det(np.moveaxis(a, -1, 0))) <= 1e-13 * bound)
        # A row swap flips the sign: bitwise for the last two rows, whose
        # 2 x 2 minors negate exactly, and to rounding for any other pair.
        for i in range(k - 1):
            swapped = a.copy()
            swapped[[i, k - 1]] = swapped[[k - 1, i]]
            if i == k - 2:
                assert np.array_equal(_block_det(swapped), -det)
            else:
                assert np.all(np.abs(_block_det(swapped) + det) <= 1e-13 * bound)
        # Rank k - 1 at every node: the last row is a combination of the others.
        if k > 1:
            singular = a.copy()
            singular[k - 1] = np.einsum("i...,ij...->j...", rng.standard_normal((k - 1, npts)), a[:k - 1])
            bound = np.prod(np.linalg.norm(singular, axis=1), axis=0)
            assert np.all(np.abs(_block_det(singular)) <= 1e-14 * bound)


def test_block_det_on_ragged_rows():
    # Rows of broadcastable entries, the narrow ones first, so that sorting
    # them widest first is an odd permutation, (1, 3, 0, 2): a sign error
    # negates every node's determinant.
    n = 5
    rng = np.random.default_rng(37)
    draw = rng.standard_normal
    rows = [[draw((n, 1, 1)) for _ in range(4)],
            [draw((n, n, n)) for _ in range(4)],
            [draw((1, n, 1)), 0.0, draw((1, n, 1)), draw((1, n, 1))],
            [draw((n, n, n)), draw((n, 1, 1)), draw((n, n, n)), 0.0]]
    dense = np.array([[np.broadcast_to(e, (n, n, n)) for e in row] for row in rows])
    bound = np.prod(np.linalg.norm(dense, axis=1), axis=0)
    det = _block_det(rows)
    assert det.shape == (n, n, n)
    assert np.all(np.abs(det - np.linalg.det(np.moveaxis(dense, (0, 1), (-2, -1))))
                  <= 1e-13 * bound)


@pytest.mark.parametrize("n", range(1, 5))
def test_block_product_into_a_buffer_is_the_allocating_product(n):
    rng = np.random.default_rng(50 + n)
    a, b = (rng.standard_normal((n, n, 997)) + 1j * rng.standard_normal((n, n, 997))
            for _ in range(2))
    ref = np.einsum("ikp,kjp->ijp", a, b)
    got = _block_product(a, b)
    assert np.all(np.abs(got - ref) <= 1e-14 * n * np.abs(a).max() * np.abs(b).max())
    out = np.full_like(got, np.nan)
    assert _block_product(a, b, out) is out
    assert out.tobytes() == got.tobytes()
    # Summed into a buffer, the product is the out +/- a b of whole blocks.
    c = rng.standard_normal((n, n, 997)) + 0j
    for add in (1, -1):
        out = c.copy()
        _block_product(a, b, out, add)
        assert out.tobytes() == (c + add * got).tobytes()
