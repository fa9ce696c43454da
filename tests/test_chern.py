"""Odd Chern character: degrees, Chern-Simons consistency, transgression."""

import tracemalloc
from math import factorial

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddchern import domains, dual
from oddchern.chern import (SingularMapError, _checked_inverse, _odd_chern_top,
                            assemble_split_map, chern_simons, deg, deg_star,
                            generator, maurer_cartan, odd_chern,
                            odd_chern_coefficient, odd_chern_top_integral,
                            transgression_form)
from oddchern.collapse import CollapseMap
from oddchern.defaults import CHUNK, COLLAPSE_RADIUS, FD_STEP, Ladder
from oddchern.domains import ChartedSphereDomain
from oddchern.fields import (constant_field, exterior_derivative, integrate_all_degrees,
                             integrate_top)
from oddchern.maps import (DualMatrixMap, HomotopyFamily, ProductMatrixMap,
                           SmoothMatrixMap, circle_winding,
                           compose_map_with_matrix, stabilize, su2_identity)
from oddchern.superconn import SuperBundleModel

COARSE = 0.5  # resolution: 32, 24 and 16 nodes per angle on S^1, S^2 and S^3


def test_odd_chern_coefficients():
    # (-1)^k k!/(2k+1)!: 1, -1/6, 1/60, ...
    assert odd_chern_coefficient(0) == pytest.approx(1.0)
    assert odd_chern_coefficient(1) == pytest.approx(-1.0 / 6.0)
    assert odd_chern_coefficient(2) == pytest.approx(1.0 / 60.0)


def test_odd_chern_has_only_odd_degrees():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    ch = odd_chern(su2_identity(), dom).at(dom.nodes()[::101])
    for mask, comp in enumerate(ch.comps):
        if comp is not None and np.abs(comp).max() > 1e-14:
            assert bin(mask).count("1") % 2 == 1


@pytest.mark.parametrize("m", range(-3, 4))
def test_winding_degree(m):
    dom = ChartedSphereDomain([1], resolution=COARSE)
    r = deg(circle_winding(m), dom)
    assert r.rounded == -m
    assert r.residual < 1e-10


def test_winding_multiplicativity():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    g = ProductMatrixMap(circle_winding(2, size=2), circle_winding(1, size=2))
    assert deg(g, dom).rounded == -3


def test_su2_degree_and_stabilization():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    base = deg(su2_identity(), dom)
    assert base.rounded == -1
    assert base.residual < 1e-6
    stab = deg(stabilize(su2_identity(), 3), dom)
    assert stab.rounded == base.rounded
    assert abs(stab.value - base.value) < 1e-9


@pytest.mark.parametrize("kind,size,m,sphere", [
    ("su2_identity", 2, 1, 3), ("su2_identity", 3, 1, 3),
    *(("circle_winding", 2, m, 1) for m in (-4, -1, 2, 4)),
])
def test_analytic_degrees_are_accepted_at_half_the_budget(kind, size, m, sphere):
    # At the default budget su2 reads 8.7e-11 and z^m is exact on the
    # ladder's first level, so the step to scale 0.5 is accepted there.
    r = deg(generator(kind, size=size, m=m), ChartedSphereDomain.sphere(sphere))
    assert r.converged and r.convergence[-1][0] == 0.5
    assert r.residual < 1e-14


def test_no_two_ladder_levels_share_a_grid():
    # S^3 at resolution 0.15 takes 5 nodes per angle: 2 at both 0.25 and 0.5.
    dom = ChartedSphereDomain.sphere(3, resolution=0.15)
    r = deg(su2_identity(), dom)
    shapes = [dom.at_scale(s).shape for s, _ in r.convergence]
    assert all(a != b for a, b in zip(shapes, shapes[1:]))
    assert r.accepted and r.rounded == -1


# -- degree properties on random inputs -----------------------------------------

@settings(max_examples=12, deadline=None)
@given(a=st.integers(-3, 3), b=st.integers(-3, 3))
def test_degree_is_additive_under_products(a, b):
    dom = ChartedSphereDomain([1], resolution=COARSE)
    r = deg(ProductMatrixMap(circle_winding(a, size=2), circle_winding(b, size=2)), dom)
    assert r.accepted and r.rounded == -(a + b)


def test_su2_squared_has_degree_minus_two():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    r = deg(ProductMatrixMap(su2_identity(), su2_identity()), dom)
    assert r.accepted and r.rounded == -2


@settings(max_examples=4, deadline=None)
@given(k=st.integers(1, 3))
def test_stabilization_keeps_the_degree(k):
    dom = ChartedSphereDomain([3], resolution=COARSE)
    base, stab = deg(su2_identity(), dom), deg(stabilize(su2_identity(), k), dom)
    assert stab.accepted and stab.rounded == base.rounded == -1
    assert abs(stab.value - base.value) < 1e-9


UNIT_DISC = st.complex_numbers(max_magnitude=0.7, allow_nan=False, allow_infinity=False,
                               allow_subnormal=False)


@settings(max_examples=12, deadline=None)
@given(m=st.integers(-3, 3), k1=st.integers(1, 2), k2=st.integers(1, 2),
       c1=UNIT_DISC, c2=UNIT_DISC, ts=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=3))
def test_degree_is_constant_along_a_homotopy(m, k1, k2, c1, c2, ts):
    # g_t = [[z^m, t c1 z^k1], [t c2 conj(z)^k2, 1]] has det z^m - t^2 c1 c2 z^k1 conj(z)^k2,
    # and |t^2 c1 c2| < 1 keeps it invertible, with the winding m of z^m.
    dom = ChartedSphereDomain([1], resolution=COARSE)

    def fn(t, cols):
        z = cols[0] + 1j * cols[1]
        zbar = dual.conj(z)
        ones = np.ones_like(dual.value(cols[0]))
        zm = z ** m if m else 1.0 * ones
        return [[zm, (t * c1) * z ** k1], [(t * c2) * zbar ** k2, 1.0 * ones]]

    family = HomotopyFamily(fn, 2)
    for t in ts:
        r = deg(family.slice_at(t), dom)
        assert r.accepted and r.rounded == -m


def test_deg_rejects_even_or_product_domains():
    with pytest.raises(ValueError):
        deg(su2_identity(), ChartedSphereDomain([2], resolution=COARSE))
    with pytest.raises(ValueError):
        deg(su2_identity(), ChartedSphereDomain([2, 1], resolution=COARSE))
    with pytest.raises(ValueError):
        deg_star(su2_identity(), ChartedSphereDomain([3], resolution=COARSE))


def test_homotopy_invariance_of_degree():
    dom = ChartedSphereDomain([1], resolution=COARSE)

    def fn(t, cols):
        x, y = cols[0], cols[1]
        z = x + 1j * y
        one = 1.0 + 0.0 * x
        return [[z * z, 0.3 * (z * t)], [0.0 * x, one]]

    fam = HomotopyFamily(fn, 2)
    r0 = deg(fam.slice_at(0.0), dom)
    r1 = deg(fam.slice_at(1.0), dom)
    assert r0.rounded == r1.rounded == -2


def test_chern_simons_reproduces_odd_chern():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    g = circle_winding(2, size=2)
    zero = constant_field(dom, np.zeros((2, 2)))
    assert integrate_all_degrees(zero, dom) == {} and integrate_top(zero, dom) == 0j
    cs = chern_simons(zero, maurer_cartan(g, dom), dom)
    gap = abs(integrate_top(cs, dom) - integrate_top(odd_chern(g, dom), dom))
    assert gap < 1e-10


def test_transgression_identity_single_family():
    dom = ChartedSphereDomain([1], resolution=COARSE)

    def fn(t, cols):
        x, y = cols[0], cols[1]
        one = 1.0 + 0.0 * x
        return [[one + 0.2 * x + (0.1 * y) * t, 0.1 * (x * t)],
                [0.0 * x, one + 0.15 * y]]

    fam = HomotopyFamily(fn, 2)
    t, h = 0.4, 1e-3
    pts = dom.nodes()[::2]
    ch_p = odd_chern(fam.slice_at(t + h), dom).at(pts)
    ch_m = odd_chern(fam.slice_at(t - h), dom).at(pts)
    fd = (ch_p.comps[1] - ch_m.comps[1]) / (2 * h)
    tilde = transgression_form(fam, dom, t)
    dt = exterior_derivative(tilde).at(pts).comps[1]
    rel = np.abs(fd - dt).max() / np.abs(fd).max()
    assert rel < 1e-5


def test_split_map_degree_equals_deg_h():
    phi = CollapseMap(2, 1, resolution=COARSE)
    g = assemble_split_map(circle_winding(2), su2_identity(), phi)
    r = deg_star(g, phi.source)
    oracle = deg(su2_identity(), ChartedSphereDomain([3], resolution=COARSE))
    assert r.rounded == oracle.rounded == -1


def test_generator_dispatch():
    assert generator("circle_winding", size=3, m=2).size == 3
    assert generator("su2_identity").size == 2
    assert generator("constant", size=2).size == 2
    with pytest.raises(ValueError):
        generator("unknown-kind")


def test_maurer_cartan_rejects_singular_maps():
    dom = ChartedSphereDomain([1], resolution=COARSE)

    def fn(cols):
        x, y = cols[0], cols[1]
        return [[0.0 * x + 0.0j * y]]  # identically singular

    with pytest.raises(ValueError):
        maurer_cartan(DualMatrixMap(fn, 1), dom).at(dom.nodes())


def test_deg_names_the_singular_node():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    node = 5
    x0, y0 = np.cos(dom.nodes()[node, 0]), np.sin(dom.nodes()[node, 0])

    def fn(cols):
        x, y = cols[0], cols[1]
        return [[(x - x0) + 1j * (y - y0)]]  # vanishes at one grid node

    with pytest.raises(ValueError, match=f"singular at sample point index {node}$"):
        deg(DualMatrixMap(fn, 1), dom, Ladder((1.0,), 1e-6))


@pytest.mark.parametrize("sphere, resolution, node, shift, sweep", [
    (3, 0.75, CHUNK + 808, 0.0, lambda g, dom: deg(g, dom, Ladder((1.0,), 1e-6))),
    (3, 0.75, CHUNK + 808, 0.0, lambda g, dom: SuperBundleModel(dom, g).gamma_top()),
    (3, 0.75, CHUNK + 808, 0.0,
     lambda g, dom: SuperBundleModel(dom, stabilize(g, 1)).gamma_top()),
    (3, 0.75, CHUNK + 808, 0.0, lambda g, dom: integrate_top(odd_chern(g, dom), dom)),
    (1, 1.0, 40, FD_STEP,
     lambda g, dom: integrate_all_degrees(exterior_derivative(maurer_cartan(g, dom)), dom)),
], ids=["deg", "model-sweep", "polar-2x2", "form-field", "stencil"])
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_singular_node_is_named_by_its_grid_index(sphere, resolution, node, shift, sweep):
    # On S^3, 24^3 = 13,824 nodes: the node lies in the second node block,
    # so a block-local index would name another node.  On S^1 g is singular
    # only at the point FD_STEP past the node, which the exterior
    # derivative's stencil samples and the grid does not.  diag(g, 1) meets
    # the node through the 2 x 2 polar part's singular-value floor, which is
    # read before any square root, so no RuntimeWarning is raised.
    dom = ChartedSphereDomain([sphere], resolution=resolution)
    centre = dom.embed(dom.nodes()[node:node + 1] + shift)[0]

    def fn(cols):
        return [[sum((x - c) * (x - c) for x, c in zip(cols, centre)) + 0j]]

    with pytest.raises(SingularMapError, match=f"singular at sample point index {node}$") as err:
        sweep(DualMatrixMap(fn, 1), dom)
    assert err.value.index == node


def test_closed_form_3x3_inverse_names_the_singular_node():
    # det g = |x - centre|^2 by expansion along the first row, so the 3 x 3
    # closed form meets a singular block only at the node in the second
    # CHUNK-node block.
    dom = ChartedSphereDomain([3], resolution=0.75)
    node = CHUNK + 808
    centre = dom.embed(dom.nodes()[node:node + 1])[0]

    def fn(cols):
        r2 = sum((x - c) * (x - c) for x, c in zip(cols, centre)) + 0j
        return [[r2 - 1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]]

    with pytest.raises(SingularMapError, match=f"singular at sample point index {node}$") as err:
        deg(DualMatrixMap(fn, 3), dom, Ladder((1.0,), 1e-6))
    assert err.value.index == node


def singular_at_the_pole(cols):
    # h = (1 - x1) Id is singular only at the pole, the collapse map's value
    # wherever it is constant.
    ones = np.ones_like(dual.value(cols[0]))
    return [[1.0 - cols[0], 0.0 * ones], [0.0 * ones, 1.0 - cols[0]]]


def test_singular_value_outside_the_support_is_named():
    # On the angle chart the sweep meets h(pole) at the first node with
    # |w| >= 2R, and names it.
    phi = CollapseMap(2, 1, resolution=COARSE)
    dom = phi.source
    g = compose_map_with_matrix(phi, DualMatrixMap(singular_at_the_pole, 2))
    node = int(np.flatnonzero(phi.local_radius(dom.nodes()) >= 2.0 * COLLAPSE_RADIUS)[0])
    with pytest.raises(SingularMapError, match=f"singular at sample point index {node}$"):
        odd_chern_top_integral(g, dom)


@pytest.mark.parametrize("scale", [1.0, 2.0])
def test_singular_value_outside_the_ball_is_caught(scale):
    # The ball chart has no node with |w| >= 2R, so on the budget that
    # --resolution-scale 0.2 gives, the sweep tests g at the ball's exterior
    # point, before any node, and names index n_nodes, one past the grid.
    ball = CollapseMap(2, 1, resolution=0.2).ball()
    dom = ball.source.at_scale(scale)
    g = compose_map_with_matrix(ball, DualMatrixMap(singular_at_the_pole, 2))
    with pytest.raises(SingularMapError, match=f"singular at sample point index {dom.n_nodes}$"):
        odd_chern_top_integral(g, dom)


def test_singular_kept_node_is_named_by_its_grid_index():
    # A node of the second block with |w| < R, preceded there by nodes where
    # the collapse map is constant: its index in the block differs from its
    # grid index, which the error must name.
    phi = CollapseMap(2, 1, resolution=COARSE)
    dom = phi.source
    r = phi.local_radius(dom.nodes())
    block = np.arange(CHUNK, 2 * CHUNK)
    first_constant = block[r[block] >= 2.0 * COLLAPSE_RADIUS][0]
    node = int(block[(block > first_constant) & (r[block] < COLLAPSE_RADIUS)][0])
    centre = phi.evaluate_ambient(dom.nodes()[node:node + 1])[0]

    def fn(cols):
        return [[sum((x - c) * (x - c) for x, c in zip(cols, centre)) + 0j]]

    g = compose_map_with_matrix(phi, DualMatrixMap(fn, 1))
    with pytest.raises(SingularMapError, match=f"singular at sample point index {node}$"):
        odd_chern_top_integral(g, dom)


def test_transgression_tilde_rejects_singular_maps():
    dom = ChartedSphereDomain([1], resolution=COARSE)

    def fn(t, cols):
        return [[t * (1.0 + 0.0 * cols[0])]]  # identically 0 at t = 0

    tilde = transgression_form(HomotopyFamily(fn, 1), dom, 0.0)
    with pytest.raises(SingularMapError):
        tilde.at(dom.nodes())


# -- the N x N top-degree kernel against the dense odd_chern sampler -------------

class SampledMap(SmoothMatrixMap):
    """Fixed (N, N, npts) values and differentials, returned for any batch of
    npts points."""

    def __init__(self, vals, dgs):
        self.vals, self.dgs, self.size = vals, dgs, vals.shape[0]

    def evaluate(self, domain, pts):
        return self.vals

    def differential(self, domain, pts, direction):
        return self.dgs[direction]


def assert_top_matches_dense(g, dom, pts):
    got = _odd_chern_top(*g.jet(dom, pts))
    ref = odd_chern(g, dom).at(pts).comps[(1 << dom.dim) - 1][0, 0]
    # |w| <= N max|g^-1| max|dg| entrywise, and c_k N^(d+1) d! |w|^d bounds
    # the sum of the absolute values of the terms of c_k Tr(w^d), so it sets
    # the scale of the rounding error.
    vals, dgs = g.jet(dom, pts)
    n, d = vals.shape[0], dom.dim
    w_max = n * np.abs(np.linalg.inv(np.moveaxis(vals, -1, 0))).max() * max(
        np.abs(dg).max() for dg in dgs)
    bound = abs(odd_chern_coefficient((d - 1) // 2)) * n ** (d + 1) * factorial(d) * w_max ** d
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= 1e-12 * bound + 1e-300


ENTRIES = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                             allow_infinity=False, allow_subnormal=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]), d=st.sampled_from([1, 3, 5]))
def test_top_kernel_matches_dense_odd_chern(data, n, d):
    shape = (n, n, 4)
    # Entries of modulus <= 1 plus 4 Id: diagonally dominant, so invertible.
    vals = data.draw(hnp.arrays(complex, shape, elements=ENTRIES)) + 4.0 * np.eye(n)[:, :, None]
    dgs = [data.draw(hnp.arrays(complex, shape, elements=ENTRIES)) for _ in range(d)]
    dom = ChartedSphereDomain([d])  # only its dimension is read
    assert_top_matches_dense(SampledMap(vals, dgs), dom, np.zeros((4, d)))


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.sampled_from([1, 2, 3]),
       kind=st.sampled_from(["general", "unitary"]), c=st.sampled_from([1.0, 0.1, 10.0]))
def test_block_inverse_matches_lapack(data, n, kind, c):
    # Entries of modulus <= 1 plus 4 Id: diagonally dominant, so well
    # conditioned; its QR factor is a random unitary.
    a = data.draw(hnp.arrays(complex, (5, n, n), elements=ENTRIES)) + 4.0 * np.eye(n)
    vals = c * (np.linalg.qr(a)[0] if kind == "unitary" else a)
    # The block inverse takes (N, N, npts) blocks, LAPACK (npts, N, N) batches.
    got = _checked_inverse(np.moveaxis(vals, 0, -1))
    ref = np.moveaxis(np.linalg.inv(vals), 0, -1)
    err = np.linalg.norm(got - ref, axis=(0, 1)) / np.linalg.norm(ref, axis=(0, 1))
    assert np.all(err <= 1e-13 * np.linalg.cond(vals))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_block_inverse_names_the_same_singular_node_with_an_output_buffer(n):
    rng = np.random.default_rng(40 + n)
    g = rng.standard_normal((n, n, 9)) + 4.0 * np.eye(n)[:, :, None] + 0j
    g[:, :, 6] = 0.0
    if n > 1:
        g[0, 0, 6] = 1.0  # rank 1
    with pytest.raises(SingularMapError) as err:
        _checked_inverse(g)
    assert err.value.index == 6


def test_sweep_over_unequal_blocks_matches_the_default_blocks(monkeypatch):
    # 32^3 nodes in blocks of 997: per theta_1 index a slab of 31 theta_2
    # rows of 32 nodes and a tail of one row, so the block shape changes
    # twice per theta_1 index.
    g, dom = stabilize(su2_identity(), 1), ChartedSphereDomain.sphere(3)
    blocks = {len(b) for b in dom.node_blocks(997)}
    assert len(blocks) > 1
    default = odd_chern_top_integral(g, dom)
    monkeypatch.setattr(domains, "CHUNK", 997)
    assert abs(odd_chern_top_integral(g, dom) - default) < 1e-13


def test_sweep_peak_memory_is_the_jet_and_the_kernel_blocks():
    # On S^3 a size-3 map's jet is d + 1 = 4 (3, 3, npts) block arrays, and
    # the top kernel holds 4 more at once: the three w_i and then the
    # wedge's top component, which is allocated after g^-1 is freed.  Rows
    # of npts nodes (determinants, products being summed, the map's own
    # columns) may come on top, but not two further block arrays.
    g, dom = stabilize(su2_identity(), 1), ChartedSphereDomain.sphere(3)
    npts = max(len(b) for b in dom.node_blocks(CHUNK))
    row = 16 * npts
    bound = (4 + 4) * 9 * row + 12 * row
    odd_chern_top_integral(g, dom)
    tracemalloc.start()
    try:
        odd_chern_top_integral(g, dom)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound


def collapse_su2():
    phi = CollapseMap(2, 1, resolution=COARSE)
    return compose_map_with_matrix(phi, su2_identity()), phi.source


@pytest.mark.parametrize("build", [
    lambda: (su2_identity(), ChartedSphereDomain([3], resolution=COARSE)),
    lambda: (stabilize(su2_identity(), 1), ChartedSphereDomain([3], resolution=COARSE)),
    collapse_su2,
], ids=["su2-S3", "su2-S3-stabilized", "collapse-S2xS1"])
def test_top_kernel_matches_dense_on_maps(build):
    g, dom = build()
    pts = dom.nodes()[::37]
    assert np.abs(_odd_chern_top(*g.jet(dom, pts))).max() > 0
    assert_top_matches_dense(g, dom, pts)
