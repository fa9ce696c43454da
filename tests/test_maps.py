"""Matrix maps and chart maps: derivative contracts and generators."""

import hypothesis.extra.numpy as hnp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oddchern import dual
from oddchern.chern import assemble_split_map
from oddchern.collapse import CollapseMap
from oddchern.defaults import CHUNK, COLLAPSE_RADIUS
from oddchern.domains import ChartedSphereDomain, chart_columns
from oddchern.maps import (HomotopyFamily, ProductMatrixMap, ScaledMatrixMap,
                           SmoothMatrixMap, antipodal_map, circle_power_map,
                           circle_winding, compose_map_with_matrix,
                           identity_chart_map, projection_second_factor,
                           stabilize, su2_identity)
from oddchern.superconn import unitarize
from reference import constant_map, evaluate_ambient

COARSE = 0.375  # resolution: 24, 18 and 12 nodes per angle on S^1, S^2 and S^3


def fd4(f, pts, i, h=1e-4):
    """Fourth-order central difference of f(pts) along chart coordinate i."""
    def at(c):
        q = pts.copy()
        q[:, i] += c * h
        return f(q)
    return (8.0 * (at(1) - at(-1)) - (at(2) - at(-2))) / (12.0 * h)


def jet_array(rows, shape):
    """Jet rows (dual.jet_rows) on a block or point array of that shape as one
    (k, 1 + d, npts) array: per ambient column its value, then its derivatives."""
    return np.array([[np.broadcast_to(e, shape).reshape(-1) for e in row] for row in rows])


def fd_differential(g, dom, pts, i):
    return fd4(lambda q: g.evaluate(dom, q), pts, i)


@pytest.mark.parametrize("builder,spheres", [
    (lambda: circle_winding(2), [1]),
    (lambda: circle_winding(-3, size=3), [1]),
    (lambda: su2_identity(), [3]),
    (lambda: stabilize(su2_identity(), 2), [3]),
    (lambda: ScaledMatrixMap(2.5, su2_identity()), [3]),
])
def test_dual_differential_matches_fd(builder, spheres):
    g = builder()
    dom = ChartedSphereDomain(spheres, resolution=COARSE)
    pts = dom.nodes()[:: max(1, dom.n_nodes // 40)]
    for i in range(dom.dim):
        exact = g.differential(dom, pts, i)
        approx = fd_differential(g, dom, pts, i)
        assert np.abs(exact - approx).max() < 1e-7


def _split_factors_on_a_block():
    # The split map pr_2* f . phi* h on a tensor node block of S^2 x S^1 in
    # the middle of the grid, where both factors vary.
    phi = CollapseMap(2, 1, resolution=COARSE)
    split = assemble_split_map(circle_winding(3), su2_identity(), phi)
    blocks = list(phi.source.node_blocks(500))
    return split.a, split.b, phi.source, blocks[len(blocks) // 2]


def _winding_factors_on_points():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    return circle_winding(2, size=2), circle_winding(-1, size=2), dom, dom.nodes()[::3]


def test_product_map_product_rule():
    def mul(x, y):
        return np.einsum("ikp,kjp->ijp", x, y)

    for a, b, dom, pts in (_winding_factors_on_points(), _split_factors_on_a_block()):
        prod = ProductMatrixMap(a, b)
        vals_a = a.evaluate(dom, pts)
        vals_b = b.evaluate(dom, pts)
        assert np.abs(prod.evaluate(dom, pts) - mul(vals_a, vals_b)).max() < 1e-12
        for i in range(dom.dim):
            lhs = prod.differential(dom, pts, i)
            da, db = a.differential(dom, pts, i), b.differential(dom, pts, i)
            rhs = mul(da, vals_b) + mul(vals_a, db)
            assert np.abs(lhs - rhs).max() < 1e-12


def test_unitarity_of_generators():
    for g, spheres in ((circle_winding(3, size=2), [1]), (su2_identity(), [3])):
        dom = ChartedSphereDomain(spheres, resolution=COARSE)
        pts = dom.nodes()[::7]
        vals = g.evaluate(dom, pts)
        gram = np.einsum("kip,kjp->ijp", np.conj(vals), vals)
        assert np.abs(gram - np.eye(g.size)[:, :, None]).max() < 1e-12


def test_constant_map_has_zero_derivative():
    dom = ChartedSphereDomain([2, 1], resolution=COARSE)
    g = constant_map(np.array([[2.0, 1.0], [0.0, 1.0]]))
    pts = dom.nodes()[::101]
    for i in range(dom.dim):
        assert np.abs(g.differential(dom, pts, i)).max() < 1e-12


def test_stabilize_embeds_identity_block():
    dom = ChartedSphereDomain([3], resolution=COARSE)
    g = stabilize(su2_identity(), 2)
    pts = dom.nodes()[::19]
    vals = g.evaluate(dom, pts)
    assert np.abs(vals[2:, 2:] - np.eye(2)[:, :, None]).max() < 1e-12
    assert np.abs(vals[:2, 2:]).max() < 1e-12


def test_homotopy_family_jet():
    dom = ChartedSphereDomain([1], resolution=COARSE)

    # jet reruns the entries on plain ambient values with t seeded alone, so
    # x * t, x - t * y and y / (2 + t) put an ndarray on the left of the Dual t.
    def fn(t, cols):
        x, y = cols[0], cols[1]
        return [[1.0 + 0.3 * (x * t), 0.1 * (y * t) * t],
                [x - t * y, y / (2.0 + t) + np.float64(1.5) * t]]

    fam = HomotopyFamily(fn, 2)
    pts = dom.nodes()[::3]
    t, h = 0.7, 1e-6
    vals, dgs, exact = fam.jet(dom, pts, t)
    approx = (fam.slice_at(t + h).evaluate(dom, pts)
              - fam.slice_at(t - h).evaluate(dom, pts)) / (2 * h)
    assert np.abs(exact - approx).max() < 1e-8
    ref_vals, ref_dgs = fam.slice_at(t).jet(dom, pts)
    assert vals.tobytes() == ref_vals.tobytes() and dgs.tobytes() == ref_dgs.tobytes()


def test_homotopy_family_jet_on_a_node_block():
    dom = ChartedSphereDomain([3], resolution=COARSE)

    def fn(t, cols):
        x, w = cols[0], cols[3]
        return [[2.0 + dual.sin(x * t), w * t], [x - t * w, (1.5 + x) * (t * t)]]

    fam, t = HomotopyFamily(fn, 2), 0.4
    block = next(dom.node_blocks(1000))
    assert len(block.shape) == 3 and min(block.shape) > 1
    vals, dgs, g_dot = fam.jet(dom, block, t)
    ref_vals, ref_dgs = fam.slice_at(t).jet(dom, block)
    assert vals.tobytes() == ref_vals.tobytes() and dgs.tobytes() == ref_dgs.tobytes()
    assert g_dot.shape == (2, 2, len(block))
    assert np.abs(g_dot - fam.jet(dom, block.points(), t)[2]).max() < 1e-14


def test_homotopy_family_jet_broadcasts_an_entry_of_t_alone():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    fam = HomotopyFamily(lambda t, cols: [[1.0 + t, cols[0] * t], [0.0 * cols[1], 2.0 * t]], 2)
    pts = dom.nodes()[::5]
    vals, dgs, g_dot = fam.jet(dom, pts, 0.25)
    assert vals.shape == (2, 2, len(pts)) and dgs.shape == (1, 2, 2, len(pts))
    assert np.all(vals[0, 0] == 1.25) and np.all(dgs[:, 0, 0] == 0.0)
    assert np.all(g_dot[0, 0] == 1.0) and np.all(g_dot[1, 1] == 2.0)
    assert np.array_equal(g_dot[0, 1], dom.embed(pts)[:, 0]) and np.all(g_dot[1, 0] == 0.0)


@pytest.mark.parametrize("left", [np.linspace(0.5, 2.0, 5), np.float64(1.7)],
                         ids=["ndarray", "numpy-scalar"])
def test_array_left_arithmetic_with_a_dual_is_the_dual_left_form(left):
    rng = np.random.default_rng(11)
    d = dual.Dual(rng.uniform(1.0, 2.0, 5), rng.standard_normal((2, 5)))
    pairs = [(left + d, d + left), (left * d, d * left),
             (left - d, -(d - left)), (left / d, d.__rtruediv__(left))]
    for got, ref in pairs:
        assert isinstance(got, dual.Dual)
        assert np.array_equal(got.val, ref.val) and np.array_equal(got.eps, ref.eps)
    assert np.array_equal((left / d).val, left / d.val)


def _narrow_and_wide():
    """seed_all's Duals of x (3,) and y (2, 3), a plain o (2, 3), a (2, 3)
    condition, and the reference Duals seeded with x broadcast to (2, 3)."""
    rng = np.random.default_rng(5)
    x, y, o = rng.uniform(1.0, 2.0, 3), rng.uniform(1.0, 2.0, (2, 3)), rng.uniform(1.0, 2.0, (2, 3))
    cond = rng.uniform(size=(2, 3)) < 0.5
    return dual.seed_all([x, y]), dual.seed_all([np.broadcast_to(x, (2, 3)), y]), o, cond


def test_a_wider_operand_goes_behind_the_direction_axis():
    (d, _), _, o, _ = _narrow_and_wide()
    prod = d * o
    assert prod.eps.shape == (2, 2, 3)
    assert np.array_equal(prod.eps[0], o) and np.array_equal(prod.eps[1], np.zeros((2, 3)))


BINARY = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
          "mul": lambda a, b: a * b, "div": lambda a, b: a / b,
          "arctan2": dual.arctan2}
# The two operands (or where's two branches), from the Duals x, y and the
# plain o, for each layout: the wider one is o or y.
LAYOUTS = {"plain-right": lambda x, y, o: (x, o), "plain-left": lambda x, y, o: (o, x),
           "dual-right": lambda x, y, o: (x, y), "dual-left": lambda x, y, o: (y, x)}


def assert_duals_equal(got, ref):
    assert isinstance(got, dual.Dual)
    assert np.array_equal(got.val, ref.val)
    assert got.eps.shape == ref.eps.shape and np.array_equal(got.eps, ref.eps)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("op", BINARY)
def test_arithmetic_with_a_wider_operand_matches_the_broadcast_columns(op, layout):
    narrow, wide, o, _ = _narrow_and_wide()
    got = BINARY[op](*LAYOUTS[layout](*narrow, o))
    assert_duals_equal(got, BINARY[op](*LAYOUTS[layout](*wide, o)))


@pytest.mark.parametrize("layout", LAYOUTS)
def test_where_with_a_wider_branch_matches_the_broadcast_columns(layout):
    narrow, wide, o, cond = _narrow_and_wide()
    assert_duals_equal(dual.where(cond, *LAYOUTS[layout](*narrow, o)),
                       dual.where(cond, *LAYOUTS[layout](*wide, o)))


@pytest.mark.parametrize("index", [1, (1, 2), (slice(None), 2), (Ellipsis, 0)],
                         ids=["row", "entry", "column", "ellipsis"])
def test_dual_indexing_takes_the_value_axes(index):
    (_, y), _, _, _ = _narrow_and_wide()
    got = y[index]
    assert np.array_equal(got.val, y.val[index])
    assert np.array_equal(got.eps, np.stack([e[index] for e in y.eps]))


def test_chart_map_jacobian_vs_fd():
    dom = ChartedSphereDomain([2], resolution=COARSE)
    amap = antipodal_map(dom)
    pts = dom.nodes()[::29]
    jet = jet_array(amap.ambient_jacobian_columns(pts), (len(pts),))
    jac_cols = list(jet[:, 1:].transpose(1, 2, 0))
    h = 1e-6
    for i in range(dom.dim):
        dp, dm = pts.copy(), pts.copy()
        dp[:, i] += h
        dm[:, i] -= h
        fd = (evaluate_ambient(amap, dp) - evaluate_ambient(amap, dm)) / (2 * h)
        assert np.abs(jac_cols[i] - fd).max() < 1e-7


def test_identity_chart_jacobian_is_the_identity():
    dom = ChartedSphereDomain([2], resolution=COARSE)
    pts = dom.nodes()[::7]
    jac = identity_chart_map(dom).jacobian_chart(pts)
    assert jac.shape == (len(pts), 2, 2)
    assert np.abs(jac - np.eye(2)).max() < 1e-13


def test_identity_and_projection_values():
    prod = ChartedSphereDomain([2, 1], resolution=COARSE)
    ident = identity_chart_map(prod)
    pts = prod.nodes()[::97]
    assert np.abs(evaluate_ambient(ident, pts) - prod.embed(pts)).max() < 1e-12
    pr2 = projection_second_factor(prod)
    amb = evaluate_ambient(pr2, pts)
    assert np.abs(amb - prod.embed(pts)[:, 3:]).max() < 1e-12


def test_circle_power_map_composition():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    sq = circle_power_map(dom, 2)
    pts = dom.nodes()[::2]
    amb = dom.embed(pts)
    z = amb[:, 0] + 1j * amb[:, 1]
    out = evaluate_ambient(sq, pts)
    assert np.abs((out[:, 0] + 1j * out[:, 1]) - z ** 2).max() < 1e-12


def test_compose_map_with_matrix_pullback_values():
    dom = ChartedSphereDomain([1], resolution=COARSE)
    sq = circle_power_map(dom, 2)
    g = compose_map_with_matrix(sq, circle_winding(3))
    pts = dom.nodes()[::2]
    amb = dom.embed(pts)
    z = amb[:, 0] + 1j * amb[:, 1]
    assert np.abs(g.evaluate(dom, pts)[0, 0] - z ** 6).max() < 1e-10


# -- one-pass jets ----------------------------------------------------------------

def collapse_pullback():
    phi = CollapseMap(2, 1, resolution=COARSE)
    return compose_map_with_matrix(phi, su2_identity()), phi.source


def polar_part(v, sphere=3):
    return unitarize(v), ChartedSphereDomain([sphere])


JET_CASES = {
    "su2": lambda: (su2_identity(), ChartedSphereDomain([3])),
    "su2-size3": lambda: (su2_identity(3), ChartedSphereDomain([3])),
    "winding": lambda: (circle_winding(-3, size=2), ChartedSphereDomain([1])),
    "stabilized": lambda: (stabilize(su2_identity(), 1), ChartedSphereDomain([3])),
    "product": lambda: (ProductMatrixMap(su2_identity(),
                                         ScaledMatrixMap(0.5, su2_identity())),
                        ChartedSphereDomain([3])),
    "collapse-S2xS1": collapse_pullback,
    # Polar parts: a non-normal map with distinct singular values, whose
    # v* v varies over the sphere, c v, whose eigenvalues are equal, and a
    # complex multiple of a winding, whose polar part is v/|v|.
    "polar-non-normal": lambda: polar_part(ProductMatrixMap(
        constant_map([[2.0, 0.3], [0.0, 0.5]]), su2_identity())),
    "polar-scaled": lambda: polar_part(ScaledMatrixMap(3.0, su2_identity())),
    "polar-size1": lambda: polar_part(ScaledMatrixMap(0.2 - 1j, circle_winding(3)), 1),
}


def interior_points(data, dom, n=6):
    """n chart points strictly inside every angle range, away from the poles."""
    fracs = data.draw(hnp.arrays(float, (n, dom.dim),
                                 elements=st.floats(0.01, 0.99)))
    his = np.array([a[0].max() + a[0].min() for a in dom.axes])
    return fracs * his


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(JET_CASES)))
def test_jet_matches_evaluate_and_fd(data, name):
    g, dom = JET_CASES[name]()
    pts = interior_points(data, dom)
    # A map class that defines differential returns its jet's rows there;
    # the polar part defines jet alone.
    own_differential = type(g).differential is not SmoothMatrixMap.differential
    vals, ds = g.jet(dom, pts)
    # Every map returns the forms' block layout, point axis last.
    assert vals.shape == (g.size, g.size, len(pts))
    # The dual pass rounds values exactly as the plain pass does.
    assert np.array_equal(vals, g.evaluate(dom, pts))
    assert ds.shape == (dom.dim,) + vals.shape
    for i, d in enumerate(ds):
        fd = fd_differential(g, dom, pts, i)
        assert np.abs(d - fd).max() < 1e-7 * (1.0 + np.abs(d).max())
        if own_differential:
            assert np.array_equal(g.differential(dom, pts, i), d)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), pq=st.sampled_from([(2, 1), (1, 2), (3, 1)]))
def test_ambient_jacobian_columns_match_fd(data, pq):
    phi = CollapseMap(*pq, resolution=COARSE)
    pts = interior_points(data, phi.source)
    jet = jet_array(phi.ambient_jacobian_columns(pts), (len(pts),))
    vals, cols = jet[:, 0].T, list(jet[:, 1:].transpose(1, 2, 0))
    assert np.array_equal(vals, evaluate_ambient(phi, pts))
    assert len(cols) == phi.source.dim
    for i, col in enumerate(cols):
        fd = fd4(lambda q: evaluate_ambient(phi, q), pts, i)
        assert np.abs(col - fd).max() < 1e-7 * (1.0 + np.abs(col).max())


# -- tensor node blocks: jets on broadcast columns equal flat jets --------------

def _block_cases():
    phi21 = CollapseMap(2, 1, resolution=COARSE)
    pull21 = compose_map_with_matrix(phi21, su2_identity())
    ball21 = CollapseMap(2, 1).ball()
    s3 = ChartedSphereDomain([3], resolution=COARSE)
    # S^2 x S^3 on 9 x 9 x 6 x 6 x 6 nodes: at chunk 100 the last three axes
    # hold 216 nodes and the last two 36, so blocks are slabs of the third axis.
    phi23 = CollapseMap(2, 3, resolution=0.1875)
    return {
        "su2-S3": (su2_identity(), s3, 1000),
        "collapse-pullback-S2xS1": (pull21, phi21.source, 2000),
        "collapse-pullback-on-the-ball": (
            compose_map_with_matrix(ball21, su2_identity()), ball21.source, 1000),
        "split-map": (assemble_split_map(circle_winding(1), su2_identity(), phi21),
                      phi21.source, 2000),
        "polar-of-scaled": (unitarize(ScaledMatrixMap(2.0, pull21)),
                            phi21.source, 2000),
        "collapse-pullback-S2xS3-slab-axis-2": (
            compose_map_with_matrix(phi23, su2_identity()), phi23.source, 100),
    }


@pytest.mark.parametrize("case", list(_block_cases()))
def test_block_jets_equal_flat_jets_bit_for_bit(case):
    g, dom, chunk = _block_cases()[case]
    blocks = list(dom.node_blocks(chunk))
    assert len(blocks) > 1
    for block in blocks:
        vals, dgs = g.jet(dom, block)
        flat_vals, flat_dgs = g.jet(dom, block.points())
        assert np.array_equal(vals, flat_vals) and np.array_equal(dgs, flat_dgs)
    if case == "collapse-pullback-S2xS3-slab-axis-2":
        assert blocks[0].shape == (1, 1, 2, 6, 6)


def _radial_and_angular(ball, pts):
    """The collapse map's factors at pts (a NodeBlock or a point array) of its
    ball chart: the radial profile 2 eta r / (r^2 + eta^2), a function of r
    alone, and the angular unit vector's columns u_i, functions of the
    angles alone."""
    r, *u = ball.embed_dual_cols(chart_columns(pts)[0])
    eta = CollapseMap._eta(r, dual.value(r) <= COLLAPSE_RADIUS)
    return 2.0 * eta * r / (r * r + eta * eta), u


@pytest.mark.parametrize("pq", [(2, 1), (3, 1), (2, 3)])
def test_separable_product_equals_the_full_product(pq):
    ball = ChartedSphereDomain.ball(*pq, 0.25)
    block = next(ball.node_blocks(CHUNK))
    assert block.shape[0] > 1 and len(block) > block.shape[0]
    for pts in (block, ball.sample_nodes(200)):
        radial, u = _radial_and_angular(ball, pts)
        for ui in u:
            assert_duals_equal(dual.separable_mul(radial, ui), radial * ui)


def test_separable_product_of_a_plain_operand_is_the_full_product():
    ball = ChartedSphereDomain.ball(2, 1, 0.25)
    radial, (u0, *_) = _radial_and_angular(ball, ball.sample_nodes(50))
    assert_duals_equal(dual.separable_mul(radial, u0.val), radial * u0.val)
    assert_duals_equal(dual.separable_mul(2.5, u0), 2.5 * u0)
    assert np.array_equal(dual.separable_mul(radial.val, u0.val), radial.val * u0.val)


def test_ball_chart_ambient_jacobian_is_bit_identical_on_blocks():
    # BALL_NODES at resolution 0.5: 12 nodes per radial panel, 4 per angle.
    amap = CollapseMap(3, 1, resolution=0.5).ball()
    blocks = list(amap.source.node_blocks(500))
    assert len(blocks) > 1
    for block in blocks:
        jet = jet_array(amap.ambient_jacobian_columns(block), block.shape)
        flat = jet_array(amap.ambient_jacobian_columns(block.points()), (len(block),))
        assert jet.shape == (amap.target.dim + 1, amap.source.dim + 1, len(block))
        assert np.array_equal(jet, flat)
