"""Acceptance suite: one test per quantitative guarantee of the package.

Each test delegates to the matching check in oddchern.verify so the CLI
``verify`` subcommand and this suite certify exactly the same properties.
"""

from oddchern import verify


def _assert(result):
    assert result["converged"], result["detail"]
    assert result["passed"], result["detail"]


def test_1_winding_quantization():
    """deg(z -> z^m) = -m on the circle for m in -3..3, residual < 1e-10."""
    _assert(verify.check_winding_quantization())


def test_2_su2_generator_degree():
    """deg of the su2 representative on S^3 is -1 (residual < 1e-6), equal to
    minus the independently computed mapping degree of the identity chart map
    (itself integer to 1e-4)."""
    _assert(verify.check_su2_generator())


def test_3_chern_simons_consistency():
    """cs(d, d + g^-1 dg) integrates to the same per-degree values as Ch(g)
    on circle and S^3 examples, agreement < 1e-7."""
    _assert(verify.check_chern_simons_consistency())


def test_4_transgression_identity():
    """Finite-difference d/dt of Ch(g_t) matches d of the transgression form
    for random trigonometric families on S^1 and S^3, relative error < 1e-6."""
    _assert(verify.check_transgression())


def test_5_product_splitting():
    """On a product sphere, deg*(pr2* f . phi* h) equals deg(h) for windings
    f in {0, 1, 3} and h in {constant, su2}; spread over f-choices < 1e-6."""
    _assert(verify.check_product_splitting())


def test_6_collapse_map_degree():
    """The orientation-normalized collapse map has mapping degree +1 for
    (p, q) in {(2,1), (2,3), (4,1)}, integrality residual < 1e-8."""
    _assert(verify.check_collapse_degree())


def test_7_gaussian_moment():
    """2 * int_0^inf t^(2n-1) e^(-t^2) dt = (n-1)! for n in {1, 2, 3},
    quadrature error < 1e-12."""
    _assert(verify.check_gaussian_moment())


def test_8_two_path_gamma():
    """The deformation-limit boundary integral at T = 8, the closed-form
    evaluation, and (-1)^n deg*(v) agree to < 1e-7 on the product-sphere
    boundary models."""
    _assert(verify.check_two_path_gamma())


def test_9_localization_sign_chain():
    """localize returns (-1)^(n+1) deg* = +1, equals minus the gamma-limit
    sum, and is an exact integer after rounding with residual < 1e-4."""
    _assert(verify.check_localize_sign_chain())


def test_10_point_case():
    """The point-case contribution of z -> z^m is -m, matching the clutching
    oracle value for m in -2..2, exact after rounding."""
    _assert(verify.check_flz_point_case())


def test_11_gamma_profile():
    """gamma(T) at T in {1, 2, 4, 6} is the incomplete-gamma factor
    gamma(n, T^2)/2 times the model's top integral, to 1e-12 relative."""
    _assert(verify.check_gamma_profile())


def test_12_robustness():
    """deg*, the gamma limit, and localize change by < 1e-8 under scaling
    v -> c v for c in {0.1, 10} and under polar re-unitarization."""
    _assert(verify.check_robustness())
