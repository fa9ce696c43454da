"""One place for every numeric default the library and CLI use."""

from dataclasses import dataclass

# Gauss-Legendre nodes per angular coordinate at resolution 1, keyed by
# sphere dimension; a chart at resolution r takes max(4, round(n r)).
NODES_PER_ANGLE = {1: 64, 2: 48, 3: 32, 4: 32, 5: 24}

# Ball-chart budget (domains.ChartedSphereDomain.ball): Gauss-Legendre
# nodes per radial panel and nodes per angle of S^(p+q-1), at resolution 1,
# of collapse.collapse_degree and of every boundary model of a pure pullback
# phi* h; resolution r takes max(4, round(n r)) of each.  On the
# SPLIT_LADDER levels of such a model, 3,072 and 24,576 nodes on S^2 x S^1,
# |deg*(phi* su2) + 1| is 1.4e-9 and 2.7e-14.  The collapse map's
# pulled-back volume form is radial, so its value depends only on p + q and
# the two errors separate.  The radial one dominates, because the smooth
# step on [R, 2R] is C-infinity but not analytic, and a radial node costs
# one grid slice, while an angle node multiplies the grid p + q - 1 times.
# Scan of collapse_degree's |value - 1| (grid nodes), R = 4:
#    budget     p+q = 3            4                  5
#    (12, 6)    1.2e-7 (864)       1.8e-5 (5,184)     1.3e-4 (31,104)
#    (16, 8)    2.0e-7 (2,048)     6.5e-8 (16,384)    5.4e-7 (131,072)
#    (24, 8)    1.4e-9 (3,072)     9.3e-10 (24,576)   2.9e-8 (196,608)
#    (30, 10)   1.5e-10 (6,000)    8.1e-11 (60,000)   5.0e-11 (600,000)
#    (24, 12)   1.4e-9 (6,912)     8.4e-10 (82,944)   4.5e-10 (995,328)
#    (36, 12)   6.2e-12 (10,368)   3.2e-12 (124,416)  1.6e-12 (1,492,992)
# With 48 radial nodes per panel, 8 nodes per angle leave 2.4e-14, 8.7e-11
# and 2.9e-8; with 16 nodes per angle, 16 and 24 radial nodes leave 6.5e-8
# and 8.4e-10 in 4-D.
BALL_NODES = (24, 8)

# Collapse-map radius R in stereographic units; the identity region |w| <= R
# then carries the bulk of the product measure.  BALL_NODES and
# COLLAPSE_LADDER were scanned at this R alone, so it is fixed, not a setting.
COLLAPSE_RADIUS = 4.0

# Deformation-parameter integral for the boundary transgression form:
# T_NODES-point Gauss-Legendre on [0, T] (T_MAX by default); the tail beyond
# T_MAX is bounded by exp(-T_MAX**2) * poly and neglected.  The integrand is
# a scalar factor, so the node count costs no sweep.
T_MAX = 8.0
T_NODES = 200

# Finite-difference steps (Richardson-extrapolated 5-point stencils).
FD_STEP = 1e-4

# Tolerances.
DEGREE_RESIDUAL_TOL = 1e-4      # |value - nearest integer|
DEGREE_IMAG_TOL = 1e-8          # imaginary contamination, relative
TWO_PATH_TOL = 1e-7             # gamma quadrature vs closed form
UNITARY_TOL = 1e-12             # ||v* v - Id|| on boundary models
MIN_SINGULAR_VALUE = 1e-8       # floor of v's singular values in a model's polar part
MIN_DETERMINANT = 1e-12         # |det g| floor of chern._checked_inverse


@dataclass(frozen=True)
class Ladder:
    """Resolution scales tried in order, and the agreement that stops them.

    A level converges when it is within tol of the previous level and within
    DEGREE_RESIDUAL_TOL of an integer (results.DegreeResult.from_ladder).
    """

    scales: tuple
    tol: float


# Generic degrees (deg on odd spheres, deg* of split maps, sphere-map
# degrees): resolution doubling from a quarter of the chart's budget, with
# consecutive levels held to 1e-6.  A step is about the earlier level's
# error, so an analytic integrand is accepted one level after its error
# falls below the tolerance.  A scale whose grid repeats the previous
# level's (a budget of 4 or 5 per axis gives 2 nodes at both 0.25 and 0.5)
# is skipped (results.DegreeResult.from_ladder).  Scan of |value - integer|
# per level of every map the scenarios, checks and tests run on this ladder,
# by chart and resolution; "acc" is the accepted level, * when unconverged,
# and "was" the level the ladder (0.5, 1, 2, 4) accepted:
#    map; chart, resolution            0.25     0.5      1        2        4        acc  was
#    z^m (|m| <= 4), z^2 z, (z^3)^2,   <1e-15   <1e-15                              0.5  1
#      circle power, antipodal and
#      homotopy maps; S^1, 1 or 0.5
#    su2 sizes 2-5, identity,          8.7e-11  8.9e-16                             0.5  1
#      antipodal; S^3, 1
#    su2; S^3, 0.75                    6.0e-7   1.1e-15                             0.5  1
#    antipodal; S^2, 1                 5.6e-16  7.8e-16                             0.5  1
#    antipodal; S^2, 0.5               2.6e-10  5.6e-16                             0.5  1
#    antipodal; S^4, 1                 2.9e-8   1.6e-15                             0.5  1
#    split pr2* z^m . phi* const       0        0                                   0.5  1
#      (m = 0, 1, 3); S^2 x S^1, 0.5
#    su2 sizes 2-5, identity,          1.1e-3   8.7e-11  8.9e-16                    1    1
#      antipodal; S^3, 0.5
#    su2 . su2; S^3, 1                 7.5e-6   1.3e-15  4.0e-15                    1    1
#    antipodal; S^4, 0.5               1.3e-2   2.9e-8   1.6e-15                    1    1
#    su2 . su2; S^3, 0.5               2.5e-1   7.5e-6   1.3e-15  4.0e-15           2    2
#    su2; S^3, 0.15 (0.5 skipped)      2.6e-1   -        3.1e-5   4.7e-15  5.3e-15  4    4
#    clutching map of the exit-3       1.3e-1   4.1e-2   9.8e-4   5.8e-6   4.8e-11  4*   4*
#      CLI test; S^1, 0.5
#    homotopy at t = 1, m = 2,         2.5e-1   1.1e-2   2.1e-3   2.3e-6   1.4e-12  4*   4*
#      k = (1, 2), c = 0.625; S^1, 0.5
#    split pr2* z^m . phi* su2         1.0e-2   4.5e-3   1.3e-3   1.1e-4   5.4e-7   4*   4*
#      (m = 0, 1, 3); S^2 x S^1, 0.5
DEGREE_LADDER = Ladder((0.25, 0.5, 1.0, 2.0, 4.0), 1e-6)

# deg* of maps pulled back through the collapse map: the deg-star scenario and
# every boundary model (SuperBundleModel.degree_star).  On the product angle
# chart, where split maps pr2* f . phi* h live, the integrands concentrate
# near the gluing annulus and converge slowly and non-monotonically, so
# consecutive-step agreement is judged against a looser tolerance while
# integrality is still held to DEGREE_RESIDUAL_TOL.  Pure pullbacks phi* h
# live on the ball chart and pass it with a step of about 1e-9 (BALL_NODES).
# Boundary models live on the last level's grid (superconn.boundary_model):
# on the angle chart the gamma integrand carries the collapse map's gluing
# profile, whose quadrature error only drops below 1e-7 around twice the
# default per-angle budget, and deg* and gamma then share quadrature.
SPLIT_LADDER = Ladder((1.0, 2.0), 2e-4)

# Mapping degree of the collapse map itself (collapse.collapse_degree), on the
# BALL_NODES budget: (24, 8), then (30, 10).  The step is about the first
# level's error in the scan above, 1.4e-9, 9.3e-10 and 2.9e-8 for p + q = 3,
# 4 and 5, so the 5-D step passes the tolerance 35-fold; the second level
# leaves residuals of 1.5e-10, 8.1e-11 and 5.0e-11.
COLLAPSE_LADDER = Ladder((1.0, 1.25), 1e-6)

# Resolution of the coarse grid in gamma_report's convergence table.
GAMMA_COARSE_SCALE = 0.5

# Node-block size of every sweep.  Grids are tensor products of per-axis
# rules, and node_blocks (domains) cuts them into tensor sub-grids of at most
# CHUNK nodes: a slab of one axis times every trailing axis whole.  Of the
# benchmark workloads, sphere-chern (grids of 16-4,096 nodes) and gamma-limit
# (750, 6,000 and 64) sweep every grid in one block; collapse-4d splits its
# ball grids of 24,576 and 60,000 nodes into blocks of 8,192, and of 8,000
# and 4,000.  A block's arrays grow with it: a jet of an N x N map is d + 1
# arrays of N*N*npts complex numbers, and the odd Chern and gamma top kernels
# allocate about as many again per block.  One (8192,) complex row is
# 128 KiB, glibc's default mmap threshold; at 400,000 nodes five passes of
# collapse-4d took 345,000-355,000 minor faults, 1.3-1.7 s of system time
# and 460 MB, against 147,000, 0.25-0.33 s and 49 MB at 8,192.  Scan on a
# 2-vCPU Xeon VM, one BLAS thread, direct runs of the benchmark workloads'
# ops as they then were (gamma-limit at full resolution, on a 60 x 60 x 80
# grid of 4,800-node theta_1 rows), median pass seconds of 15 (3
# interleaved rounds of 5) and peak RSS:
#             sphere-chern     collapse-4d      gamma-limit
#    4,096    0.19 s  43 MB    0.11 s  41 MB    0.27 s  39 MB
#    8,192    0.21 s  49 MB    0.12 s  49 MB    0.26 s  39 MB
#   16,384    0.22 s  60 MB    0.13 s  62 MB    0.20 s  46 MB
# 16,384 is slower on two workloads.  A second scan of 4,096 against 8,192
# alone (4 rounds of 5) read gamma-limit 0.34 s against 0.22 s: below 4,800
# nodes a theta_1 row no longer fits a block and splits into blocks of 4,080
# and 720 nodes.
CHUNK = 8_192
