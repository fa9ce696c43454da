"""
Degree of the collapse map on product spheres
=============================================

The collapse map phi : S^p x S^q -> S^(p+q) crushes the wedge
S^p v S^q to a point and is, after orientation normalization, a
degree-one map.  The mapping degree is computed by pulling back the
normalized round volume form of the target and integrating.  phi is
constant outside the ball |w| < 2R of stereographic coordinates
w = (sigma_p, sigma_q), so the integral runs over that ball alone: two
Gauss panels in |w|, on [0, R] and [R, 2R], times Gauss nodes in the
angles of S^(p+q-1).  On that chart phi is written in polar coordinates
w = r u, as the inverse stereographic projection of rho(r) u, so its
radial profile rho is computed on the radial axis alone.
"""

from oddchern.collapse import collapse_degree, mapping_degree

for p, q in ((2, 1), (1, 2), (2, 3)):
    r = collapse_degree(p, q)
    print(f"S^{p} x S^{q} -> S^{p + q}:  degree = {r.rounded:+d}"
          f"  (residual {r.residual:.2e})")

# The same machinery measures degrees of arbitrary sphere maps.  The
# antipodal map on S^(m) has degree (-1)^(m+1).
from oddchern.maps import antipodal_map
from oddchern.domains import ChartedSphereDomain

print("\nantipodal map degrees:")
for m in (1, 2, 3):
    sphere = ChartedSphereDomain.sphere(m, resolution=0.5)
    r = mapping_degree(antipodal_map(sphere))
    print(f"  S^{m}: {r.rounded:+d}")
