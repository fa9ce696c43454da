"""
Degree of the collapse map on product spheres
=============================================

The collapse map phi : S^p x S^q -> S^(p+q) crushes the wedge
S^p v S^q to a point and is, after orientation normalization, a
degree-one map.  The mapping degree is computed by pulling back a
normalized top form on the target and integrating; for targets of
dimension >= 4 a bump form concentrated near the identity cap keeps
the quadrature well inside the region where phi is a diffeomorphism.
"""

from oddchern.collapse import collapse_degree, mapping_degree
from oddchern.defaults import DEGREE_CHECK_NODES_PER_ANGLE

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
    sphere = ChartedSphereDomain.sphere(m, nodes_per_angle=DEGREE_CHECK_NODES_PER_ANGLE)
    r = mapping_degree(antipodal_map(sphere))
    print(f"  S^{m}: {r.rounded:+d}")
