"""
Winding numbers from the odd Chern character
============================================

The degree of a loop z -> z^m in GL_1(C) is recovered by integrating
the normalized odd Chern character form Ch(g) over the circle.  With
the sign convention used throughout the package, deg(z^m) = -m.
"""

import numpy as np

from oddchern.chern import deg, odd_chern
from oddchern.domains import ChartedSphereDomain
from oddchern.fields import integrate_all_degrees
from oddchern.maps import circle_winding

circle = ChartedSphereDomain.sphere(1)

print("deg(z -> z^m) on the circle")
for m in range(-3, 4):
    r = deg(circle_winding(m), circle)
    print(f"  m = {m:+d}:  deg = {r.value.real:+.12f}"
          f"  (rounded {r.rounded:+d}, residual {r.residual:.2e})")

# The same number, seen as the integral of a 1-form.  odd_chern returns
# the full mixed-degree form; on S^1 only the degree-1 piece survives.
g = circle_winding(2)
form = odd_chern(g, circle)
pieces = integrate_all_degrees(form)
print("\nnonzero integrals of Ch(z^2) by form degree:", pieces)

# Windings multiply under composition of circle maps.
from oddchern.maps import circle_power_map, compose_map_with_matrix

z2_of_z3 = compose_map_with_matrix(circle_power_map(circle, 3), circle_winding(2))
r = deg(z2_of_z3, circle)
print(f"\ndeg(z -> (z^3)^2) = {r.rounded}  (composition multiplies windings)")
