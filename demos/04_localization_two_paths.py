"""
Localization of the relative Chern number, two ways
===================================================

A boundary model carries a unitary map v on a product sphere and the
super-connection A_T = d + T V built from it.  The boundary integral of
the transgression form gamma(T) converges, as T grows, to (-1)^n deg*(v);
the same number also comes out of a closed-form evaluation using a
Gaussian moment.  The localized relative Chern number is then
(-1)^(n+1) deg*(v), an exact integer.
"""

from oddchern.collapse import CollapseMap
from oddchern.maps import compose_map_with_matrix, su2_identity
from oddchern.superconn import (
    boundary_model,
    gamma_boundary_integral,
    gamma_closed_form,
    localize,
)

# Pull the su2 generator back through the collapse map S^2 x S^1 -> S^3.
# The pullback is constant outside the ball |w| < 2R of stereographic
# coordinates, so the model lives on that ball's chart, where the map is
# evaluated in the ball's polar coordinates (|w|, w/|w|).
ball = CollapseMap(2, 1).ball()
model = boundary_model(ball.source, compose_map_with_matrix(ball, su2_identity()))

ds = model.degree_star()
print(f"deg*(v)               = {ds.value.real:+.12f}  (rounded {ds.rounded:+d})")

print("\ngamma boundary integral as the deformation parameter grows:")
for T in (1.0, 2.0, 4.0, 8.0):
    val = gamma_boundary_integral(model, T)
    print(f"  T = {T:4.1f}:  {val.real:+.12f}")

closed = gamma_closed_form(model)
print(f"\nclosed form            = {closed.real:+.12f}")
print(f"(-1)^n deg*(v)         = {((-1.0) ** model.n * ds.value).real:+.12f}")

rep = localize([model])
print(f"\nlocalized Chern number = {rep.value.real:+.1f}"
      f"  (two-path agreement {rep.agreement:.2e})")
