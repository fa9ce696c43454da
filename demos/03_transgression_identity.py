"""
Transgression of the odd Chern character
========================================

For a smooth family g_t of invertible matrix maps, the t-derivative of
Ch(g_t) is exact: d/dt Ch(g_t) = d Ch~(g_t), where Ch~ is built from
g^-1 g_dot and powers of the Maurer-Cartan form.  Here the identity is
verified pointwise, component by component, by comparing a central
finite difference in t against the exterior derivative of Ch~.
"""

import numpy as np

from oddchern.chern import odd_chern, transgression_form
from oddchern.domains import ChartedSphereDomain
from oddchern.fields import exterior_derivative
from oddchern.maps import HomotopyFamily

# A two-parameter trigonometric family on S^3: identity plus a small
# t-dependent perturbation in the ambient coordinates.
rng = np.random.default_rng(7)
A = 0.12 * (rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))
B = 0.12 * (rng.standard_normal((4, 2, 2)) + 1j * rng.standard_normal((4, 2, 2)))


def entries(t, cols):
    rows = [[1.0 + 0.0 * cols[0], 0.0 * cols[0]],
            [0.0 * cols[0], 1.0 + 0.0 * cols[0]]]
    for i, c in enumerate(cols):
        for r in range(2):
            for s in range(2):
                rows[r][s] = rows[r][s] + (A[i, r, s] + t * B[i, r, s]) * c
    return rows


family = HomotopyFamily(entries, size=2)
dom = ChartedSphereDomain.sphere(3)
t, h = 0.3, 1e-3

ch_plus = odd_chern(family.slice_at(t + h), dom)
ch_minus = odd_chern(family.slice_at(t - h), dom)
tilde = transgression_form(family, dom, t)
d_tilde = exterior_derivative(tilde)

pts = dom.nodes()[:: dom.n_nodes // 128]
fd = ch_plus.at(pts)
bw = ch_minus.at(pts)
dt = d_tilde.at(pts)

worst, scale = 0.0, 0.0
for mask in range(1, 2 ** dom.dim):
    a, b, c = fd.comps[mask], bw.comps[mask], dt.comps[mask]
    if a is None and b is None and c is None:
        continue
    diff = ((0 if a is None else a) - (0 if b is None else b)) / (2 * h)
    target = 0.0 * diff if c is None else c
    worst = max(worst, np.abs(diff - target).max())
    scale = max(scale, np.abs(diff).max())

print(f"max |d/dt Ch - d Ch~| over {len(pts)} sample points: {worst:.3e}")
print(f"relative to the largest derivative component:        {worst / scale:.3e}")
