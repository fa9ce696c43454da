"""The resolution ladder's stopping rule (DegreeResult.from_ladder)."""

from types import SimpleNamespace

import pytest

from oddchern.defaults import Ladder
from oddchern.results import DegreeResult

LADDER = Ladder((0.5, 1.0, 2.0, 4.0), 1e-6)


class Chart:
    """A chart stand-in with one axis of max(2, round(n scale)) nodes."""

    def __init__(self, n):
        self.n = n

    def at_scale(self, scale):
        return SimpleNamespace(scale=scale, shape=(max(2, round(self.n * scale)),))


@pytest.mark.parametrize("values,levels,converged", [
    # Agrees within tol and is integral at the second level: stop there.
    ([1.0 + 5e-7, 1.0 + 2e-7, 1.0, 1.0], 2, True),
    # The first agreeing, integral level stops the ladder, not a later one.
    ([3.1, 3.0 + 1e-5, 3.0 + 1e-5 + 5e-7, 3.0], 3, True),
    # Agrees within tol but sits 0.5 from an integer: keep climbing.
    ([0.5, 0.5, 0.5 + 1e-3, 1.0 - 2e-5], 4, False),
    ([0.5, 0.5, 1.0 - 2e-5, 1.0 - 2e-5 + 1e-7], 4, True),
    # Never agrees: every level runs and the last one is reported.
    ([-2.0, -1.0, -1.1, -0.99], 4, False),
])
def test_from_ladder_stops_on_agreement_and_integrality(values, levels, converged):
    asked = []

    def integral(dom):
        asked.append(dom.scale)
        return complex(values[len(asked) - 1])

    r = DegreeResult.from_ladder(LADDER, Chart(64), integral)
    assert asked == list(LADDER.scales[:levels])
    assert r.convergence == list(zip(LADDER.scales, map(complex, values)))[:levels]
    assert r.converged is converged
    assert r.value == values[levels - 1]
    assert r.rounded == round(values[levels - 1])


def test_from_ladder_skips_a_scale_on_the_previous_grid():
    # A budget of 4 takes 2 nodes at both 0.25 and 0.5.  A map that reads
    # the same on every grid would agree with itself there on a step of 0.
    asked = []

    def integral(dom):
        asked.append(dom.scale)
        return 1.0 + 0j

    r = DegreeResult.from_ladder(Ladder((0.25, 0.5, 1.0, 2.0), 1e-6), Chart(4), integral)
    assert asked == [0.25, 1.0]
    assert r.convergence == [(0.25, 1.0), (1.0, 1.0)]
    assert r.converged
