"""The resolution ladder's stopping rule (DegreeResult.from_ladder)."""

import pytest

from oddchern.defaults import Ladder
from oddchern.results import DegreeResult

LADDER = Ladder((0.5, 1.0, 2.0, 4.0), 1e-6)


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

    def value_at(scale):
        asked.append(scale)
        return complex(values[len(asked) - 1])

    r = DegreeResult.from_ladder(LADDER, value_at)
    assert asked == list(LADDER.scales[:levels])
    assert r.convergence == list(zip(LADDER.scales, map(complex, values)))[:levels]
    assert r.converged is converged
    assert r.value == values[levels - 1]
    assert r.rounded == round(values[levels - 1])
