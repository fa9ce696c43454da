"""Structured results for degree-type computations."""

from __future__ import annotations

from dataclasses import dataclass, field

from .defaults import DEGREE_IMAG_TOL, DEGREE_RESIDUAL_TOL


@dataclass
class DegreeResult:
    """A normalized integral expected to quantize to an integer."""

    value: complex
    rounded: int
    residual: float
    convergence: list = field(default_factory=list)  # (resolution scale, value)
    converged: bool = True

    @classmethod
    def from_value(cls, value, convergence, converged):
        value = complex(value)
        rounded = int(round(value.real))
        return cls(
            value=value,
            rounded=rounded,
            residual=abs(value - rounded),
            convergence=list(convergence),
            converged=converged,
        )

    @classmethod
    def from_ladder(cls, ladder, domain, integral):
        """Climb ladder.scales with integral(domain.at_scale(s)) until a level converges.

        A level converges when it is within ladder.tol of the previous level
        and within DEGREE_RESIDUAL_TOL of an integer.  Without such a level the
        result is the last level's value with converged=False.  A scale whose
        grid has the previous level's shape is skipped, neither swept nor
        reported: a step of 0 between two sweeps of one grid is no evidence.
        """
        table, prev, shape = [], None, None
        for s in ladder.scales:
            dom = domain.at_scale(s)
            if dom.shape == shape:
                continue
            shape = dom.shape
            val = integral(dom)
            table.append((s, val))
            if prev is not None and abs(val - prev) < ladder.tol \
                    and abs(val - round(val.real)) < DEGREE_RESIDUAL_TOL:
                return cls.from_value(val, table, True)
            prev = val
        return cls.from_value(table[-1][1], table, False)

    @property
    def accepted(self) -> bool:
        imag_ok = abs(self.value.imag) < DEGREE_IMAG_TOL * (1.0 + abs(self.value))
        return self.converged and imag_ok and self.residual < DEGREE_RESIDUAL_TOL
