"""Ground-truth engine: direct exact iteration of the order-six recurrence.

The map is

    x_(n+1) = x_(n-5) * x_(n-3) / ( x_(n-1) * (a_n + b_n * x_(n-5) * x_(n-3)) )

for n >= 0, driven by six nonzero seeds x_(-5) .. x_0.  In forward indexing
u_i = x_(i-5) the same map reads

    u_(n+6) = u_n * u_(n+2) / ( u_(n+4) * (a_n + b_n * u_n * u_(n+2)) ).

A vanishing denominator factor is a legitimate query result, not a failure:
the orbit is truncated and carries a `SingularityReport`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CoefficientSequence,
    IndexBelowSeed,
    InitialConditions,
    OutOfRange,
    TooShort,
)

__all__ = [
    "SingularityCause",
    "SingularityReport",
    "Orbit",
    "InvariantSequence",
    "iterate",
    "invariant_sequence",
    "check_invariant_recurrence",
]


class SingularityCause(enum.Enum):
    # The only cause: seeds are nonzero and every new term is a quotient of
    # nonzero values, so x_(n-1) never vanishes.
    ZERO_DENOMINATOR_FACTOR = "ZeroDenominatorFactor"


@dataclass(frozen=True)
class SingularityReport:
    """Step n at which x_(n+1) could not be formed, and why."""

    step: int
    cause: SingularityCause


@dataclass(frozen=True)
class Orbit:
    """Computed trajectory x_(-5) .. x_N (equivalently u_0 .. u_(N+5)).

    If `halt` is set, the terms stop just before the unformable one.  All
    stored terms are nonzero and satisfy the recurrence exactly.
    """

    terms: tuple[Fraction, ...]
    halt: "SingularityReport | None" = None

    def __len__(self) -> int:
        return len(self.terms)

    @property
    def last_m(self) -> int:
        """x-index of the last stored term."""
        return len(self.terms) - 6

    def x(self, m: int) -> Fraction:
        if m < -5:
            raise IndexBelowSeed(m)
        if m > self.last_m:
            raise OutOfRange("orbit term x", m)
        return self.terms[m + 5]

    def u(self, i: int) -> Fraction:
        """Term by forward index, u_i = x_(i-5)."""
        if not 0 <= i < len(self.terms):
            raise OutOfRange("orbit term u", i)
        return self.terms[i]


def iterate(
    ic: InitialConditions, coeffs: CoefficientSequence, count: int
) -> Orbit:
    """Iterate the recurrence for up to `count` steps.

    Returns the orbit x_(-5) .. x_count; producing x_(n+1) consumes
    (a_n, b_n).  On a zero denominator the orbit is truncated and `halt`
    records the step and cause.
    """
    if count < 0:
        raise ValueError(f"step count must be >= 0, got {count}")
    terms = list(ic.values)
    halt = None
    for n in range(count):
        p = terms[n] * terms[n + 2]
        a, b = coeffs.pair_at(n)
        factor = a + b * p
        if factor == 0:
            halt = SingularityReport(n, SingularityCause.ZERO_DENOMINATOR_FACTOR)
            break
        terms.append(p / (terms[n + 4] * factor))
    return Orbit(tuple(terms), halt)


@dataclass(frozen=True)
class InvariantSequence:
    """Values V_n = 1 / (u_n * u_(n+2)) along an orbit."""

    values: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def invariant_sequence(orbit: Orbit) -> InvariantSequence:
    """Compute V_n = 1/(u_n * u_(n+2)) for every n the orbit supports."""
    terms = orbit.terms
    if len(terms) < 3:
        raise TooShort("invariant sequence needs at least three orbit terms")
    return InvariantSequence(
        tuple(1 / (terms[n] * terms[n + 2]) for n in range(len(terms) - 2))
    )


def check_invariant_recurrence(
    v: InvariantSequence, coeffs: CoefficientSequence
) -> list[Fraction]:
    """Residuals r_n = V_(n+4) - (a_n * V_n + b_n) for every applicable n.

    The invariant of the recurrence satisfies V_(n+4) = a_n * V_n + b_n
    exactly (plus sign, V_n = 1/(u_n u_(n+2))), so on any orbit produced by
    `iterate` every residual is exactly zero.
    """
    if len(v) < 5:
        raise TooShort("invariant recurrence check needs at least five values")
    residuals = []
    for n in range(len(v) - 4):
        a, b = coeffs.pair_at(n)
        residuals.append(v[n + 4] - (a * v[n] + b))
    return residuals
