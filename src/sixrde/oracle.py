"""Ground-truth engine: direct exact iteration of the order-six recurrence.

The map is

    x_(n+1) = x_(n-5) * x_(n-3) / ( x_(n-1) * (a_n + b_n * x_(n-5) * x_(n-3)) )

for n >= 0, driven by six nonzero seeds x_(-5) .. x_0.  In forward indexing
u_i = x_(i-5) the same map reads

    u_(n+6) = u_n * u_(n+2) / ( u_(n+4) * (a_n + b_n * u_n * u_(n+2)) ).

Each step evaluates that literal map, with no V and no closed form, in the
order x_(n+1) = [p / (a_n + b_n p)] / x_(n-1), where p = x_(n-5) x_(n-3).
The factor is the single integer F = a_num b_den Q + b_num a_den P for
p = P/Q, which is zero exactly when a_n + b_n p is.  The quotient
q_n = P a_den b_den / F is small, and the one full-height operation per
term is its division by x_(n-1).  That division cross-cancels with
small-by-big gcds; building the full-height result as `Fraction(num, den)`
instead would run a full-height gcd per term (ROADMAP, "Measured and
rejected").  q_n equals x_(n-1) x_(n+1), the p of step n + 4, so p rides
in four slots of reduced pairs: slot j starts as the seed product
x_(j-5) x_(j-3) (numerators cross-cancelled against denominators), and step
n reads slot n mod 4 and refills it with q_n, one path for every step.  As a
number q_(n-4) is 1/V_n, but it comes from the map alone: the oracle names
no V and reads no V table.

A vanishing denominator factor is a legitimate query result, not a failure:
the orbit is truncated and carries a `SingularityReport`.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from math import gcd

from .core import (
    CoefficientSequence,
    IndexBelowSeed,
    InitialConditions,
    OutOfRange,
    TooShort,
    _Record,
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


class SingularityReport(_Record):
    """Step n at which x_(n+1) could not be formed, and why."""

    __slots__ = ("step", "cause")


class Orbit(_Record):
    """Computed trajectory x_(-5) .. x_N (equivalently u_0 .. u_(N+5)).

    If `halt` is set, the terms stop just before the unformable one.  All
    stored terms are nonzero and satisfy the recurrence exactly.
    """

    __slots__ = ("terms", "halt")

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


def iterate(
    ic: InitialConditions, coeffs: CoefficientSequence, count: int
) -> Orbit:
    """Iterate the recurrence for up to `count` steps.

    Returns the orbit x_(-5) .. x_count; producing x_(n+1) consumes
    (a_n, b_n).  On a zero denominator the orbit is truncated and `halt`
    records the step and cause.

    Each term is the literal map with no V, evaluated as
    q_n / x_(n-1) with q_n = p / (a_n + b_n p): one full-height `Fraction`
    division.  p is read from slot n mod 4, which holds a seed product
    until step n - 4 refills it with q_(n-4) (module docstring).
    """
    if count < 0:
        raise ValueError(f"step count must be >= 0, got {count}")
    terms = list(ic.values)
    # slots[n % 4] is step n's p = x_(n-5) x_(n-3) as a reduced pair (P, Q)
    slots = [_product(terms[j], terms[j + 2]) for j in range(4)]
    halt = None
    for n in range(count):
        P, Q = slots[n % 4]
        a, b = coeffs.pair_at(n)
        a_num, a_den = a.numerator, a.denominator
        b_num, b_den = b.numerator, b.denominator
        F = a_num * b_den * Q + b_num * a_den * P
        if F == 0:
            halt = SingularityReport(n, SingularityCause.ZERO_DENOMINATOR_FACTOR)
            break
        q = Fraction(P * a_den * b_den, F)  # x_(n-1) x_(n+1), step n + 4's p
        slots[n % 4] = q.as_integer_ratio()
        terms.append(q / terms[n + 4])
    return Orbit(tuple(terms), halt)


def _product(u: Fraction, v: Fraction) -> tuple[int, int]:
    """u * v as a reduced pair (P, Q) with Q > 0, cross-cancelled the way
    `Fraction.__mul__` does it: gcd(u_num, v_den) and gcd(v_num, u_den)."""
    u_num, u_den = u.numerator, u.denominator
    v_num, v_den = v.numerator, v.denominator
    g = gcd(u_num, v_den)
    h = gcd(v_num, u_den)
    return (u_num // g) * (v_num // h), (u_den // h) * (v_den // g)


class InvariantSequence(_Record):
    """Values V_n = 1 / (u_n * u_(n+2)) along an orbit."""

    __slots__ = ("values",)

    def __len__(self) -> int:
        return len(self.values)

    def __getitem__(self, n: int) -> Fraction:
        return self.values[n]


def invariant_sequence(orbit: Orbit) -> InvariantSequence:
    """Compute V_n = 1/(u_n * u_(n+2)) for every n the orbit supports."""
    terms = orbit.terms
    if len(terms) < 3:
        raise TooShort("invariant sequence needs at least three orbit terms")
    return InvariantSequence(tuple(
        Fraction(Q, P) for P, Q in map(_product, terms, terms[2:])
    ))


def check_invariant_recurrence(
    v: InvariantSequence, coeffs: CoefficientSequence
) -> list[Fraction]:
    """Residuals r_n = V_(n+4) - (a_n * V_n + b_n) for every applicable n.

    The invariant of the recurrence satisfies V_(n+4) = a_n * V_n + b_n
    exactly (plus sign, V_n = 1/(u_n u_(n+2))), so on any orbit produced by
    `iterate` every residual is exactly zero.  Each residual is one rational
    normalisation of integers over one common denominator, with no
    `Fraction` product, sum or difference: a_n V_n + b_n is the integer pair
    N/D = (a_num b_den V_num + b_num a_den V_den) / (a_den b_den V_den), and
    r_n = Fraction(W_num D - W_den N, W_den D) for V_(n+4) = W_num/W_den.
    """
    if len(v) < 5:
        raise TooShort("invariant recurrence check needs at least five values")
    residuals = []
    values = v.values
    for n in range(len(values) - 4):
        a, b = coeffs.pair_at(n)
        v0, v4 = values[n], values[n + 4]
        a_den, b_den, v0_den = a.denominator, b.denominator, v0.denominator
        num = a.numerator * b_den * v0.numerator + b.numerator * a_den * v0_den
        den = a_den * b_den * v0_den
        residuals.append(Fraction(v4.numerator * den - v4.denominator * num,
                                  v4.denominator * den))
    return residuals
