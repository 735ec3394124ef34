"""Ground-truth engine: direct exact iteration of the order-six recurrence.

The map is

    x_(n+1) = x_(n-5) * x_(n-3) / ( x_(n-1) * (a_n + b_n * x_(n-5) * x_(n-3)) )

for n >= 0, driven by six nonzero seeds x_(-5) .. x_0.  In forward indexing
u_i = x_(i-5) the same map reads

    u_(n+6) = u_n * u_(n+2) / ( u_(n+4) * (a_n + b_n * u_n * u_(n+2)) ).

Each step evaluates that literal map, with no V and no closed form, in the
order x_(n+1) = [p / (a_n + b_n p)] / x_(n-1), where p = x_(n-5) x_(n-3),
on integer parts.  The factor is the single integer F = A Q + B P for
p = P/Q, with (A, B, D) = (a_num b_den, b_num a_den, a_den b_den) the
coefficients' step-table row; F is zero exactly when a_n + b_n p is.  The
quotient q_n = D P / F is small, and the one full-height operation per term
is its division by x_(n-1), cross-cancelled as `Fraction` divides (skipping
a gcd of 1): g1 = gcd(q_num, x_num), g2 = gcd(q_den, x_den).
q_n equals x_(n-1) x_(n+1), the p of step n + 4, so p rides in four slots
of reduced pairs: slot j starts as the seed product x_(j-5) x_(j-3)
(numerators cross-cancelled against denominators), and step n reads slot
n mod 4 and refills it with q_n, one path for every step.  As a number
q_(n-4) is 1/V_n, but it comes from the map alone: the oracle names no V
and reads no V table.  The division makes
|num_(n+1)| = den_(n-1) (|q_num|/g1)/g2 and den_(n+1) = |num_(n-1)| (q_den/g2)/g1,
so two steps give each part's small ratio to the same part of x_(n-3): the
hint `core._rendered` carries that part's digits by.

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
    OutOfHorizon,
    OutOfRange,
    TooShort,
    _Record,
    _reduced,
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

    Each term is the literal map with no V, as `_terms` evaluates it.
    """
    if count < 0:
        raise ValueError(f"step count must be >= 0, got {count}")
    terms = tuple(_reduced(num, den) for num, den, _ in _terms(ic, coeffs, count))
    halt = None
    if len(terms) < count + 6:  # only a zero factor stops `_terms` early
        halt = SingularityReport(len(terms) - 6, SingularityCause.ZERO_DENOMINATOR_FACTOR)
    return Orbit(terms, halt)


def _terms(ic: InitialConditions, coeffs: CoefficientSequence, count: int):
    """Yield x_(-5), x_(-4), ... x_count as (num, den, hint), reduced with
    den > 0, stopping after x_n if step n meets a zero factor, and raising
    `OutOfHorizon` at a step past an explicit list.  Step n reads its row of
    the step table, p from slot n mod 4 (module docstring) and x_(n-1) from
    `last[n % 2]`, with the cofactors (|q_num|/g1, g2, q_den/g2, g1) of the
    step that made it.  From step 2 on, `hint` is ((up, down), (up, down)):
    |num| and den over the same parts of x_(n-3), unreduced; before it, None.
    """
    seeds = ic.values
    # slots[n % 4] is step n's p = x_(n-5) x_(n-3) as a reduced pair (P, Q)
    slots = [_product(seeds[j], seeds[j + 2]) for j in range(4)]
    for value in seeds:
        yield value.numerator, value.denominator, None
    last = [(*value.as_integer_ratio(), None) for value in seeds[4:]]
    rows, horizon = coeffs._step_table()
    period, stop = len(rows), min(count, horizon)
    for n in range(stop):
        P, Q = slots[n % 4]
        A, B, D = rows[n % period]
        F = A * Q + B * P
        if F == 0:
            return
        # q = x_(n-1) x_(n+1), step n + 4's p, reduced as `Fraction` does
        N = D * P
        g = gcd(N, F) if F > 0 else -gcd(N, F)
        q_num, q_den = N // g, F // g
        slots[n % 4] = q_num, q_den
        x_num, x_den, before = last[n % 2]
        g1, g2 = gcd(q_num, x_num), gcd(q_den, x_den)
        if g1 > 1:  # as `Fraction.__truediv__`: no full-height division by 1
            q_num, x_num = q_num // g1, x_num // g1
        if g2 > 1:
            q_den, x_den = q_den // g2, x_den // g2
        num, den = q_num * x_den, q_den * x_num
        if den < 0:
            num, den = -num, -den
        kept = abs(q_num), g2, q_den, g1
        hint = before and ((kept[0] * before[2], kept[1] * before[3]),
                           (kept[2] * before[0], kept[3] * before[1]))
        last[n % 2] = num, den, kept
        yield num, den, hint
    if stop < count:
        raise OutOfHorizon(stop, horizon)


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
        _reduced(Q, P) if P > 0 else _reduced(-Q, -P)
        for P, Q in map(_product, terms, terms[2:])
    ))


def check_invariant_recurrence(
    v: InvariantSequence, coeffs: CoefficientSequence
) -> list[Fraction]:
    """Residuals r_n = V_(n+4) - (a_n * V_n + b_n) for every applicable n.

    The invariant of the recurrence satisfies V_(n+4) = a_n * V_n + b_n
    exactly (plus sign, V_n = 1/(u_n u_(n+2))), so on any orbit produced by
    `iterate` every residual is exactly zero.  Each residual is formed on
    integers over one common denominator, with no `Fraction` product, sum
    or difference: a_n V_n + b_n is the integer pair
    N/D = (a_num b_den V_num + b_num a_den V_den) / (a_den b_den V_den), and
    r_n = (W_num D - W_den N) / (W_den D) for V_(n+4) = W_num/W_den.  A zero
    numerator gives one shared `Fraction(0)`, with no gcd; any other is
    normalised once, as `Fraction(num, den)`.  Each distinct coefficient's
    integer ratio is read once per call, from `a_values()`/`b_values()`.
    """
    if len(v) < 5:
        raise TooShort("invariant recurrence check needs at least five values")
    zero, residuals = Fraction(0), []
    parts = [value.as_integer_ratio() for value in v.values]
    count, index = len(parts) - 4, coeffs._index
    # Entry i of these is coefficient i's ratio, for every i that n < count reads.
    a_parts = [a.as_integer_ratio() for a in coeffs.a_values()[:count]]
    b_parts = [b.as_integer_ratio() for b in coeffs.b_values()[:count]]
    for n in range(count):
        i = index(n)  # past an explicit list: OutOfHorizon at this n
        (a_num, a_den), (b_num, b_den) = a_parts[i], b_parts[i]
        (v_num, v_den), (w_num, w_den) = parts[n], parts[n + 4]
        num = a_num * b_den * v_num + b_num * a_den * v_den
        den = a_den * b_den * v_den
        r = w_num * den - w_den * num
        residuals.append(Fraction(r, w_den * den) if r else zero)
    return residuals
