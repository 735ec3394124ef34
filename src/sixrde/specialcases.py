"""Dedicated closed forms for constant, 2-periodic, and 4-periodic coefficients.

With the seeds u_0..u_5 = x_(-5)..x_0 (written c, d, e, f, g, h in the
examples below), every case except a = -1 is one product over per-class
coefficients (a_r, b_r), r = 0..3:

    x_(4n-5+j) = u_j * (u_top/u_bottom)^n
                 * prod( F_j(s) / F_(j+2 mod 4)(s + j//2), s < n ),

    F_r(t) = a_r^t + b_r*u_r*u_(r+2) * (1 - a_r^t)/(1 - a_r)

(the geometric sum is t when a_r = 1), where (top, bottom) is (4, 0),
(5, 1), (0, 4), (1, 5) for j = 0, 1, 2, 3.  The sum is closed and a_r^t is
a running power, so x_m costs O(m) multiplications; a range x_lo..x_hi
(`terms`) carries each class's product forward, one factor per term after
the first of its class.  Every case takes the `CoefficientSequence` the
other engines take and tiles it to four classes: constant (a, b) becomes
a_r = a, b_r = b; 2-periodic (a_0, a_1) becomes (a_0, a_1, a_0, a_1); a
4-periodic sequence is used as given; any other raises `WrongCase`.  The
product is evaluated here rather than through the general closed form, so
the test suite can cross-check the two against each other and against
direct iteration.

For a = -1, F_r(t) is 1 at even t and b*u_r*u_(r+2) - 1 at odd t, so the
product collapses to one ratio power: x_(4n-5+j) is the same prefix times
num^floor(n/2) / den^floor((n + j//2)/2), with num = b*u_j*u_(j+2) - 1 and
den = b*u_q*u_(q+2) - 1 for q = (j+2) mod 4.  num vanishes exactly when
V_(4+j) does and den exactly when V_(4+q) does.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .core import (
    CoefficientSequence,
    InitialConditions,
    RationalLike,
    SingularClosedForm,
    WrongCase,
    as_rational,
    decompose_index,
)

__all__ = [
    "ConstantCoeffs",
    "PeriodicCoeffs2",
    "PeriodicCoeffs4",
    "term_const_general",
    "term_const_a_neg1",
    "term_const_a1",
    "term_periodic2",
    "term_periodic4",
    "terms",
]


#: Special-case constructor names; each builds a `CoefficientSequence`.
ConstantCoeffs = CoefficientSequence.constant
PeriodicCoeffs2 = PeriodicCoeffs4 = CoefficientSequence.periodic


def _classes(coeffs: CoefficientSequence) -> tuple[tuple, tuple]:
    """Per-class (a_r), (b_r), r = 0..3, tiled from a constant or 1-, 2- or
    4-periodic sequence; `WrongCase` for any other sequence."""
    if coeffs.kind not in ("constant", "periodic"):
        got = f"kind {coeffs.kind!r}"
    elif 4 % coeffs.period:
        got = f"period {coeffs.period}"
    else:
        tile = 4 // coeffs.period
        return coeffs.a_values() * tile, coeffs.b_values() * tile
    raise WrongCase(
        f"special cases need constant or 1-, 2- or 4-periodic coefficients, got {got}"
    )


# ---------------------------------------------------------------------------
# The shared product
# ---------------------------------------------------------------------------

#: Per class j: (top, bottom) seed indices of the prefix u_j * (u_top/u_bottom)^n,
#: the paired class q = (j+2) mod 4 and the shift j//2 of its factor index.
_CLASSES = ((4, 0, 2, 0), (5, 1, 3, 0), (0, 4, 0, 1), (1, 5, 1, 1))


def _factor(a: Fraction, k: Fraction, power: Fraction, t: int) -> Fraction:
    """F(t) = a^t + k*(1 - a^t)/(1 - a), or a^t + k*t when a = 1; power = a^t."""
    return power + k * (t if a == 1 else (1 - power) / (1 - a))


def _terms(
    lo: int,
    hi: int,
    ic: InitialConditions,
    a: tuple[Fraction, ...],
    b: tuple[Fraction, ...],
) -> Iterator[Fraction]:
    """x_lo..x_hi from four per-class coefficient pairs (a_r, b_r), r = 0..3.

    Each class keeps its running value, factor count s and the two running
    powers, so after the first term of a class every further one costs one
    factor ratio.
    """
    u = ic.values
    # Per class: (x at block done, done, a_j^done, a_q^(done + shift)).
    state = [(u[j], 0, Fraction(1), a[q] ** shift)
             for j, (_, _, q, shift) in enumerate(_CLASSES)]
    for m in range(lo, hi + 1):
        ti = decompose_index(m)
        j, n = ti.j, ti.n
        top, bottom, q, shift = _CLASSES[j]
        value, done, num_power, den_power = state[j]
        num_k, den_k = b[j] * ic.seed_product(j), b[q] * ic.seed_product(q)
        for s in range(done, n):
            den = _factor(a[q], den_k, den_power, s + shift)
            if den == 0:
                raise SingularClosedForm(4 * s + j + 2)
            num = _factor(a[j], num_k, num_power, s)
            if num == 0:
                raise SingularClosedForm(4 * s + j)
            value *= u[top] * num / (u[bottom] * den)
            num_power *= a[j]
            den_power *= a[q]
        state[j] = (value, n, num_power, den_power)
        yield value


def term_const_general(
    m: int, ic: InitialConditions, cc: CoefficientSequence
) -> Fraction:
    """x_m for constant (a, b) with a != 1, e.g.

        x_(4n-5) = g^n / c^(n-1)
                   * prod( (a^s + b*c*e*(1-a^s)/(1-a))
                         / (a^s + b*e*g*(1-a^s)/(1-a)), s < n ).
    """
    if cc.kind != "constant" or cc.a_values() == (1,):
        raise WrongCase("constant-coefficient general form requires constant a != 1")
    return next(_terms(m, m, ic, *_classes(cc)))


def term_const_a1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    """x_m for constant coefficients a = 1, b, e.g.

        x_(4n-3) = c^n * e / g^n * prod((1 + b*e*g*s)/(1 + b*c*e*(s+1)), s < n).
    """
    return next(_terms(m, m, ic, (Fraction(1),) * 4, (as_rational(b),) * 4))


def term_periodic2(m: int, ic: InitialConditions, pc: CoefficientSequence) -> Fraction:
    """x_m for 2-periodic coefficients: classes x_(4n-5), x_(4n-3) only ever
    consume (a_0, b_0) and classes x_(4n-4), x_(4n-2) only (a_1, b_1)."""
    return next(_terms(m, m, ic, *_classes(pc)))


def term_periodic4(m: int, ic: InitialConditions, pc: CoefficientSequence) -> Fraction:
    """x_m for 4-periodic coefficients: each residue class pairs its own
    coefficient index with the one two steps later."""
    return next(_terms(m, m, ic, *_classes(pc)))


def terms(
    lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> Iterator[Fraction]:
    """x_lo..x_hi by the special case covering `coeffs` (`--engine auto`):
    the parity formula for a = -1 (constant or period 1), else the shared
    product.  Raises `WrongCase` at once for a sequence no case covers, and
    at the first singular index what the matching `term_*` raises there."""
    a, b = _classes(coeffs)
    if coeffs.a_values() == (-1,):
        return (term_const_a_neg1(m, ic, b[0]) for m in range(lo, hi + 1))
    return _terms(lo, hi, ic, a, b)


# ---------------------------------------------------------------------------
# Constant coefficients, a = -1: parity powers
# ---------------------------------------------------------------------------

def term_const_a_neg1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    """x_m for constant coefficients a = -1, b: the shared prefix times one
    ratio power, e.g.

        x_(4n-5) = c^(1-n) * g^n * ((-1 + b*c*e)/(-1 + b*e*g))^floor(n/2)
        x_(4n-3) = c^n * e / g^n * (-1 + b*e*g)^floor(n/2)
                                 / (-1 + b*c*e)^ceil(n/2).

    Raises `SingularClosedForm` when a base the power uses vanishes, the
    denominator's first.
    """
    b = as_rational(b)
    ti = decompose_index(m)
    j, n = ti.j, ti.n
    top, bottom, q, shift = _CLASSES[j]
    num, den = b * ic.seed_product(j) - 1, b * ic.seed_product(q) - 1
    num_count, den_count = n // 2, (n + shift) // 2
    if den_count > 0 and den == 0:
        raise SingularClosedForm(4 + q)
    if num_count > 0 and num == 0:
        raise SingularClosedForm(4 + j)
    u = ic.values
    return u[j] * (u[top] / u[bottom]) ** n * num**num_count / den**den_count
