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
(`terms_periodic4`) carries each class's product forward, one factor per
term after the first of its class.  The public functions
tile their coefficients to four classes: constant (a, b) becomes
a_r = a, b_r = b; 2-periodic (a_0, a_1) becomes (a_0, a_1, a_0, a_1); a
4-periodic sequence is used as given.  The product is evaluated here
rather than through the general closed form, so the test suite can
cross-check the two against each other and against direct iteration.

For a = -1 the four per-class formulas collapse to a ratio raised to a
parity-counting exponent.  The shipped exponents are floor(n/2) for the
x_(4n-5) and x_(4n-4) families and floor(n/2)/ceil(n/2) for the numerator/
denominator of the x_(4n-3) and x_(4n-2) families; these are the assignments
that match direct iteration on all four residue classes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
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
    "terms_periodic4",
]


@dataclass(frozen=True)
class ConstantCoeffs:
    """Constant coefficient pair (a, b).

    The classical setting takes both nonzero; that is deliberately not
    enforced here (b = 0 is a useful telescoping sanity case).
    """

    a: Fraction
    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", as_rational(self.a))
        object.__setattr__(self, "b", as_rational(self.b))

    def as_sequence(self) -> CoefficientSequence:
        return CoefficientSequence.constant(self.a, self.b)


@dataclass(frozen=True)
class PeriodicCoeffs2:
    """2-periodic coefficients (a_0, a_1), (b_0, b_1).

    The classical hypotheses a_0 != a_1 and b_0 != b_1 are recorded but not
    enforced; the formulas stay valid when they coincide.
    """

    a: tuple[Fraction, Fraction]
    b: tuple[Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "a", _as_tuple(self.a, 2))
        object.__setattr__(self, "b", _as_tuple(self.b, 2))

    def as_sequence(self) -> CoefficientSequence:
        return CoefficientSequence.periodic(self.a, self.b)


@dataclass(frozen=True)
class PeriodicCoeffs4:
    """4-periodic coefficients (a_0..a_3), (b_0..b_3)."""

    a: tuple[Fraction, Fraction, Fraction, Fraction]
    b: tuple[Fraction, Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "a", _as_tuple(self.a, 4))
        object.__setattr__(self, "b", _as_tuple(self.b, 4))

    def as_sequence(self) -> CoefficientSequence:
        return CoefficientSequence.periodic(self.a, self.b)


def _as_tuple(values, size: int) -> tuple[Fraction, ...]:
    vals = tuple(as_rational(v) for v in values)
    if len(vals) != size:
        raise ValueError(f"expected {size} values, got {len(vals)}")
    return vals


# ---------------------------------------------------------------------------
# The shared product
# ---------------------------------------------------------------------------

#: (top, bottom) seed indices of the prefix u_j * (u_top/u_bottom)^n.
_TOP_BOTTOM = ((4, 0), (5, 1), (0, 4), (1, 5))


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
    state = [(u[j], 0, Fraction(1), a[(j + 2) % 4] ** (j // 2)) for j in range(4)]
    for m in range(lo, hi + 1):
        ti = decompose_index(m)
        j, n = ti.j, ti.n
        q, shift = (j + 2) % 4, j // 2
        value, done, num_power, den_power = state[j]
        top, bottom = _TOP_BOTTOM[j]
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
    m: int, ic: InitialConditions, cc: ConstantCoeffs
) -> Fraction:
    """x_m for constant (a, b) with a != 1, e.g.

        x_(4n-5) = g^n / c^(n-1)
                   * prod( (a^s + b*c*e*(1-a^s)/(1-a))
                         / (a^s + b*e*g*(1-a^s)/(1-a)), s < n ).
    """
    if cc.a == 1:
        raise WrongCase("constant-coefficient general form requires a != 1")
    return next(_terms(m, m, ic, (cc.a,) * 4, (cc.b,) * 4))


def term_const_a1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    """x_m for constant coefficients a = 1, b, e.g.

        x_(4n-3) = c^n * e / g^n * prod((1 + b*e*g*s)/(1 + b*c*e*(s+1)), s < n).
    """
    return next(_terms(m, m, ic, (Fraction(1),) * 4, (as_rational(b),) * 4))


def term_periodic2(m: int, ic: InitialConditions, pc: PeriodicCoeffs2) -> Fraction:
    """x_m for 2-periodic coefficients: classes x_(4n-5), x_(4n-3) only ever
    consume (a_0, b_0) and classes x_(4n-4), x_(4n-2) only (a_1, b_1)."""
    return next(_terms(m, m, ic, pc.a * 2, pc.b * 2))


def term_periodic4(m: int, ic: InitialConditions, pc: PeriodicCoeffs4) -> Fraction:
    """x_m for 4-periodic coefficients: each residue class pairs its own
    coefficient index with the one two steps later."""
    return next(terms_periodic4(m, m, ic, pc))


def terms_periodic4(
    lo: int, hi: int, ic: InitialConditions, pc: PeriodicCoeffs4
) -> Iterator[Fraction]:
    """x_lo..x_hi for 4-periodic coefficients in one pass; raises at the
    first singular index what `term_periodic4` raises there."""
    return _terms(lo, hi, ic, pc.a, pc.b)


# ---------------------------------------------------------------------------
# Constant coefficients, a = -1: parity powers
# ---------------------------------------------------------------------------

def _ratio_power(
    numerator_base: Fraction,
    denominator_base: Fraction,
    num_count: int,
    den_count: int,
    num_v_index: int,
    den_v_index: int,
) -> Fraction:
    """numerator_base^num_count / denominator_base^den_count, guarded."""
    if den_count > 0 and denominator_base == 0:
        raise SingularClosedForm(den_v_index)
    if num_count > 0 and numerator_base == 0:
        raise SingularClosedForm(num_v_index)
    return numerator_base**num_count / denominator_base**den_count


def term_const_a_neg1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    """x_m for constant coefficients a = -1, b.

    Only factors at odd blocks differ from 1, so each class reduces to a
    single ratio power, e.g.

        x_(4n-5) = c^(1-n) * g^n * ((-1 + b*c*e)/(-1 + b*e*g))^floor(n/2)
        x_(4n-3) = c^n * e / g^n * (-1 + b*e*g)^floor(n/2)
                                 / (-1 + b*c*e)^ceil(n/2).

    Valid whenever b * x_(-5+j) * x_(-3+j) != 1 for the classes the power
    actually uses.
    """
    b = as_rational(b)
    ti = decompose_index(m)
    j, n = ti.j, ti.n
    if n == 0:
        return ic.u(j)
    c, d, e, f, g, h = ic.values
    half = n // 2
    half_up = (n + 1) // 2
    # First vanishing V per base: class 0 (-1+bce) -> V_4, class 1 (-1+bdf)
    # -> V_5, class 2 (-1+beg) -> V_6, class 3 (-1+bfh) -> V_7.
    if j == 0:
        ratio = _ratio_power(-1 + b * c * e, -1 + b * e * g, half, half, 4, 6)
        return c ** (1 - n) * g**n * ratio
    if j == 1:
        ratio = _ratio_power(-1 + b * d * f, -1 + b * f * h, half, half, 5, 7)
        return d ** (1 - n) * h**n * ratio
    if j == 2:
        ratio = _ratio_power(-1 + b * e * g, -1 + b * c * e, half, half_up, 6, 4)
        return c**n * e / g**n * ratio
    ratio = _ratio_power(-1 + b * f * h, -1 + b * d * f, half, half_up, 7, 5)
    return d**n * f / h**n * ratio
