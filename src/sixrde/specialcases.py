"""Dedicated closed forms for constant, 2-periodic, and 4-periodic coefficients.

With the seeds u_0..u_5 = x_(-5)..x_0 (written c, d, e, f, g, h in the
examples below), every case, a = -1 included, is one product over
per-class coefficients (a_r, b_r), r = 0..3:

    x_(4n-5+j) = u_j * (u_top/u_bottom)^n
                 * prod( F_j(s) / F_(j+2 mod 4)(s + j//2), s < n ),

    F_r(t) = a_r^t + k_r*(1 - a_r^t)/(1 - a_r) = C_r + D_r*a_r^t

with k_r = b_r*u_r*u_(r+2), C_r = k_r/(1 - a_r), D_r = 1 - C_r (1 + k_r*t
when a_r = 1), where (top, bottom) is (4, 0), (5, 1), (0, 4), (1, 5) for
j = 0, 1, 2, 3.  Since u_top of class (j+2) mod 4 is u_bottom of class j,
this is the shared telescoping product `core._Telescope` over the factor
column f(r, t) = u_top*F_r(t); that class states the block memo, the check
order and the per-thread slot rule (this engine keeps its own slot, keyed
on (ic, a_r, b_r)).  With C, D and a running D*a_r^t, each F costs one add
and one multiply by a_r (F is never stepped by its affine recurrence, so
the engine stays independent of the closed form's V table), and a block
one multiply of the full-height x by the small factor ratio.  Every case
takes the `CoefficientSequence` the other engines take and tiles it to
four classes: constant (a, b) becomes a_r = a, b_r = b; 2-periodic
(a_0, a_1) becomes (a_0, a_1, a_0, a_1); a 4-periodic sequence is used as
given; any other raises `WrongCase`.  The factors are evaluated here rather
than read from the general closed form, so the test suite can cross-check
the two against each other and against direct iteration.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction

from .core import (
    CoefficientSequence,
    InitialConditions,
    RationalLike,
    WrongCase,
    _last_solved,
    _Telescope,
    as_rational,
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
# The factor columns
# ---------------------------------------------------------------------------

#: Per class r: the seed index `top` of its factor u_top*F_r(t).
_TOP = (4, 5, 0, 1)


def _line(a: Fraction, k: Fraction, seed: Fraction) -> tuple:
    """seed*(C, D, E(0)) for F(t) = C + E(t), E(t) = D*a^t, C = k/(1 - a),
    D = 1 - C, or E(t) = D*t, C = 1, D = k when a = 1."""
    c, d = (1, k) if a == 1 else (k / (1 - a), 1 - k / (1 - a))
    return seed * c, seed * d, 0 if a == 1 else seed * d


class _Factors:
    """u_top*F_r(t) per class r at every t formed so far; called as (r, t),
    the telescope's factor column."""

    def __init__(self, ic: InitialConditions, a: tuple, b: tuple):
        self._a = a
        self._columns = [[] for _ in range(4)]
        self._lines = [_line(a[r], b[r] * ic.seed_product(r), ic.values[top])
                       for r, top in enumerate(_TOP)]

    def __call__(self, r: int, t: int) -> Fraction:
        """u_top*F_r(t) = C + E(t), extending class r's column."""
        column, (c, d, e), a = self._columns[r], self._lines[r], self._a[r]
        while len(column) <= t:
            column.append(c + e)
            e = e + d if a == 1 else e * a
        self._lines[r] = (c, d, e)
        return column[t]


def _solved(ic: InitialConditions, a: tuple, b: tuple) -> _Telescope:
    """This engine's slot on the calling thread, for (ic, a_r, b_r)."""
    return _last_solved("specialcases", (ic, a, b),
                        lambda: _Telescope(ic.values, _Factors(ic, a, b)))


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
    return _solved(ic, *_classes(cc)).x(m)


def term_const_a1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    """x_m for constant coefficients a = 1, b, e.g.

        x_(4n-3) = c^n * e / g^n * prod((1 + b*e*g*s)/(1 + b*c*e*(s+1)), s < n).
    """
    return _solved(ic, (Fraction(1),) * 4, (as_rational(b),) * 4).x(m)


def term_const_a_neg1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    """x_m for constant coefficients a = -1, b, where F_r(t) alternates
    between 1 and b*u_r*u_(r+2) - 1, e.g.

        x_(4n-5) = c^(1-n) * g^n * ((-1 + b*c*e)/(-1 + b*e*g))^floor(n/2).
    """
    return _solved(ic, (Fraction(-1),) * 4, (as_rational(b),) * 4).x(m)


def term_periodic2(m: int, ic: InitialConditions, pc: CoefficientSequence) -> Fraction:
    """x_m for 2-periodic coefficients: classes x_(4n-5), x_(4n-3) only ever
    consume (a_0, b_0) and classes x_(4n-4), x_(4n-2) only (a_1, b_1)."""
    return _solved(ic, *_classes(pc)).x(m)


def term_periodic4(m: int, ic: InitialConditions, pc: CoefficientSequence) -> Fraction:
    """x_m for 4-periodic coefficients: each residue class pairs its own
    coefficient index with the one two steps later."""
    return _solved(ic, *_classes(pc)).x(m)


def terms(
    lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> Iterator[Fraction]:
    """x_lo..x_hi by the shared product over the special case covering
    `coeffs` (`--engine auto`).  Raises `WrongCase` at once for a sequence
    no case covers, and at the first singular index what the matching
    `term_*` raises there.  The iterator extends the calling thread's slot;
    consume it there."""
    telescope = _solved(ic, *_classes(coeffs))
    return (telescope.x(m) for m in range(lo, hi + 1))
