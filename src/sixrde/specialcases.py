"""Dedicated closed forms for constant, 2-periodic, and 4-periodic coefficients.

With the seeds u_0..u_5 = x_(-5)..x_0 (written c, d, e, f, g, h in the
examples below), every case, a = -1 included, is the shared telescoping
product `core._Telescope` over one factor sequence:

    x_(4n-5+j) = u_j * prod( f(4s+j) / f(4s+j+2), s < n ),   j = 0..3,

    f(4t+r) = u_top*F_r(t),  F_r(t) = a_r^t + k_r*(1 - a_r^t)/(1 - a_r)
                                    = C_r + D_r*a_r^t

with (a_r, b_r) = (a_at(r), b_at(r)), k_r = b_r*u_r*u_(r+2),
C_r = k_r/(1 - a_r), D_r = 1 - C_r (1 + k_r*t when a_r = 1), and
top = 4, 5, 0, 1 for r = 0..3.  That class states the block memo, the check
order and the per-thread slot rule (this engine keeps its own slot, keyed
on (ic, coeffs)).  C and D are formed once per class, on the integer
parts of a_r, b_r, u_r, u_(r+2) and u_top over one positive common
denominator, with no `Fraction` operation; a^t is carried as the integer
pair (a_num^t, a_den^t), so each u_top*F is a reduced pair made with one
gcd of small integers (F is never stepped by its affine
recurrence, so the engine stays independent of the closed form's V
table), and a block multiplies each part of x by a small cofactor.  The
factors are evaluated here rather than read from the general closed form,
so the test suite can cross-check the two against each other and against
direct iteration.

The engine has the closed form's two entry points, `term(m, ic, coeffs)`
and `terms(lo, hi, ic, coeffs)`.  A constant or 1-, 2- or 4-periodic
`coeffs` is read per class as above, and any other raises `WrongCase`
when the slot for it would be built, so a warm query makes no case test.
The paper's cases, under the names the benchmark calls, are readings of
the one product:

- `term_const_general`, constant (a, b) with a != 1:
      x_(4n-5) = g^n / c^(n-1)
                 * prod( (a^s + b*c*e*(1-a^s)/(1-a))
                       / (a^s + b*e*g*(1-a^s)/(1-a)), s < n );
- `term_const_a1(m, ic, b)`, constant a = 1:
      x_(4n-3) = c^n * e / g^n * prod((1 + b*e*g*s)/(1 + b*c*e*(s+1)), s < n);
- `term_const_a_neg1(m, ic, b)`, constant a = -1, where F_r(t) alternates
  between 1 and b*u_r*u_(r+2) - 1:
      x_(4n-5) = c^(1-n) * g^n * ((-1 + b*c*e)/(-1 + b*e*g))^floor(n/2);
- `term_periodic2`: classes x_(4n-5), x_(4n-3) only ever consume
  (a_0, b_0) and classes x_(4n-4), x_(4n-2) only (a_1, b_1);
- `term_periodic4`: each class pairs its own coefficient index with the
  one two steps later.

`term_const_general`, `term_periodic2` and `term_periodic4` are `term`
itself, so each accepts every covered sequence; the other two call it on
the constant sequence (1, b) or (-1, b), one cached sequence per (a, b).
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from fractions import Fraction

from .core import (
    CoefficientSequence,
    InitialConditions,
    RationalLike,
    WrongCase,
    _reduced,
    _solved,
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
    "term",
    "terms",
]


#: Special-case constructor names; each builds a `CoefficientSequence`.
ConstantCoeffs = CoefficientSequence.constant
PeriodicCoeffs2 = PeriodicCoeffs4 = CoefficientSequence.periodic


# ---------------------------------------------------------------------------
# The factor sequence
# ---------------------------------------------------------------------------

#: Per class r: the seed index `top` of its factor u_top*F_r(t).
_TOP = (4, 5, 0, 1)


def _line(a: tuple, b: tuple, u_r: tuple, u_r2: tuple, seed: tuple) -> list:
    """Class state [c, d, e, a_num, a_den, p, q] at t = 0 from the integer
    ratios of a, b and the seeds u_r, u_(r+2), u_top, with e > 0 and
    seed*F(t) = (c*q + d*p) / (e*q): F(t) = C + D*a^t, C = k/(1 - a),
    D = 1 - C, k = b*u_r*u_(r+2), and p/q = a^t as the integer pair
    (a_num^t, a_den^t), or F(t) = 1 + k*t and p/q = t/1 when a = 1."""
    (a_num, a_den), (s_num, s_den) = a, seed
    k_num, k_den = b[0] * u_r[0] * u_r2[0], b[1] * u_r[1] * u_r2[1]  # k_den > 0
    if a_num == a_den:
        return [s_num * k_den, s_num * k_num, s_den * k_den, 1, 1, 0, 1]
    # C = k_num*a_den / E and D = (E - k_num*a_den) / E, E = k_den*(a_den - a_num)
    E, kc = k_den * (a_den - a_num), k_num * a_den
    c, d, e = s_num * kc, s_num * (E - kc), s_den * E
    if e < 0:
        c, d, e = -c, -d, -e
    return [c, d, e, a_num, a_den, 1, 1]


class _Factors:
    """u_top*F_r(t) per class r at every t formed so far, a reduced pair
    (num, den), den > 0; called with k = 4t+r, the telescope's factors.
    Built only for a sequence a special case covers: a constant or 1-, 2-
    or 4-periodic one; any other raises `WrongCase`."""

    def __init__(self, ic: InitialConditions, coeffs: CoefficientSequence):
        if coeffs.kind not in ("constant", "periodic"):
            got = f"kind {coeffs.kind!r}"
        elif 4 % coeffs.period:
            got = f"period {coeffs.period}"
        else:
            seeds = [u.as_integer_ratio() for u in ic.values]
            self._columns = [[] for _ in range(4)]
            self._lines = [_line(coeffs.a_at(r).as_integer_ratio(),
                                 coeffs.b_at(r).as_integer_ratio(),
                                 seeds[r], seeds[r + 2], seeds[top])
                           for r, top in enumerate(_TOP)]
            return
        raise WrongCase(
            f"special cases need constant or 1-, 2- or 4-periodic coefficients, got {got}"
        )

    def __call__(self, k: int) -> tuple[int, int]:
        """u_top*F_r(t), extending class r's column with one gcd of small
        integers per t and no `Fraction` at all."""
        r, t = k % 4, k // 4
        column = self._columns[r]
        if len(column) <= t:
            line = self._lines[r]
            c, d, e, a_num, a_den, p, q = line
            while len(column) <= t:
                num, den = c * q + d * p, e * q
                g = math.gcd(num, den)
                column.append((num // g, den // g))
                if a_num == a_den:  # a = 1
                    p += 1
                else:
                    p, q = p * a_num, q * a_den
            line[5:] = p, q
        return column[t]


def term(m: int, ic: InitialConditions, coeffs: CoefficientSequence) -> Fraction:
    """Exact x_m by the shared product over the special case covering
    `coeffs`.  Raises `WrongCase` for a sequence no case covers, and
    `SingularClosedForm` where the closed form does."""
    return _solved("specialcases", _Factors, ic, coeffs).x(m)


def terms(
    lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> Iterator[Fraction]:
    """x_lo..x_hi by the shared product over the special case covering
    `coeffs` (`--engine auto`).  Raises `WrongCase` at once for a sequence
    no case covers, and at the first singular index what `term` raises
    there.  The iterator extends the calling thread's slot; consume it
    there."""
    telescope = _solved("specialcases", _Factors, ic, coeffs)
    return (telescope.x(m) for m in range(lo, hi + 1))


def _items(lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence):
    """`terms` as `_Telescope.items` gives them, (num, den, hint), for the CLI."""
    return _solved("specialcases", _Factors, ic, coeffs).items(lo, hi)


term_const_general = term_periodic2 = term_periodic4 = term


@functools.lru_cache(maxsize=64)  # keyed on ints: a warm call hashes no Fraction
def _constant(a: int, b_num: int, b_den: int) -> CoefficientSequence:
    return CoefficientSequence.constant(a, _reduced(b_num, b_den))


def term_const_a1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    return term(m, ic, _constant(1, *as_rational(b).as_integer_ratio()))


def term_const_a_neg1(m: int, ic: InitialConditions, b: RationalLike) -> Fraction:
    return term(m, ic, _constant(-1, *as_rational(b).as_integer_ratio()))
