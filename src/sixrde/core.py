"""Exact value types shared by every engine in the package.

All quantities are exact arbitrary-precision rationals (`fractions.Fraction`,
always in canonical form): the recurrence, its coefficients and its symmetry
characteristics are real, so the package holds no complex value.  Values
are immutable and safe to share between threads; the mutable `_Telescope`
block memos live in per-thread slots (`_solved`), each block with the
cofactors against the one before it that `_rendered` carries digits by.
Text conversion touches no process state: it never reads or changes the
int/str digit limit, and the run renderer (`_rendered`) does its `decimal`
arithmetic in one private context, through that context's own methods, so
no thread's decimal context is read or set.

Every record in the package is a slotted class on one private base,
`_Record`, rather than a dataclass, which would import `inspect` at
start-up; the base's one constructor binds and stores every record's fields.

`InitialConditions` and `CoefficientSequence` compare by value.  The
closed-form and special-case engines key their per-thread slot for the last
solved instance on that equality, so an equal copy reuses the state an
earlier call built.  A sequence holds one derived cache, its integer rows
(`CoefficientSequence._step_table`): equality compares them, and the oracle
and the V table step on them; the other engines read its values.
"""

from __future__ import annotations

import decimal
import math
import re as _re
import threading
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Iterator, Sequence, Union

RationalLike = Union[Fraction, int, str]

__all__ = [
    "RationalLike",
    "SixrdeError",
    "ZeroInitialValue",
    "OutOfHorizon",
    "IndexBelowSeed",
    "OutOfRange",
    "TooShort",
    "SingularClosedForm",
    "WrongCase",
    "DegenerateSample",
    "parse_rational",
    "format_rational",
    "as_rational",
    "log_abs",
    "CoefficientSequence",
    "InitialConditions",
]


# ---------------------------------------------------------------------------
# Errors
# ---------------------------------------------------------------------------

class SixrdeError(Exception):
    """Base class for all errors raised by this package."""


class ZeroInitialValue(SixrdeError):
    """A seed value is zero; every seed must be nonzero."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"initial value x_({position}) must be nonzero")


class OutOfHorizon(SixrdeError):
    """A coefficient was requested past the end of an explicit list."""

    def __init__(self, n: int, horizon: int):
        self.n = n
        self.horizon = horizon
        super().__init__(
            f"coefficient index {n} is past the explicit horizon {horizon}"
        )


class IndexBelowSeed(SixrdeError):
    """A term index below the first seed x_(-5) was requested."""

    def __init__(self, m: int):
        self.m = m
        super().__init__(f"term index {m} is below the first seed x_(-5)")


class OutOfRange(SixrdeError):
    """An index is outside the stored range of an orbit or sequence."""

    def __init__(self, what: str, index: int):
        self.index = index
        super().__init__(f"{what} index {index} is out of range")


class TooShort(SixrdeError):
    """Not enough stored terms to perform the requested computation."""


class SingularClosedForm(SixrdeError):
    """A closed-form product needs an invariant value V that is zero.

    Built from `v_index`, the index of the vanishing V itself; the rest of
    the position follows from it.  `j` is the residue class (mod 4) of the
    term family whose product contains that V as a denominator and `s` the
    factor index within that product (v_index = 4*s + j + 2, so
    j = (v_index - 2) mod 4; `closedform.WellDefViolation` names the V's own
    class, v_index mod 4, with the same `s`).  `halt_step` is the iteration
    step at which direct iteration hits the same zero denominator.
    """

    def __init__(self, v_index: int):
        self.v_index = v_index
        self.j = (v_index - 2) % 4
        self.s = (v_index - 2) // 4
        super().__init__(
            f"closed form is singular: V_{v_index} = 0 "
            f"(class j={self.j}, factor s={self.s})"
        )

    @property
    def halt_step(self) -> int:
        return self.v_index - 4


class WrongCase(SixrdeError):
    """A special-case formula was invoked outside its coefficient case."""


class DegenerateSample(SixrdeError):
    """A symmetry-condition sample violates its nondegeneracy constraints."""


# ---------------------------------------------------------------------------
# Rational helpers
# ---------------------------------------------------------------------------

# Accepted literals: "p" or "p/q" with q > 0, in ASCII digits, ASCII whitespace
# around them.  Float/decimal forms are rejected: the text boundary stays exact.
_RATIONAL_RE = _re.compile(r"\s*([+-]?)(\d+)(?:/([1-9]\d*))?\s*", _re.ASCII)

# Longest decimal piece converted at once: the lowest int<->str digit limit the
# interpreter accepts (`sys.int_info.str_digits_check_threshold`, 3.10.7 on),
# so pieces convert under any setting and the limit is never read or changed.
_PIECE_DIGITS = 640
_PIECE_LIMIT = 10**_PIECE_DIGITS

# The one context chains are carried in: integers of any length fit, and
# rounding of any kind raises.  `divide_int` truncates without a signal, so
# `_carried` divides only by a divisor its check confirms.  Only the
# context's own methods are called, so no thread's decimal context is read
# or changed.
_EXACT = decimal.Context(
    prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN,
    traps=[decimal.Inexact, decimal.Rounded, decimal.InvalidOperation,
           decimal.DivisionByZero, decimal.Overflow])


def _integer(digits: str) -> int:
    """int(digits) for a decimal digit string of any length."""
    if len(digits) <= _PIECE_DIGITS:
        return int(digits)
    half = len(digits) // 2
    return _integer(digits[:-half]) * 10**half + _integer(digits[-half:])


def _digits(n: int) -> str:
    """str(n) for an integer n >= 0 of any size."""
    if n < _PIECE_LIMIT:
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of n's digits (log10(2) > 0.3)
    high, low = divmod(n, 10**k)
    return _digits(high) + _digits(low).zfill(k)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of the form ``p`` or ``p/q``.

    Literals of any length are read, in pieces below the digit limit, so
    every `format_rational` output reads back as a seed or coefficient.
    """
    match = _RATIONAL_RE.fullmatch(text)
    if match is None:
        raise ValueError(f"not an exact rational literal: {text!r}")
    sign, p, q = match.groups()
    numerator = _integer(p)
    return Fraction(-numerator if sign == "-" else numerator, _integer(q or "1"))


def format_rational(value: Fraction) -> str:
    """Canonical ``p/q`` rendering; integers keep an explicit ``/1``.

    Values of any height are rendered in full, in pieces below the digit limit.
    """
    p = value.numerator
    return f"{'-' if p < 0 else ''}{_digits(abs(p))}/{_digits(value.denominator)}"


def _rendered(values: Iterable) -> Iterator[tuple[int, int, str]]:
    """(p, q, `format_rational(p/q)`) for each item (p, q, hint) of
    `values`, in order: a reduced pair, q > 0, and a hint None or
    ((up, down), (up, down)), |p| and q over the same parts four places
    earlier, as `oracle._terms` and `_Telescope.items` give.

    Values below the piece limit are formatted at once.  A larger value is
    rendered part by part (|numerator|, denominator), each carried from the
    last part of its chain: the same part of the value four places earlier.
    Along an orbit those differ by a V ratio, so the new digits are the last
    ones divided by one small cofactor and multiplied by another, exactly, in
    `decimal` (linear time), rather than converted afresh (quadratic).  The
    cofactors are the hint's, once n * down == m * up confirms it, so no
    gcd runs at full height.  The arithmetic is exact for any two values; a
    part with no hint, or a wrong one, restarts its chain with `_digits`.
    """
    chains = [[None, None] for _ in range(4)]  # (part, its digits) per class
    for i, (p, q, hint) in enumerate(values):
        if -_PIECE_LIMIT < p < _PIECE_LIMIT and q < _PIECE_LIMIT:
            yield p, q, f"{p}/{q}"
            continue
        chain, (p_hint, q_hint) = chains[i % 4], hint or (None, None)
        yield p, q, (f"{'-' if p < 0 else ''}{_carried(chain, 0, abs(p), p_hint)}"
                     f"/{_carried(chain, 1, q, q_hint)}")


def _carried(chain: list, k: int, n: int, hint) -> str:
    """str(n), carried from `chain[k]` when it can be; chain[k] becomes n's.
    Only a `hint` (up, down) with n * down == m * up for the last m carries."""
    if n < _PIECE_LIMIT:
        return str(n)
    last = chain[k]
    if last is not None and hint is not None and n * hint[1] == last[0] * hint[0]:
        g = math.gcd(*hint)
        digits = _EXACT.multiply(
            _EXACT.divide_int(_EXACT.create_decimal(last[1]), hint[1] // g), hint[0] // g)
        chain[k] = (n, digits)
        return _EXACT.to_sci_string(digits)
    text = _digits(n)
    chain[k] = (n, text)
    return text


def _reduced(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) of a coprime pair, denominator > 0,
    with no gcd: the package's one write of `Fraction`'s two slots (CPython
    3.10-3.13), pinned to the public constructor by a Tier-1 test."""
    value = object.__new__(Fraction)
    value._numerator, value._denominator = numerator, denominator
    return value


def as_rational(value: RationalLike) -> Fraction:
    """Coerce an int, exact string, or Fraction to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def log_abs(value: Fraction) -> float:
    """ln|value| for a nonzero rational, safe for huge numerators."""
    if value == 0:
        raise ValueError("log_abs(0) is undefined")
    return math.log(abs(value.numerator)) - math.log(value.denominator)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

class _Record:
    """Base of the package's immutable records.

    A subclass names its fields in `__slots__`.  The one constructor binds
    its positional, then its keyword values to them in that order (a
    missing, repeated or unknown field raises `TypeError`); a subclass that
    coerces or checks its fields stores them through it.  Records of the
    same class are equal when their fields are, and then hash equal; any
    other operand is left to its own `__eq__`.  The repr is
    `Name(field=value, ...)`, assigning or deleting any attribute raises
    `AttributeError`, and pickling and copying rebuild the record from its
    fields.
    """

    __slots__ = ()

    def __init__(self, /, *values, **named):
        slots = self.__slots__
        if len(values) > len(slots):
            raise TypeError(f"{type(self).__name__} takes {len(slots)} fields, "
                            f"got {len(values)}")
        for field, value in zip(slots, values):
            object.__setattr__(self, field, value)
        for field in slots[len(values):]:
            if field not in named:
                raise TypeError(f"{type(self).__name__} is missing field {field!r}")
            object.__setattr__(self, field, named.pop(field))
        if named:
            field = next(iter(named))
            raise TypeError(f"{type(self).__name__} got field {field!r} "
                            + ("twice" if field in slots else "that it does not have"))

    def __init_subclass__(cls):
        cls.__match_args__ = cls.__slots__
        # One C call reads the fields: the value itself for a single slot,
        # else the tuple of values.
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            fields = self._fields
            return self is other or fields(self) == fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

class CoefficientSequence:
    """The coefficient pair (a_n, b_n) for steps n >= 0.

    Three kinds are supported: ``constant``, ``periodic`` (any period >= 1)
    and ``list`` (explicit finite list).  Lookups past the end of an
    explicit list raise `OutOfHorizon`; the other kinds are total on n >= 0.
    """

    __slots__ = ("_kind", "_a", "_b", "_period", "_steps")

    def __init__(self, kind, a, b, period=None):
        self._kind = kind
        self._a = a
        self._b = b
        self._period = period
        self._steps = None

    @classmethod
    def constant(cls, a: RationalLike, b: RationalLike) -> "CoefficientSequence":
        return cls("constant", (as_rational(a),), (as_rational(b),), period=1)

    @classmethod
    def periodic(
        cls, a_values: Iterable[RationalLike], b_values: Iterable[RationalLike]
    ) -> "CoefficientSequence":
        a = tuple(as_rational(v) for v in a_values)
        b = tuple(as_rational(v) for v in b_values)
        if not a or len(a) != len(b):
            raise ValueError("periodic a/b value lists must be nonempty and equal length")
        return cls("periodic", a, b, period=len(a))

    @classmethod
    def explicit(
        cls, a_values: Iterable[RationalLike], b_values: Iterable[RationalLike]
    ) -> "CoefficientSequence":
        a = tuple(as_rational(v) for v in a_values)
        b = tuple(as_rational(v) for v in b_values)
        if len(a) != len(b):
            raise ValueError("explicit a/b value lists must have equal length")
        return cls("list", a, b)

    @property
    def kind(self) -> str:
        return self._kind

    @property
    def period(self) -> "int | None":
        return self._period

    def _index(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"coefficient index must be >= 0, got {n}")
        if self._period is not None:  # constant is periodic with period 1
            return n % self._period
        if n >= len(self._a):
            raise OutOfHorizon(n, len(self._a))
        return n

    def a_at(self, n: int) -> Fraction:
        return self._a[self._index(n)]

    def b_at(self, n: int) -> Fraction:
        return self._b[self._index(n)]

    def pair_at(self, n: int) -> tuple[Fraction, Fraction]:
        i = self._index(n)
        return self._a[i], self._b[i]

    def a_values(self) -> tuple[Fraction, ...]:
        return self._a

    def b_values(self) -> tuple[Fraction, ...]:
        return self._b

    def _step_table(self) -> tuple:
        """(rows, horizon), horizon a list's length else inf, built on first
        use with one `as_integer_ratio` per coefficient and assigned whole:
        step n < horizon maps V to a_n*V + b_n = (A*V_num + B*V_den) / (D*V_den),
        (A, B, D) = rows[n % len(rows)] = (a_num*b_den, b_num*a_den, a_den*b_den).
        Equality compares the rows too, as a = A/D and b = B/D."""
        if self._steps is None:
            rows = tuple([(a_num * b_den, b_num * a_den, a_den * b_den)
                          for (a_num, a_den), (b_num, b_den)
                          in zip([a.as_integer_ratio() for a in self._a],
                                 [b.as_integer_ratio() for b in self._b])])
            self._steps = rows, len(rows) if self._period is None else math.inf
        return self._steps

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        rows = CoefficientSequence._step_table  # never a subclass's override
        return (self._kind == other._kind and self._period == other._period
                and rows(self)[0] == rows(other)[0])

    __hash__ = None  # mutable-looking API surface; equality is structural

    def __repr__(self) -> str:
        a = ", ".join(str(v) for v in self._a)
        b = ", ".join(str(v) for v in self._b)
        return f"CoefficientSequence({self._kind}, a=[{a}], b=[{b}])"


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

class InitialConditions(_Record):
    """The six nonzero seeds x_(-5) .. x_0, equivalently u_0 .. u_5."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[RationalLike]):
        vals = tuple(as_rational(v) for v in values)
        if len(vals) != 6:
            raise ValueError(f"exactly six seed values required, got {len(vals)}")
        for i, v in enumerate(vals):
            if v == 0:
                raise ZeroInitialValue(i - 5)
        super().__init__(vals)

    def seed_product(self, j: int) -> Fraction:
        """u_j * u_(j+2) for j in 0..3; the reciprocal of the seed invariant."""
        if not 0 <= j <= 3:
            raise OutOfRange("residue class", j)
        return self.values[j] * self.values[j + 2]


# ---------------------------------------------------------------------------
# The telescoping product
# ---------------------------------------------------------------------------

class _Telescope:
    """The orbit of one instance as one telescoping product over a factor
    sequence f(k), k >= 0:

        x_(4n-5+j) = u_j * prod( f(4s+j) / f(4s+j+2), s < n ),   j = 0..3.

    The closed form reads f(k) = V_k and the special cases
    f(4t+r) = u_top*F_r(t), each as a reduced pair (num, den), den > 0.
    Each class keeps one list, an entry per block formed so far (block 0 is
    the seed u_j), so a term past them costs one factor ratio per missing
    block.  An entry is (item, value): the (num, den, hint) that `items`
    yields, and the `Fraction` that `x` returns, made from the same two ints.
    A query first extends the two factor columns it reads (f(4t+r) is
    `f._columns[r][t]`, extended through k by f(k)), so a short explicit
    list raises `OutOfHorizon` before any check; then at each new block,
    k = 4s+j, the denominator f(k+2) is checked before the numerator f(k),
    each as `SingularClosedForm` of its own index, and a block is stored
    only once both passed, so a failed query raises the same error when
    repeated.

    A block step runs on integer parts with the four gcds `Fraction` would
    run, two to reduce f(k)/f(k+2) and two to cross-cancel it against x; its
    hint is its parts' cofactors over the block before it, which `_rendered`
    carries their digits by.

    Each engine keeps the last instance it solved in one slot per thread
    (`_solved`), found again by equality of `(ic, coeffs)`.
    """

    def __init__(self, seeds: Sequence[Fraction], f):
        self.f = f
        self._blocks = [[((*seed.as_integer_ratio(), None), seed)] for seed in seeds[:4]]

    def x(self, m: int) -> Fraction:
        if m < -5:
            raise IndexBelowSeed(m)
        n, j = divmod(m + 5, 4)
        blocks = self._blocks[j]
        if n >= len(blocks):
            # f(4s+j) is numerators[s] and f(4s+j+2) denominators[s + shift].
            f, shift = self.f, (j + 2) // 4
            numerators, denominators = f._columns[j], f._columns[(j + 2) % 4]
            if len(numerators) < n:
                f(4 * n + j - 4)
            if len(denominators) < n + shift:
                f(4 * n + j - 2)
            gcd = math.gcd
            (x_num, x_den, _), _ = blocks[-1]
            for s in range(len(blocks) - 1, n):
                d_num, d_den = denominators[s + shift]
                if d_num == 0:
                    raise SingularClosedForm(4 * s + j + 2)
                # A zero numerator means the orbit already died on the class
                # where that factor is a denominator; its own index reports it.
                n_num, n_den = numerators[s]
                if n_num == 0:
                    raise SingularClosedForm(4 * s + j)
                # f(k)/f(k+2) = r_num/r_den, reduced as division does, r_den > 0
                g1 = gcd(n_num, d_num) if d_num > 0 else -gcd(n_num, d_num)
                g2 = gcd(d_den, n_den)
                r_num, r_den = (n_num // g1) * (d_den // g2), (d_num // g1) * (n_den // g2)
                g1, g2 = gcd(x_num, r_den), gcd(r_num, x_den)
                if g1 > 1:  # as `Fraction.__mul__`: no full-height division by 1
                    x_num, r_den = x_num // g1, r_den // g1
                if g2 > 1:
                    x_den, r_num = x_den // g2, r_num // g2
                x_num, x_den = x_num * r_num, x_den * r_den
                blocks.append(((x_num, x_den, ((abs(r_num), g1), (r_den, g2))),
                               _reduced(x_num, x_den)))
        return blocks[n][1]

    def items(self, lo: int, hi: int) -> Iterator[tuple]:
        """(num, den, hint) of x_lo, ..., x_hi: hint None for a seed, else
        the block's cofactors against the block before it."""
        for m in range(lo, hi + 1):
            self.x(m)
            yield self._blocks[(m + 5) % 4][(m + 5) // 4][0]


_SLOTS = threading.local()


def _solved(engine: str, column, ic, coeffs) -> _Telescope:
    """This thread's `engine` slot: the `_Telescope` over `column(ic, coeffs)`
    if built for an instance equal to (ic, coeffs), else a new one in its place."""
    last = getattr(_SLOTS, engine, None)
    if last is None or last[0] != (ic, coeffs):
        last = ((ic, coeffs), _Telescope(ic.values, column(ic, coeffs)))
        setattr(_SLOTS, engine, last)
    return last[1]
