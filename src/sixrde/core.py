"""Exact value types shared by every engine in the package.

All quantities are exact: real values are arbitrary-precision rationals
(`fractions.Fraction`, always in canonical form), complex values are Gaussian
rationals (rational real and imaginary parts).  Everything here is immutable
after construction and safe to use from multiple threads.

`GaussianRational` is a slotted immutable value type rather than a
dataclass: its public constructor coerces each part with `as_rational`, while
results of its own arithmetic are built from parts already known to be
Fractions, without coercion.

`InitialConditions` and `CoefficientSequence` compare by value.  The
closed-form and special-case engines key their per-thread slot for the last
solved instance on that equality, so an equal copy reuses the state an
earlier call built.
"""

from __future__ import annotations

import contextlib
import math
import re as _re
import sys
import threading
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

# Canonical exact rational: gcd-reduced, positive denominator, exact +,-,*,/.
Rational = Fraction

RationalLike = Union[Fraction, int, str]

__all__ = [
    "Rational",
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
    "GaussianRational",
    "I",
    "i_power",
    "CoefficientSequence",
    "InitialConditions",
    "make_initial_conditions",
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

# Accepted literals: "p" or "p/q" with q > 0.  Float/decimal forms are
# rejected on purpose: the text boundary must stay exact.
_RATIONAL_RE = _re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


_DIGIT_LIMIT_LOCK = threading.Lock()


@contextlib.contextmanager
def _int_digit_limit_lifted():
    """Lift the interpreter's int<->str digit limit, restoring it on exit.

    The limit is process-wide; the lock keeps two threads from saving each
    other's lifted value as the one to restore.
    """
    with _DIGIT_LIMIT_LOCK:
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            yield
        finally:
            sys.set_int_max_str_digits(previous)


def parse_rational(text: str) -> Fraction:
    """Parse an exact rational literal of the form ``p`` or ``p/q``.

    Literals of any length are accepted, so every `format_rational` output
    reads back as a seed or coefficient.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except ValueError:  # longer than the int<->str digit limit
        with _int_digit_limit_lifted():
            return Fraction(s)


def format_rational(value: Fraction) -> str:
    """Canonical ``p/q`` rendering; integers keep an explicit ``/1``.

    Values of any height are rendered in full; the interpreter's digit limit
    is lifted only for those that exceed it.
    """
    try:
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # longer than the int<->str digit limit
        with _int_digit_limit_lifted():
            return f"{value.numerator}/{value.denominator}"


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
# Gaussian rationals
# ---------------------------------------------------------------------------

class GaussianRational:
    """Complex number with exact rational real and imaginary parts.

    A slotted immutable value: equal values compare and hash equal, and
    `real`/`imag` cannot be assigned or deleted.  Ring arithmetic (+, -, *)
    is exact, against another Gaussian rational or a real scalar (int or
    Fraction); a scalar operand costs one operation per part.  The imaginary
    unit is available as the module constant `I`.
    """

    __slots__ = ("real", "imag")
    __match_args__ = ("real", "imag")

    def __init__(self, real: RationalLike = 0, imag: RationalLike = 0):
        _set_real(self, as_rational(real))
        _set_imag(self, as_rational(imag))

    def __setattr__(self, name, value):
        raise AttributeError(f"GaussianRational is immutable: cannot assign {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GaussianRational is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return GaussianRational, (self.real, self.imag)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.real, self.imag) == (other.real, other.imag)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.real, self.imag))

    def __bool__(self) -> bool:
        return bool(self.real) or bool(self.imag)

    def __complex__(self) -> complex:
        return complex(self.real, self.imag)

    def __add__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian(self.real + other.real, self.imag + other.imag)
        if isinstance(other, (Fraction, int)):
            return _gaussian(self.real + other, self.imag)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _gaussian(-self.real, -self.imag)

    def __sub__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian(self.real - other.real, self.imag - other.imag)
        if isinstance(other, (Fraction, int)):
            return _gaussian(self.real - other, self.imag)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (Fraction, int)):
            return _gaussian(other - self.real, -self.imag)
        return NotImplemented

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            return _gaussian(
                self.real * other.real - self.imag * other.imag,
                self.real * other.imag + self.imag * other.real,
            )
        if isinstance(other, (Fraction, int)):
            return _gaussian(self.real * other, self.imag * other)
        return NotImplemented

    __rmul__ = __mul__

    def __repr__(self) -> str:
        return f"GaussianRational({self.real!s}, {self.imag!s})"


_set_real = GaussianRational.real.__set__
_set_imag = GaussianRational.imag.__set__
_new_gaussian = object.__new__


def _gaussian(real: Fraction, imag: Fraction) -> GaussianRational:
    """Trusted constructor: both parts are already Fractions, so no coercion."""
    z = _new_gaussian(GaussianRational)
    _set_real(z, real)
    _set_imag(z, imag)
    return z


#: The imaginary unit, exact.
I = GaussianRational(Fraction(0), Fraction(1))

_I_CYCLE = (
    GaussianRational(Fraction(1), Fraction(0)),
    I,
    GaussianRational(Fraction(-1), Fraction(0)),
    GaussianRational(Fraction(0), Fraction(-1)),
)


def i_power(k: int) -> GaussianRational:
    """Exact i**k for any integer k (period-4 lookup)."""
    return _I_CYCLE[k % 4]


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

class CoefficientSequence:
    """The coefficient pair (a_n, b_n) for steps n >= 0.

    Three kinds are supported: ``constant``, ``periodic`` (any period >= 1)
    and ``list`` (explicit finite list).  Lookups past the end of an
    explicit list raise `OutOfHorizon`; the other kinds are total on n >= 0.
    """

    __slots__ = ("_kind", "_a", "_b", "_period")

    def __init__(self, kind, a, b, period=None):
        self._kind = kind
        self._a = a
        self._b = b
        self._period = period

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

    @property
    def horizon(self) -> "int | None":
        """Number of defined steps for explicit lists, else None (total)."""
        return len(self._a) if self._kind == "list" else None

    def _index(self, n: int) -> int:
        if n < 0:
            raise ValueError(f"coefficient index must be >= 0, got {n}")
        if self._kind == "constant":
            return 0
        if self._kind == "periodic":
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, CoefficientSequence):
            return NotImplemented
        return (
            self._kind == other._kind
            and self._period == other._period
            and self._a == other._a
            and self._b == other._b
        )

    __hash__ = None  # mutable-looking API surface; equality is structural

    def __repr__(self) -> str:
        a = ", ".join(str(v) for v in self._a)
        b = ", ".join(str(v) for v in self._b)
        return f"CoefficientSequence({self._kind}, a=[{a}], b=[{b}])"


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InitialConditions:
    """The six nonzero seeds x_(-5) .. x_0, equivalently u_0 .. u_5."""

    values: tuple[Fraction, ...]

    def __post_init__(self):
        vals = tuple(as_rational(v) for v in self.values)
        if len(vals) != 6:
            raise ValueError(f"exactly six seed values required, got {len(vals)}")
        for i, v in enumerate(vals):
            if v == 0:
                raise ZeroInitialValue(i - 5)
        object.__setattr__(self, "values", vals)

    def x(self, m: int) -> Fraction:
        """Seed by x-index, -5 <= m <= 0."""
        if not -5 <= m <= 0:
            raise OutOfRange("seed x", m)
        return self.values[m + 5]

    def u(self, i: int) -> Fraction:
        """Seed by forward index, 0 <= i <= 5 (u_i = x_(i-5))."""
        if not 0 <= i <= 5:
            raise OutOfRange("seed u", i)
        return self.values[i]

    def seed_product(self, j: int) -> Fraction:
        """u_j * u_(j+2) for j in 0..3; the reciprocal of the seed invariant."""
        if not 0 <= j <= 3:
            raise OutOfRange("residue class", j)
        return self.values[j] * self.values[j + 2]


def make_initial_conditions(values: Sequence[RationalLike]) -> InitialConditions:
    """Build validated initial conditions from six nonzero rationals."""
    return InitialConditions(tuple(values))


# ---------------------------------------------------------------------------
# The telescoping product
# ---------------------------------------------------------------------------

class _Telescope:
    """The orbit of one instance as one telescoping product over a factor
    column f(r, t), r = 0..3, t >= 0:

        x_(4n-5+j) = u_j * prod( f(j, s) / f((j+2) mod 4, s + j//2), s < n ).

    The closed form reads f(r, t) = V_(4t+r) and the special cases
    f(r, t) = u_top*F_r(t); either way the denominator's index is
    4(s + j//2) + (j+2) mod 4 = 4s + j + 2.  Each class keeps x at every
    block formed so far (block 0 is the seed u_j), so a term past them costs
    one factor ratio per missing block.  Every factor a query needs is formed
    before any is checked, so a short explicit list raises `OutOfHorizon`
    first; then at each new block s the denominator is checked before the
    numerator, each as `SingularClosedForm` of its own V index (4s+j+2, then
    4s+j), and a block is stored only once both passed, so a failed query
    raises the same error when repeated.

    Each engine keeps the last instance it solved in one slot per thread
    (`_last_solved`), found again by equality of the instance.
    """

    def __init__(self, seeds: Sequence[Fraction], source):
        self.source = source
        self._blocks = [[seeds[j]] for j in range(4)]

    def x(self, m: int) -> Fraction:
        if m < -5:
            raise IndexBelowSeed(m)
        j, n = (m + 5) % 4, (m + 5) // 4
        blocks = self._blocks[j]
        if n >= len(blocks):
            f, q, shift = self.source, (j + 2) % 4, j // 2
            # Each column extends up to its last factor, forming every one.
            f(j, n - 1)
            f(q, n - 1 + shift)
            for s in range(len(blocks) - 1, n):
                den = f(q, s + shift)
                if den == 0:
                    raise SingularClosedForm(4 * s + j + 2)
                # A zero numerator means the orbit already died on the class
                # where that factor is a denominator; its own index reports it.
                num = f(j, s)
                if num == 0:
                    raise SingularClosedForm(4 * s + j)
                blocks.append(blocks[-1] * (num / den))
        return blocks[n]


_LAST_SOLVED = threading.local()


def _last_solved(engine: str, instance: tuple, build) -> _Telescope:
    """This thread's last `_Telescope` solved by `engine` if it was built for
    an instance equal to `instance`, else `build()`, which replaces it."""
    last = getattr(_LAST_SOLVED, engine, None)
    if last is None or last[0] != instance:
        last = (instance, build())
        setattr(_LAST_SOLVED, engine, last)
    return last[1]
