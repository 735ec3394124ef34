"""Verification layer for the shift-symmetry structure of the recurrence.

The recurrence admits a two-dimensional algebra of point symmetries.  The
paper writes its characteristics as Q(n, u) = (+-i)^n * u; since the
recurrence's coefficients are real and the linearized symmetry condition is
linear in Q, the real pair

    Q1(n, u) = Re(i^n) * u,   coefficients 1, 0, -1, 0 (n mod 4),
    Q2(n, u) = Im(i^n) * u,   coefficients 0, 1, 0, -1,

spans the same algebra, with (+-i)^n * u = Q1 +- i*Q2.  A `Characteristic`
is such a real period-4 coefficient table, and every value it takes is a
`Fraction`.  This module evaluates the linearized symmetry condition
residual exactly at sampled points (the residual is a rational function
that must vanish identically, so vanishing at generic rational samples is
the verification standard), and runs one phase-sum check,
alpha_n + alpha_(n+2) = 0 for n <= n_max, both for the reduced determining
system (the real and imaginary parts of its roots i^n and (-i)^n) and for
the prolonged generators applied to the logarithmic invariant
ln|u_n| + ln|u_(n+2)|.  It also checks that Q1 + i*Q2 is the kernel i^(n-k).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .core import DegenerateSample, RationalLike, _Record, as_rational

__all__ = [
    "Characteristic",
    "Q1",
    "Q2",
    "counterfeit_characteristic",
    "LscSample",
    "lsc_residual",
    "RootCheckFailure",
    "PhaseSumReport",
    "verify_reduced_system",
    "generator_annihilates_invariant",
    "verify_gamma_identities",
]

CharacteristicFn = Callable[[int, RationalLike], Fraction]


class Characteristic(_Record):
    """A symmetry characteristic Q(n, u) = alpha[n mod 4] * u over the rationals.

    `alpha` is the real coefficient table of one period, so Q is periodic
    of period 4 in n, linear in u, and Q(n, 0) = 0.
    """

    __slots__ = ("name", "alpha")

    def __init__(self, name: str, alpha: Sequence[RationalLike]):
        alpha = tuple(map(as_rational, alpha))
        if len(alpha) != 4:
            raise ValueError(f"alpha must hold 4 coefficients, got {len(alpha)}")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "alpha", alpha)

    def coefficient(self, n: int) -> Fraction:
        """alpha_n, read from the period-4 table."""
        return self.alpha[n % 4]

    def __call__(self, n: int, u: RationalLike) -> Fraction:
        """alpha_n * u, one normalisation of the integer parts' products."""
        c_num, c_den = self.coefficient(n).as_integer_ratio()
        u_num, u_den = as_rational(u).as_integer_ratio()
        return Fraction(c_num * u_num, c_den * u_den)


#: The two independent characteristics, Re(i^n)*u and Im(i^n)*u: the paper's
#: (+-i)^n * u are Q1 +- i*Q2.
Q1 = Characteristic("Q1", (1, 0, -1, 0))
Q2 = Characteristic("Q2", (0, 1, 0, -1))

#: Deliberately wrong characteristic Q(n, u) = u, for detector sanity.
#: It is not a symmetry of the recurrence (unless b = 0, where scaling is
#: one), so the linearized-condition residual must come out nonzero on
#: generic samples.
counterfeit_characteristic = Characteristic("counterfeit", (1, 1, 1, 1))


class LscSample(_Record):
    """A sample point for the linearized symmetry condition.

    Holds u_n, u_(n+2), u_(n+4) (fields u0, u2, u4 by offset) plus the step
    coefficients (a, b).  All three u values must be nonzero and
    a + b*u0*u2 must be nonzero, so the map value is defined.
    """

    __slots__ = ("n", "u0", "u2", "u4", "a", "b")

    def __init__(
        self,
        n: int,
        u0: RationalLike,
        u2: RationalLike,
        u4: RationalLike,
        a: RationalLike,
        b: RationalLike,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "u0", as_rational(u0))
        object.__setattr__(self, "u2", as_rational(u2))
        object.__setattr__(self, "u4", as_rational(u4))
        object.__setattr__(self, "a", as_rational(a))
        object.__setattr__(self, "b", as_rational(b))
        if n < 0:
            raise DegenerateSample(f"sample step must be >= 0, got {n}")
        for name in ("u0", "u2", "u4"):
            if getattr(self, name) == 0:
                raise DegenerateSample(f"sample value {name} must be nonzero")
        (x0, y0), (x2, y2), (a_n, a_d), (b_n, b_d) = (
            v.as_integer_ratio() for v in (self.u0, self.u2, self.a, self.b))
        # a + b*u0*u2 = e/(a_d*b_d*y0*y2) with e as in `lsc_residual`.
        if a_n * b_d * y0 * y2 + b_n * a_d * x0 * x2 == 0:
            raise DegenerateSample("sample has a + b*u0*u2 = 0")


def lsc_residual(q: CharacteristicFn, sample: LscSample) -> Fraction:
    """Exact residual of the linearized symmetry condition at a sample.

    With P = u_n*u_(n+2), D = a + b*P and the map value Psi = P/(u_(n+4)*D),
    the residual is

        Q(n+6, Psi) + P*Q(n+4, u_(n+4)) / (u_(n+4)^2 * D)
          - a*u_n*Q(n+2, u_(n+2)) / (u_(n+4) * D^2)
          - a*u_(n+2)*Q(n, u_n) / (u_(n+4) * D^2)

    and vanishes identically for the true characteristics Q1 and Q2.  `q` is
    called at n, n+2, n+4 and n+6, so any real characteristic is evaluated
    exactly; the residual is linear in Q, so that of (+-i)^n * u is Q1's
    +- i*Q2's.

    Everything else is integer arithmetic on the operands' lowest terms,
    u_(n+k) = x_k/y_k, a = a_n/a_d, b = b_n/b_d and Q's four values
    Q(n+k, .) = r_k/s_k.  With w = x_0*x_2, t = a_n*b_d*y_0*y_2 and
    g = a_d*b_d,

        D = e/(g*y_0*y_2),                 e = t + b_n*a_d*w,
        Psi = w*y_4*g/(x_4*e),
        P/(u_(n+4)^2 * D) = w*y_4^2*g/(x_4^2*e),
        a/(u_(n+4) * D^2) = t*g*y_0*y_2*y_4/(x_4*e^2),

    so over the common denominator s_6*x_4^2*e^2*s_0*s_2*s_4 the residual's
    numerator is r_6*x_4^2*e^2*s_0*s_2*s_4 plus s_6*g*y_4 times

        w*y_4*r_4*e*s_0*s_2 - t*x_4*s_4*(x_0*y_2*r_2*s_0 + x_2*y_0*r_0*s_2).

    Psi and the result are one normalisation each, so a residual of Q1, Q2
    or the counterfeit costs six gcds and no `Fraction` arithmetic.
    """
    n, u0, u2, u4 = sample.n, sample.u0, sample.u2, sample.u4
    x0, y0 = u0.as_integer_ratio()
    x2, y2 = u2.as_integer_ratio()
    x4, y4 = u4.as_integer_ratio()
    a_n, a_d = sample.a.as_integer_ratio()
    b_n, b_d = sample.b.as_integer_ratio()
    g, w, t = a_d * b_d, x0 * x2, a_n * b_d * y0 * y2
    e = t + b_n * a_d * w
    r0, s0 = q(n, u0).as_integer_ratio()
    r2, s2 = q(n + 2, u2).as_integer_ratio()
    r4, s4 = q(n + 4, u4).as_integer_ratio()
    r6, s6 = q(n + 6, Fraction(w * y4 * g, x4 * e)).as_integer_ratio()
    den = x4 * x4 * e * e * s0 * s2 * s4
    inner = (w * y4 * r4 * e * s0 * s2
             - t * x4 * s4 * (x0 * y2 * r2 * s0 + x2 * y0 * r0 * s2))
    return Fraction(r6 * den + s6 * g * y4 * inner, s6 * den)


# ---------------------------------------------------------------------------
# Phase-sum check: reduced determining system and generators
# ---------------------------------------------------------------------------

class RootCheckFailure(_Record):
    """A phase-sum check that failed: `value` = alpha_n + alpha_(n+2) != 0
    for the root named `root`."""

    __slots__ = ("root", "n", "value")

    def __init__(self, root: str, n: int, value: Fraction):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)


class PhaseSumReport(_Record):
    """Outcome of checking alpha_n + alpha_(n+2) = 0 over n <= n_max."""

    __slots__ = ("n_max", "failures")

    def __init__(self, n_max: int, failures: tuple[RootCheckFailure, ...]):
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


def _phase_sum_check(
    n_max: int, pairs: "Sequence[tuple[str, Characteristic]]"
) -> PhaseSumReport:
    """Test alpha_n against -alpha_(n+2) from each named characteristic's
    table; the sum is formed only for a failure.  Both are in lowest terms
    with a positive denominator, so alpha_n = -alpha_(n+2) exactly when
    their numerators are opposite and their denominators equal."""
    failures = []
    for name, q in pairs:
        for n in range(n_max + 1):
            first, second = q.coefficient(n), q.coefficient(n + 2)
            (num, den), (num2, den2) = first.as_integer_ratio(), second.as_integer_ratio()
            if num != -num2 or den != den2:
                failures.append(RootCheckFailure(root=name, n=n, value=first + second))
    return PhaseSumReport(n_max=n_max, failures=tuple(failures))


_GENERATORS = {"X1": Q1, "X2": Q2}


def verify_reduced_system(n_max: int) -> PhaseSumReport:
    """Check alpha_n + alpha_(n+2) = 0 exactly for every root and n <= n_max.

    The roots are the two solutions i^n and (-i)^n; the check is linear, so
    it runs on their real and imaginary parts, the tables of Q1 and Q2.  The
    companion equation of the reduced system forces the quadratic part of
    the characteristic to vanish identically, so there is nothing to
    evaluate for it.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    return _phase_sum_check(n_max, (("Re(i^n)", Q1), ("Im(i^n)", Q2)))


def generator_annihilates_invariant(variant: str, n_max: int) -> PhaseSumReport:
    """Check that the prolonged generator kills the logarithmic invariant.

    Applying the generator to S_n*alpha_n + S_(n+2)*alpha_(n+2) leaves the
    coefficient sum alpha_n + alpha_(n+2), which must vanish exactly for
    every n <= n_max.  Variant "X1" reads alpha from Q1's table, "X2" from
    Q2's; the paper's generators for the phases i and -i are X1 +- i*X2.
    """
    if variant not in _GENERATORS:
        raise ValueError(f"variant must be 'X1' or 'X2', got {variant!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    return _phase_sum_check(n_max, ((variant, _GENERATORS[variant]),))


def verify_gamma_identities(limit: int) -> list[str]:
    """Failures (none when it holds) of i^(n-k) = Q1 + i*Q2 at d = n - k over
    n, k <= limit.  The kernel depends on d mod 4 alone, so one period covers
    every limit: Q1 + i*Q2 is 1, i at d = 0, 1 and alpha_(d+2) = -alpha_d."""
    failures = [f"{q.name}: alpha_{d + 2} != -alpha_{d}"
                for q in (Q1, Q2) for d in (0, 1) if q.alpha[d + 2] != -q.alpha[d]]
    if (Q1.alpha[:2], Q2.alpha[:2]) != ((1, 0), (0, 1)):
        failures.append("Q1 + i*Q2 is not 1, i at d = 0, 1")
    return failures
