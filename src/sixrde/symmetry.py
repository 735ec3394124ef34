"""Verification layer for the shift-symmetry structure of the recurrence.

The recurrence admits a two-dimensional algebra of point symmetries with
characteristics Q(n, u) = (+-i)^n * u.  Each characteristic is a whole number
of quarter turns of i per step, so every phase it takes is read from the
four-cycle `core.i_power`, and Q(n, u) is applied as a quarter-turn rotation
of u: (u, 0), (0, u), (-u, 0) or (0, -u), with no Gaussian multiply.  This
module evaluates the linearized symmetry condition residual exactly at
sampled points (the residual is a rational function that must vanish
identically, so vanishing at generic rational samples is the verification
standard), and runs one phase-sum check,
beta_n + beta_(n+2) = 0 for n <= n_max, both for the reduced determining
system (roots i^n and (-i)^n) and for the prolonged generators applied to the
logarithmic invariant ln|u_n| + ln|u_(n+2)| (coefficient sum
phase^n + phase^(n+2)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Sequence

from .core import (
    DegenerateSample,
    GaussianRational,
    RationalLike,
    _gaussian,
    _Record,
    as_rational,
    i_power,
)

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
]

CharacteristicFn = Callable[[int, RationalLike], GaussianRational]

_ZERO = Fraction(0)


class Characteristic:
    """A symmetry characteristic Q(n, u) = i^(turns*n) * u over Gaussian rationals.

    Its phase is i^turns, a whole number of quarter turns of i, so Q is
    periodic of period 4 in n, linear in u, and Q(n, 0) = 0.
    """

    __slots__ = ("name", "turns")

    def __init__(self, name: str, turns: int):
        self.name = name
        self.turns = turns

    def phase_power(self, n: int) -> GaussianRational:
        """phase^n = i^(turns*n), read from the four-cycle of i."""
        return i_power(self.turns * n)

    def __call__(self, n: int, u: RationalLike) -> GaussianRational:
        """i^(turns*n) * u, applied as a rotation of u by whole quarter turns."""
        u = as_rational(u)
        turn = self.turns * n % 4
        if turn == 0:
            return _gaussian(u, _ZERO)
        if turn == 1:
            return _gaussian(_ZERO, u)
        if turn == 2:
            return _gaussian(-u, _ZERO)
        return _gaussian(_ZERO, -u)

    def __repr__(self) -> str:
        return f"Characteristic({self.name}, turns={self.turns})"


#: The two independent characteristics: phases i and -i.
Q1 = Characteristic("Q1", 1)
Q2 = Characteristic("Q2", -1)

#: Deliberately wrong characteristic Q(n, u) = u, for detector sanity.
#: It is not a symmetry of the recurrence, so the linearized-condition
#: residual must come out nonzero on generic samples.
counterfeit_characteristic = Characteristic("counterfeit", 0)


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
        if self.a + self.b * self.u0 * self.u2 == 0:
            raise DegenerateSample("sample has a + b*u0*u2 = 0")


def lsc_residual(q: CharacteristicFn, sample: LscSample) -> GaussianRational:
    """Exact residual of the linearized symmetry condition at a sample.

    With P = u_n*u_(n+2), D = a + b*P and the map value Psi = P/(u_(n+4)*D),
    the residual is

        Q(n+6, Psi) + P*Q(n+4, u_(n+4)) / (u_(n+4)^2 * D)
          - a*u_n*Q(n+2, u_(n+2)) / (u_(n+4) * D^2)
          - a*u_(n+2)*Q(n, u_n) / (u_(n+4) * D^2)

    and vanishes identically for the true characteristics Q1 and Q2.  Each
    real coefficient is formed once: P/(u_(n+4)^2 * D) = Psi/u_(n+4), and
    a/(u_(n+4) * D^2) is shared by the last two terms.  `q` is called at
    n, n+2, n+4 and n+6, so any characteristic is evaluated exactly.
    """
    n, u0, u2, u4 = sample.n, sample.u0, sample.u2, sample.u4
    p = u0 * u2
    d = sample.a + sample.b * p
    u4d = u4 * d
    psi = p / u4d
    c = sample.a / (u4d * d)
    return (
        q(n + 6, psi)
        + q(n + 4, u4) * (psi / u4)
        - q(n + 2, u2) * (c * u0)
        - q(n, u0) * (c * u2)
    )


# ---------------------------------------------------------------------------
# Phase-sum check: reduced determining system and generators
# ---------------------------------------------------------------------------

class RootCheckFailure(_Record):
    """A phase-sum check that failed: `value` = beta_n + beta_(n+2) != 0
    for the root named `root`."""

    __slots__ = ("root", "n", "value")

    def __init__(self, root: str, n: int, value: GaussianRational):
        object.__setattr__(self, "root", root)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "value", value)


class PhaseSumReport(_Record):
    """Outcome of checking beta_n + beta_(n+2) = 0 over n <= n_max."""

    __slots__ = ("n_max", "failures")

    def __init__(self, n_max: int, failures: tuple[RootCheckFailure, ...]):
        object.__setattr__(self, "n_max", n_max)
        object.__setattr__(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return not self.failures


RootFn = Callable[[int], GaussianRational]


def _phase_sum_check(n_max: int, roots: "Sequence[tuple[str, RootFn]]") -> PhaseSumReport:
    """Test beta_n against -beta_(n+2); the sum is formed only for a failure."""
    failures = []
    for name, beta in roots:
        for n in range(n_max + 1):
            first, second = beta(n), beta(n + 2)
            if first != -second:
                failures.append(RootCheckFailure(root=name, n=n, value=first + second))
    return PhaseSumReport(n_max=n_max, failures=tuple(failures))


_DEFAULT_ROOTS = (("i^n", Q1.phase_power), ("(-i)^n", Q2.phase_power))

_GENERATORS = {"X1": Q1, "X2": Q2}


def verify_reduced_system(
    n_max: int,
    roots: "Sequence[tuple[str, RootFn]] | None" = None,
) -> PhaseSumReport:
    """Check beta_n + beta_(n+2) = 0 exactly for every root and n <= n_max.

    The default roots are the two solutions i^n and (-i)^n, the phase powers
    of Q1 and Q2; passing a counterfeit root (e.g. the constant 1) exercises
    the detector.  The companion equation of the reduced system forces the
    quadratic part of the characteristic to vanish identically, so there is
    nothing to evaluate for it.
    """
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")
    return _phase_sum_check(n_max, _DEFAULT_ROOTS if roots is None else roots)


def generator_annihilates_invariant(
    variant: str,
    n_max: int,
    characteristic: "Characteristic | None" = None,
) -> PhaseSumReport:
    """Check that the prolonged generator kills the logarithmic invariant.

    Applying the generator to S_n*phase^n + S_(n+2)*phase^(n+2) leaves the
    coefficient sum phase^n + phase^(n+2), which must vanish exactly for
    every n <= n_max.  Variant "X1" uses the phase of Q1 (i), "X2" that of
    Q2 (-i); an explicit `characteristic` override (e.g.
    `counterfeit_characteristic`, phase 1) exercises the detector.
    """
    if variant not in _GENERATORS:
        raise ValueError(f"variant must be 'X1' or 'X2', got {variant!r}")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    q = _GENERATORS[variant] if characteristic is None else characteristic
    return _phase_sum_check(n_max, ((variant, q.phase_power),))

