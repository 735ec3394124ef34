"""General closed-form solution of the order-six product recurrence.

The recurrence conserves V_n = 1/(u_n * u_(n+2)) up to an affine step:
V_(n+4) = a_n * V_n + b_n.  Solving that first-order affine recurrence on
each residue class mod 4 gives

    V_(4n+j) = V_j * prod(a_(4k+j), k < n)
               + sum(b_(4l+j) * prod(a_(4k+j), l < k < n), l < n)

with V_j = 1/(u_j * u_(j+2)) from the seeds, and every orbit term follows by
telescoping:

    u_(4n+j) = u_j * prod(V_(4s+j) / V_(4s+j+2), s < n),   j = 0..3.

`v_closed` transcribes the product/sum literally (O(n^2) per V) and
serves as the independent check.  Everything else reads V from one
lazily extended table: one column per residue class, grown by the affine
step itself at one multiply-add per block.  The terms are the shared
telescoping product `core._Telescope` over the factor column
f(r, t) = V_(4t+r) of that table; it states the block memo, the check order
and the per-thread slot rule.  `term`, `terms`, `well_defined` and
`unified_exponent` all read this engine's slot, so x_lo..x_hi costs O(1)
rational operations per term whether asked as one range or index by index,
in any order.  The slot holds every x formed, O(N^3) bits up to x_N.

A vanishing V in a denominator is exactly the well-definedness failure of
the closed form, and corresponds one-to-one with the direct iteration
hitting a zero denominator (at step v_index - 4).  Every breakdown is
therefore reported as `SingularClosedForm(v_index)`, the index of the one
vanishing V, from which the class, factor and halt step follow; the guard
`well_defined` scans V_4, ..., V_(4*horizon+5) in that order.

There is also a unified magnitude formula over the complex unit i:

    |u_n| = exp( i^n c1 + (-i)^n c2 + sum(Re[i^(n-k)] * ln|V_k|, k < n) )

with c1 + c2 = ln|u_0| and i*(c1 - c2) = ln|u_1|.  That path recovers
magnitudes only (in floating point); signs live on the exact path.  Every
phase, exact or floating, is read from the one cycle `core.i_power`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

from .core import (
    CoefficientSequence,
    GaussianRational,
    InitialConditions,
    OutOfHorizon,
    OutOfRange,
    SingularClosedForm,
    _last_solved,
    _Telescope,
    i_power,
    log_abs,
)
from .oracle import Orbit

__all__ = [
    "gamma",
    "verify_gamma_identities",
    "v_closed",
    "term",
    "terms",
    "WellDefViolation",
    "WellDefinednessReport",
    "well_defined",
    "canonical_coordinate",
    "UnifiedConstants",
    "unified_constants",
    "unified_exponent",
    "unified_magnitude",
]

# ---------------------------------------------------------------------------
# The phase kernel
# ---------------------------------------------------------------------------

def gamma(n: int, k: int) -> GaussianRational:
    """The phase kernel i^n * (-i)^k = i^(n-k), exact."""
    return i_power(n - k)


def verify_gamma_identities(limit: int) -> list[str]:
    """Check all seven structural identities of the phase kernel.

    Returns a list of human-readable failures (empty when everything holds)
    for all n, k in 0..limit.  The kernel is `i_power(n - k)`, a lookup on
    (n - k) mod 4, so one period, n, k in 0..min(limit, 3), covers them all.
    """
    failures = []
    one = GaussianRational(1)
    if gamma(0, 1) != i_power(-1):
        failures.append("gamma(0,1) != conj(i)")
    if gamma(1, 0) != i_power(1):
        failures.append("gamma(1,0) != i")
    period = range(min(limit, 3) + 1)
    for n in period:
        for k in period:
            g = gamma(n, k)
            if n == k and g != one:
                failures.append(f"gamma({n},{n}) != 1")
            if gamma(n + 2, k) != -g:
                failures.append(f"gamma({n}+2,{k}) != -gamma({n},{k})")
            if gamma(n, k + 2) != -g:
                failures.append(f"gamma({n},{k}+2) != -gamma({n},{k})")
            if gamma(4 * n, k) != gamma(0, k):
                failures.append(f"gamma(4*{n},{k}) != gamma(0,{k})")
            if gamma(n, 4 * k) != gamma(n, 0):
                failures.append(f"gamma({n},4*{k}) != gamma({n},0)")
    return failures


# ---------------------------------------------------------------------------
# Closed form for the invariant
# ---------------------------------------------------------------------------

def v_closed(
    j: int, n: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> Fraction:
    """V_(4n+j) by the explicit product/sum solution of the affine step.

    Empty products are 1 and empty sums are 0, so n = 0 returns the seed
    invariant V_j = 1/(u_j * u_(j+2)).
    """
    if not 0 <= j <= 3:
        raise OutOfRange("residue class", j)
    if n < 0:
        raise OutOfRange("block index", n)
    v_seed = 1 / ic.seed_product(j)
    full = Fraction(1)
    for k1 in range(n):
        full *= coeffs.a_at(4 * k1 + j)
    acc = v_seed * full
    for l in range(n):
        tail = Fraction(1)
        for k2 in range(l + 1, n):
            tail *= coeffs.a_at(4 * k2 + j)
        acc += coeffs.b_at(4 * l + j) * tail
    return acc


# ---------------------------------------------------------------------------
# Closed form for orbit terms
# ---------------------------------------------------------------------------

class _InvariantTable:
    """V_k for k >= 0, one column per residue class, extended on demand.

    Column j starts at the seed invariant V_j and grows by the affine step
    V_(k+4) = a_k * V_k + b_k, one coefficient pair per block, so it reads
    no coefficient beyond what the largest requested V needs.  Called as
    (r, t) it is the telescope's factor column V_(4t+r).
    """

    def __init__(self, ic: InitialConditions, coeffs: CoefficientSequence):
        self._coeffs = coeffs
        self._columns = [[1 / ic.seed_product(j)] for j in range(4)]

    def __call__(self, r: int, t: int) -> Fraction:
        column = self._columns[r]
        while len(column) <= t:
            a, b = self._coeffs.pair_at(4 * (len(column) - 1) + r)
            column.append(a * column[-1] + b)
        return column[t]

    def v(self, k: int) -> Fraction:
        return self(k % 4, k // 4)

    def nonzero(self, k: int) -> Fraction:
        """V_k, or `SingularClosedForm(k)` when it vanishes."""
        v = self.v(k)
        if v == 0:
            raise SingularClosedForm(k)
        return v


def _solved(ic: InitialConditions, coeffs: CoefficientSequence) -> _Telescope:
    """This engine's slot on the calling thread, for (ic, coeffs)."""
    return _last_solved("closedform", (ic, coeffs),
                        lambda: _Telescope(ic.values, _InvariantTable(ic, coeffs)))


def terms(
    lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> Iterator[Fraction]:
    """Exact x_lo, ..., x_hi from the telescoping product over one V table.

    Each term after the first of its class costs one V ratio.  At the first
    index that fails, raises what `term` raises there.  The iterator extends
    the calling thread's slot, so consume it on that thread.
    """
    telescope = _solved(ic, coeffs)
    return (telescope.x(m) for m in range(lo, hi + 1))


def term(m: int, ic: InitialConditions, coeffs: CoefficientSequence) -> Fraction:
    """Exact x_m from the telescoping product of closed-form V values.

    Raises `SingularClosedForm` when a required V vanishes; that happens
    iff direct iteration halts on a zero denominator at step v_index - 4.
    """
    return _solved(ic, coeffs).x(m)


# ---------------------------------------------------------------------------
# Well-definedness guard
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WellDefViolation:
    """One failed well-definedness inequality.

    Built from `v_index`, the index of the vanishing V, alone.  `j` is that
    V's residue class, j = v_index mod 4 (`SingularClosedForm` instead names
    the product class (v_index - 2) mod 4), `s` the block parameter of the
    inequality, and `halt_step` the iteration step at which direct iteration
    hits the matching zero denominator (always v_index - 4).
    """

    v_index: int

    @property
    def j(self) -> int:
        return self.v_index % 4

    @property
    def s(self) -> int:
        return (self.v_index - 2) // 4

    @property
    def halt_step(self) -> int:
        return self.v_index - 4


@dataclass(frozen=True)
class WellDefinednessReport:
    """Outcome of `well_defined`; violations are in ascending `v_index`."""

    horizon: int
    violations: tuple[WellDefViolation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def first_halt_step(self) -> "int | None":
        if not self.violations:
            return None
        return self.violations[0].halt_step


def well_defined(
    ic: InitialConditions, coeffs: CoefficientSequence, horizon: int
) -> WellDefinednessReport:
    """Check every closed-form denominator inequality up to `horizon`.

    For offset i = 0 with j in {0,1} and i = 1 with j in {2,3}, and every
    s <= horizon, the guard requires

        -u_j * u_(j+2) * sum(b_(4l+j) * prod(a_(4k+j), l < k <= s-i), l <= s-i)
            != prod(a_(4k+j), k <= s-i),

    i.e. u_j*u_(j+2)*V_(4(s-i+1)+j) != 0 (s - i < 0 gives the trivial
    0 != 1).  Over every j and s these are exactly V_4, ..., V_(4*horizon+5)
    != 0, so the guard scans that range in ascending order, which is also
    ascending halt step.  Violations are data, not errors; each one
    pinpoints the iteration step where the orbit must die.  The six
    nonzero-seed requirement is enforced by `InitialConditions` itself.
    For explicit coefficient lists the scan stops where the coefficients
    run out (V_k needs coefficient k - 4).
    """
    if horizon < 0:
        raise ValueError(f"horizon must be >= 0, got {horizon}")
    table = _solved(ic, coeffs).source
    violations = []
    for v_index in range(4, 4 * horizon + 6):
        try:
            v = table.v(v_index)
        except OutOfHorizon:
            break
        if v == 0:
            violations.append(WellDefViolation(v_index))
    return WellDefinednessReport(horizon=horizon, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Canonical coordinate and unified magnitude (floating point)
# ---------------------------------------------------------------------------

def canonical_coordinate(n: int, orbit: Orbit) -> complex:
    """S_n = i^(-n) * ln|u_n| in complex floating point."""
    if n < 0:
        raise OutOfRange("orbit term u", n)
    return complex(i_power(-n)) * log_abs(orbit.u(n))


@dataclass(frozen=True)
class UnifiedConstants:
    """Integration constants of the unified magnitude formula.

    They satisfy c1 + c2 = ln|u_0| and i*(c1 - c2) = ln|u_1|, hence are
    complex conjugates of each other.
    """

    c1: complex
    c2: complex


def unified_constants(ic: InitialConditions) -> UnifiedConstants:
    ln_u0 = log_abs(ic.u(0))
    ln_u1 = log_abs(ic.u(1))
    return UnifiedConstants(
        c1=complex(ln_u0 / 2.0, -ln_u1 / 2.0),
        c2=complex(ln_u0 / 2.0, ln_u1 / 2.0),
    )


def unified_exponent(
    n: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> complex:
    """The full exponent i^n c1 + (-i)^n c2 + sum(Re[gamma(n,k)] ln|V_k|).

    The expression is real up to rounding; callers may assert a negligible
    imaginary part.  Raises `SingularClosedForm` if some V_k with k < n
    vanishes.
    """
    if n < 0:
        raise OutOfRange("orbit term u", n)
    consts = unified_constants(ic)
    total = complex(i_power(n)) * consts.c1 + complex(i_power(-n)) * consts.c2
    table = _solved(ic, coeffs).source
    # Extend every column before checking any V, so a short explicit list
    # raises OutOfHorizon ahead of a singularity, as in `terms`.
    for k in range(max(n - 4, 0), n):
        table.v(k)
    for k in range(n):
        re_gamma = gamma(n, k).real
        v_k = table.nonzero(k)
        if re_gamma != 0:
            total += float(re_gamma) * log_abs(v_k)
    return total


def unified_magnitude(
    n: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> float:
    """|u_n| = |x_(n-5)| from the unified exponential formula (float path).

    Past the float range the value saturates: `math.inf` when the exponent
    overflows `math.exp`, as the CLI's float column does for huge terms, and
    0.0 when it underflows.  `unified_exponent` keeps the exact logarithm.
    """
    try:
        return math.exp(unified_exponent(n, ic, coeffs).real)
    except OverflowError:
        return math.inf
