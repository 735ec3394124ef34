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
step itself, each new V a reduced integer pair built from the
coefficients' step-table row and the last V with one gcd of small numbers.
The terms are the shared telescoping product `core._Telescope` over the factor
sequence f(k) = V_k of that table; it states the block memo, the check
order, the per-thread slot rule and the block step on integer parts.
`term`, `terms`, `_items` (the CLI's), `well_defined` and
`unified_exponent` all read this engine's slot, keyed on (ic, coeffs), so
x_lo..x_hi costs O(1) rational operations per term whether asked as one
range or index by index, in any order.  The slot holds every x formed,
O(N^3) bits up to x_N.

A vanishing V in a denominator is exactly the well-definedness failure of
the closed form, and corresponds one-to-one with the direct iteration
hitting a zero denominator (at step v_index - 4).  Every breakdown is
therefore reported as `SingularClosedForm(v_index)`, the index of the one
vanishing V, from which the class, factor and halt step follow; the guard
`well_defined` scans V_4, ..., V_(4*horizon+5) in that order.

The paper's unified magnitude formula over the complex unit i,

    ln|u_n| = i^n c1 + (-i)^n c2 + sum(Re[i^(n-k)] * ln|V_k|, k < n),

c1 + c2 = ln|u_0|, i*(c1 - c2) = ln|u_1|, is real term by term: Re[i^d] is
`symmetry.Q1`'s table 1, 0, -1, 0 for d = 0..3 (mod 4), and the constants
give +-ln|u_(n mod 2)|, + for n = 0, 1 (mod 4).  `unified_exponent` sums it
in that real form, in floating point and in the same order, so the float is
the same up to the sign of an exact zero.  It recovers magnitudes only;
signs live on the exact path.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .core import (
    CoefficientSequence,
    InitialConditions,
    OutOfHorizon,
    OutOfRange,
    SingularClosedForm,
    _Record,
    _solved,
    log_abs,
)
from .symmetry import verify_gamma_identities  # noqa: F401  (bench/tracer.py reads it here)

__all__ = [
    "v_closed",
    "term",
    "terms",
    "WellDefViolation",
    "WellDefinednessReport",
    "well_defined",
    "unified_exponent",
    "unified_magnitude",
]

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
        raise OutOfRange("block", n)
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

def _reciprocal_product(u: Fraction, v: Fraction) -> tuple[int, int]:
    """1/(u*v) as a reduced pair (num, den), den > 0, with one gcd."""
    (u_num, u_den), (v_num, v_den) = u.as_integer_ratio(), v.as_integer_ratio()
    num, den = u_den * v_den, u_num * v_num
    g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
    return num // g, den // g


class _InvariantTable:
    """V_k for k >= 0, one column per residue class, extended on demand.

    Column j starts at the seed invariant V_j = 1/(u_j*u_(j+2)), reduced from
    the seeds' integer parts by one gcd, and grows by the affine step
    V_(k+4) = a_k * V_k + b_k, one coefficient pair per block, so it reads
    no coefficient beyond what the largest requested V needs.  Each V is
    stored as a reduced pair (v_num, v_den), v_den > 0.  Step k reduces

        (A*v_num + B*v_den) / (D*v_den)

    by one gcd of small integers, (A, B, D) being the oracle's step-table
    row, rather than a `Fraction` product and a sum.  Called with k it
    extends column k mod 4 (`_columns[r][t]` = V_(4t+r)) through V_k.
    """

    def __init__(self, ic: InitialConditions, coeffs: CoefficientSequence):
        self._steps = coeffs._step_table()
        self._columns = [[_reciprocal_product(u, v)]
                         for u, v in zip(ic.values, ic.values[2:])]

    def __call__(self, k: int) -> tuple[int, int]:
        column, (rows, horizon) = self._columns[k % 4], self._steps
        v_num, v_den = column[-1]
        for i in range(4 * len(column) - 4 + k % 4, k - 3, 4):  # V_(i+4) from V_i
            if i >= horizon:
                raise OutOfHorizon(i, horizon)
            A, B, D = rows[i % len(rows)]
            num, den = A * v_num + B * v_den, D * v_den
            g = math.gcd(num, den)
            v_num, v_den = num // g, den // g
            column.append((v_num, v_den))
        return column[k // 4]


def terms(
    lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> Iterator[Fraction]:
    """Exact x_lo, ..., x_hi from the telescoping product over one V table.

    Each term after the first of its class costs one V ratio.  At the first
    index that fails, raises what `term` raises there.  The iterator extends
    the calling thread's slot, so consume it on that thread.
    """
    telescope = _solved("closedform", _InvariantTable, ic, coeffs)
    return (telescope.x(m) for m in range(lo, hi + 1))


def _items(lo: int, hi: int, ic: InitialConditions, coeffs: CoefficientSequence):
    """`terms` as `_Telescope.items` gives them, (num, den, hint), for the CLI."""
    return _solved("closedform", _InvariantTable, ic, coeffs).items(lo, hi)


def term(m: int, ic: InitialConditions, coeffs: CoefficientSequence) -> Fraction:
    """Exact x_m from the telescoping product of closed-form V values.

    Raises `SingularClosedForm` when a required V vanishes; that happens
    iff direct iteration halts on a zero denominator at step v_index - 4.
    """
    return _solved("closedform", _InvariantTable, ic, coeffs).x(m)


# ---------------------------------------------------------------------------
# Well-definedness guard
# ---------------------------------------------------------------------------

class WellDefViolation(_Record):
    """One failed well-definedness inequality.

    Built from `v_index`, the index of the vanishing V, alone.  `j` is that
    V's residue class, j = v_index mod 4 (`SingularClosedForm` instead names
    the product class (v_index - 2) mod 4), `s` the block parameter of the
    inequality, and `halt_step` the iteration step at which direct iteration
    hits the matching zero denominator (always v_index - 4).
    """

    __slots__ = ("v_index",)

    @property
    def j(self) -> int:
        return self.v_index % 4

    @property
    def s(self) -> int:
        return (self.v_index - 2) // 4

    @property
    def halt_step(self) -> int:
        return self.v_index - 4


class WellDefinednessReport(_Record):
    """Outcome of `well_defined`; violations are in ascending `v_index`."""

    __slots__ = ("horizon", "violations")

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
    table = _solved("closedform", _InvariantTable, ic, coeffs).f
    # V_k needs coefficient k - 4, so a list of `length` (inf for a period)
    # ends the scan before V_(length+4).  Extend each column to its last V.
    length = table._steps[1]
    stop = min(4 * horizon + 6, length + 4)
    for v_index in range(stop - 4, stop):
        table(v_index)
    violations = [WellDefViolation(v_index) for v_index in range(4, stop)
                  if table._columns[v_index % 4][v_index // 4][0] == 0]
    return WellDefinednessReport(horizon=horizon, violations=tuple(violations))


# ---------------------------------------------------------------------------
# Unified magnitude (floating point)
# ---------------------------------------------------------------------------

def unified_exponent(
    n: int, ic: InitialConditions, coeffs: CoefficientSequence
) -> float:
    """ln|u_n| = +-ln|u_(n mod 2)| + sum(ln|V_k|, k = n) - sum(ln|V_k|, k = n+2),
    k < n and k taken mod 4, with + for n = 0, 1 (mod 4).

    Raises `SingularClosedForm(k)` at the first vanishing V_k, k < n, in
    ascending k, whatever its class.
    """
    if n < 0:
        raise OutOfRange("orbit term u", n)
    table = _solved("closedform", _InvariantTable, ic, coeffs).f
    # Extend every column before checking any V, so a short explicit list
    # raises OutOfHorizon ahead of a singularity, as in `terms`.
    for k in range(max(n - 4, 0), n):
        table(k)
    total = log_abs(ic.values[n % 2])
    if n % 4 >= 2:
        total = -total
    for k in range(n):
        v_num, v_den = table._columns[k % 4][k // 4]
        if v_num == 0:
            raise SingularClosedForm(k)
        if (n - k) % 4 == 0:
            total += math.log(abs(v_num)) - math.log(v_den)
        elif (n - k) % 4 == 2:
            total -= math.log(abs(v_num)) - math.log(v_den)
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
        return math.exp(unified_exponent(n, ic, coeffs))
    except OverflowError:
        return math.inf
