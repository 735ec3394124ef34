"""Seeded input generator for the benchmark (stdlib only, never imports sixrde).

Everything is drawn from ``random.Random(seed)``, so one seed always gives the
same specs, instances and samples.  The value ranges fix the bit height the
workloads run at:

- seeds x_(-5)..x_0 are nonzero p/q with |p|, q <= 9;
- every coefficient a that is not pinned to 1 or -1 is +-2 or +-1/2, so
  term height grows at about the same rate for every seed and stays below
  Python's 4300-digit int->str limit at N = 400.  The seed picks only the
  signs where it could change that rate: a constant a is +-2, and the |a_n| of
  a periodic or list family alternate 2, 1/2, 2, ... (which |a| two residue
  classes pair up changes the height by half);
- every b is a nonzero p/q with |p|, q <= 3.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from fractions import Fraction

import reference

SEED_LIMIT = 9
B_LIMIT = 3
A_VALUES = (Fraction(2), Fraction(-2), Fraction(1, 2), Fraction(-1, 2))

#: Coefficient families, in schedule order.  ``constant`` has a != +-1.
FAMILIES = (
    "constant",
    "constant_a1",
    "constant_a_neg1",
    "periodic2",
    "periodic3",
    "periodic4",
    "list",
)


@dataclass(frozen=True)
class Instance:
    """Six seeds and a coefficient sequence, as plain Fractions."""

    family: str
    initial: tuple[Fraction, ...]
    kind: str  # "constant" | "periodic" | "list", as in spec files
    a: tuple[Fraction, ...]
    b: tuple[Fraction, ...]

    def coeff(self, n: int) -> tuple[Fraction, Fraction]:
        """(a_n, b_n); raises IndexError past the end of a list."""
        if self.kind == "list":
            return self.a[n], self.b[n]
        i = n % len(self.a)
        return self.a[i], self.b[i]

    def spec(self, horizon: int) -> dict:
        """The instance as a CLI problem-spec JSON object."""
        coeffs = {
            "kind": self.kind,
            "a": [reference.text(v) for v in self.a],
            "b": [reference.text(v) for v in self.b],
        }
        if self.kind == "periodic":
            coeffs["period"] = len(self.a)
        return {
            "initial": [reference.text(v) for v in self.initial],
            "coeffs": coeffs,
            "horizon": horizon,
        }


def _rational(rng: random.Random, limit: int) -> Fraction:
    while True:
        num = rng.randint(-limit, limit)
        if num:
            return Fraction(num, rng.randint(1, limit))


def draw_instance(rng: random.Random, family: str, list_length: int) -> Instance:
    initial = tuple(_rational(rng, SEED_LIMIT) for _ in range(6))
    if family.startswith("constant"):
        a = {"constant_a1": Fraction(1), "constant_a_neg1": Fraction(-1)}.get(
            family
        ) or rng.choice(A_VALUES[:2])
        return Instance(family, initial, "constant", (a,), (_rational(rng, B_LIMIT),))
    length = list_length if family == "list" else int(family.removeprefix("periodic"))
    a = tuple(A_VALUES[2 * (i % 2) + rng.randrange(2)] for i in range(length))
    b = tuple(_rational(rng, B_LIMIT) for _ in range(length))
    return Instance(family, initial, "list" if family == "list" else "periodic", a, b)


def draw_regular(
    rng: random.Random, family: str, steps: int, list_length: int
) -> Instance:
    """An instance whose orbit survives `steps` steps."""
    while True:
        inst = draw_instance(rng, family, list_length)
        if reference.orbit(inst, steps)[1] is None:
            return inst


def plant_singularity(inst: Instance, step: int) -> "Instance | None":
    """Rescale one seed so the orbit dies at exactly `step` (V_(step+4) = 0).

    On class J = (step+4) mod 4, V_(4s+J) = P*V_J + T with P, T from the
    coefficients, so V_J = -T/P makes it vanish; V_J = 1/(u_J*u_(J+2)) is
    then met by changing u_(J+2).  Returns None when that is impossible or
    the orbit would die earlier.
    """
    v = step + 4
    j, s = v % 4, v // 4
    prod, tail = Fraction(1), Fraction(0)
    for k in range(s):
        a, b = inst.coeff(4 * k + j)
        prod, tail = prod * a, tail * a + b
    if tail == 0 or prod == 0:
        return None
    initial = list(inst.initial)
    initial[j + 2] = 1 / ((-tail / prod) * initial[j])
    planted = replace(inst, initial=tuple(initial))
    if reference.orbit(planted, step + 1)[1] != step:
        return None
    return planted


def draw_singular(
    rng: random.Random, family: str, step: int, list_length: int
) -> Instance:
    """An instance whose orbit dies at exactly `step`.

    With a = -1 the invariant has period 2 in s, so it can only vanish at
    V_4..V_7: those instances die at step `step` mod 4 instead.
    """
    if family == "constant_a_neg1":
        step %= 4
    while True:
        planted = plant_singularity(draw_instance(rng, family, list_length), step)
        if planted is not None:
            return planted


@dataclass(frozen=True)
class LscDraw:
    """Raw fields of one linearized-symmetry-condition sample."""

    n: int
    u0: Fraction
    u2: Fraction
    u4: Fraction
    a: Fraction
    b: Fraction


def draw_lsc(rng: random.Random) -> LscDraw:
    while True:
        u0, u2, u4 = (_rational(rng, SEED_LIMIT) for _ in range(3))
        a, b = _rational(rng, SEED_LIMIT), _rational(rng, SEED_LIMIT)
        if a + b * u0 * u2 != 0:
            return LscDraw(rng.randrange(48), u0, u2, u4, a, b)
