"""Shared random-instance helpers for the test suite.

Instance generation uses seeded `random.Random` so every run exercises the
same instances.  Seeds live in [-10, 10] with denominators <= 10;
coefficients are kept a little smaller to curb bignum growth over long
orbits.
"""

from __future__ import annotations

import random
from fractions import Fraction

from sixrde import (
    CoefficientSequence,
    InitialConditions,
    SixrdeError,
    iterate,
    term,
    term_const_general,
)


def random_rational(rng: random.Random, lo=-10, hi=10, max_den=10, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, max_den))


def random_initial_conditions(rng: random.Random) -> InitialConditions:
    return InitialConditions(
        tuple(random_rational(rng, nonzero=True) for _ in range(6))
    )


def random_coefficients(rng: random.Random, kind: str) -> CoefficientSequence:
    def coeff():
        return random_rational(rng, lo=-5, hi=5, max_den=5)

    if kind == "constant":
        return CoefficientSequence.constant(coeff(), coeff())
    period = int(kind.removeprefix("periodic"))
    return CoefficientSequence.periodic(
        [coeff() for _ in range(period)], [coeff() for _ in range(period)]
    )


COEFF_KINDS = ("constant", "periodic2", "periodic3", "periodic4")


def random_instance(rng: random.Random, kind=None):
    if kind is None:
        kind = rng.choice(COEFF_KINDS)
    return random_initial_conditions(rng), random_coefficients(rng, kind)


def nonsingular_instance(rng: random.Random, steps: int, kind=None):
    """Draw instances until one survives `steps` iterations; return with orbit."""
    while True:
        ic, coeffs = random_instance(rng, kind)
        orbit = iterate(ic, coeffs, steps)
        if orbit.halt is None:
            return ic, coeffs, orbit


def range_window(rng: random.Random, orbit, top: int) -> tuple[int, int]:
    """An index window lo..hi, lo >= -5: anywhere up to `top` for an orbit that
    survived, and one reaching past the first singular index for a halted one."""
    if orbit.halt is None:
        lo = rng.randint(-5, top - 20)
        return lo, rng.randint(lo, top)
    singular = orbit.last_m + 1
    return rng.randint(-5, singular), singular + rng.randint(0, 8)


def values_until_error(values):
    """The values an iterable yields, and the sixrde error that ends it as
    (type name, message, attributes), or None if it runs out."""
    got = []
    try:
        for value in values:
            got.append(value)
    except SixrdeError as exc:
        return got, (type(exc).__name__, str(exc), vars(exc))
    return got, None


# Drawn instances keep |a| <= 5, so a = 1000 never equals one of them.
_UNDRAWN = (InitialConditions((7,) * 6), CoefficientSequence.constant(1000, 1000))


def start_cold():
    """Point each engine's per-thread slot for the last solved instance at
    one no test draws, so the next query builds its state from the seeds."""
    term(-5, *_UNDRAWN)
    term_const_general(-5, *_UNDRAWN)
