"""Symmetry layer: characteristics, LSC residuals, reduced system, generators."""

import random
from fractions import Fraction

import pytest

from sixrde import (
    Characteristic,
    DegenerateSample,
    GaussianRational,
    LscSample,
    Q1,
    Q2,
    counterfeit_characteristic,
    generator_annihilates_invariant,
    i_power,
    lsc_residual,
    verify_reduced_system,
)

from conftest import random_rational


def random_sample(rng):
    while True:
        n = rng.randrange(0, 48)
        u0 = random_rational(rng, nonzero=True)
        u2 = random_rational(rng, nonzero=True)
        u4 = random_rational(rng, nonzero=True)
        a = random_rational(rng, lo=-5, hi=5, max_den=5)
        b = random_rational(rng, lo=-5, hi=5, max_den=5)
        if a + b * u0 * u2 != 0:
            return LscSample(n=n, u0=u0, u2=u2, u4=u4, a=a, b=b)


# ---------------------------------------------------------------------------
# Characteristics
# ---------------------------------------------------------------------------

def test_characteristic_values():
    u = Fraction(3, 2)
    assert Q1(0, u) == GaussianRational(u)
    assert Q1(2, u) == GaussianRational(-u)
    assert Q2(1, 3) == GaussianRational(0, -3)


def test_characteristics_are_quarter_turns_of_i():
    # A running product of the phase is the reference for the i_power cycle.
    us = (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(22, 5))
    for q in (Q1, Q2, counterfeit_characteristic):
        phase = i_power(q.turns)
        phase_n = GaussianRational(1)
        for n in range(0, 61):
            for u in us:
                assert q(n, u) == phase_n * u
            phase_n = phase_n * phase


def test_characteristics_rotate_without_a_gaussian_multiply(monkeypatch):
    # Every phase is a unit, so Q(n, u) is a quarter-turn rotation of u; it
    # must equal i^(turns*n) * u for every n, negative ones included, without
    # calling the Gaussian product.  The reference is computed before the
    # product is disabled.
    us = (0, Fraction(1), Fraction(-7, 3), Fraction(22, 5))
    characteristics = (Q1, Q2, counterfeit_characteristic, Characteristic("t2", 2))
    ns = range(-8, 61)
    expected = {
        (q.name, n, u): i_power(q.turns * n) * u
        for q in characteristics for n in ns for u in us
    }

    def no_multiply(self, other):
        raise AssertionError("a characteristic used the Gaussian product")

    monkeypatch.setattr(GaussianRational, "__mul__", no_multiply)
    monkeypatch.setattr(GaussianRational, "__rmul__", no_multiply)
    for q in characteristics:
        for n in ns:
            for u in us:
                assert q(n, u) == expected[q.name, n, u]


def test_characteristics_have_period_four_and_kill_zero():
    for q in (Q1, Q2):
        for n in range(0, 12):
            assert q(n + 4, Fraction(5, 3)) == q(n, Fraction(5, 3))
        assert not q(7, 0)


# ---------------------------------------------------------------------------
# Linearized symmetry condition
# ---------------------------------------------------------------------------

def test_lsc_residual_vanishes_for_both_characteristics():
    rng = random.Random(404)
    for _ in range(100):
        sample = random_sample(rng)
        assert not lsc_residual(Q1, sample)
        assert not lsc_residual(Q2, sample)


def test_lsc_residual_detects_counterfeit():
    sample = LscSample(n=0, u0=1, u2=1, u4=1, a=2, b=1)
    residual = lsc_residual(counterfeit_characteristic, sample)
    # direct evaluation: 2*b*P^2/(u4*D^2) with P=1, D=3
    assert residual == GaussianRational(Fraction(2, 9))


def test_degenerate_samples_are_rejected():
    with pytest.raises(DegenerateSample):
        LscSample(n=0, u0=0, u2=1, u4=1, a=1, b=1)
    with pytest.raises(DegenerateSample):
        LscSample(n=0, u0=1, u2=1, u4=1, a=1, b=-1)
    with pytest.raises(DegenerateSample):
        LscSample(n=-1, u0=1, u2=1, u4=1, a=2, b=1)


# ---------------------------------------------------------------------------
# Reduced determining system and generators
# ---------------------------------------------------------------------------

def test_reduced_system_roots_check_out():
    report = verify_reduced_system(50)
    assert report.ok
    # spot values: i^0 + i^2 = 0; (-i)^1 + (-i)^3 = 0
    assert i_power(0) + i_power(2) == GaussianRational(0)
    assert i_power(-1) + i_power(-3) == GaussianRational(0)


def test_reduced_system_detects_counterfeit_root():
    report = verify_reduced_system(
        10, roots=(("1^n", lambda n: GaussianRational(1)),)
    )
    assert not report.ok
    first = report.failures[0]
    assert first.n == 0
    assert first.value == GaussianRational(2)


def test_generators_annihilate_invariant():
    for variant in ("X1", "X2"):
        report = generator_annihilates_invariant(variant, 50)
        assert report.ok
    # X2 at n = 3: (-i)^3 + (-i)^5 = i + (-i) = 0
    assert i_power(-3) + i_power(-5) == GaussianRational(0)


def test_generator_detects_counterfeit_phase():
    report = generator_annihilates_invariant(
        "X1", 5, characteristic=counterfeit_characteristic
    )
    assert not report.ok
    assert report.failures[0].value == GaussianRational(2)


def test_generator_validates_variant():
    with pytest.raises(ValueError):
        generator_annihilates_invariant("X3", 5)

