"""Symmetry layer: characteristics, LSC residuals, reduced system, generators."""

import random
from fractions import Fraction

import pytest

from sixrde import (
    Characteristic,
    DegenerateSample,
    LscSample,
    Q1,
    Q2,
    counterfeit_characteristic,
    generator_annihilates_invariant,
    lsc_residual,
    verify_reduced_system,
)
from sixrde.symmetry import _phase_sum_check

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
    assert Q1(0, u) == u
    assert Q1(2, u) == -u
    assert Q2(1, 3) == 3
    assert Q2(0, u) == 0
    with pytest.raises(ValueError):
        Characteristic("short", (1, 0, -1))
    with pytest.raises(TypeError):
        Characteristic("float", (1.0, 0, -1, 0))


def test_characteristics_are_quarter_turns_of_i():
    # A running product of i is the reference: its parts are exactly 0 and
    # +-1, and Q1, Q2 are the real and imaginary parts of i^n * u, for every
    # n, negative ones included.
    us = (Fraction(0), Fraction(1), Fraction(-7, 3), Fraction(22, 5))
    phase_n = 1 + 0j  # i^-8
    for n in range(-8, 61):
        re, im = int(phase_n.real), int(phase_n.imag)
        for u in us:
            values = (Q1(n, u), Q2(n, u), counterfeit_characteristic(n, u))
            assert values == (re * u, im * u, u)
            assert all(type(value) is Fraction for value in values)
        phase_n *= 1j


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
    assert type(residual) is Fraction and residual == Fraction(2, 9)


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
    # spot values: Re(i^0 + i^2) = 0; Im(i^1 + i^3) = 0
    assert Q1.coefficient(0) + Q1.coefficient(2) == 0
    assert Q2.coefficient(1) + Q2.coefficient(3) == 0


def test_reduced_system_detects_counterfeit_root():
    report = _phase_sum_check(10, (("1^n", counterfeit_characteristic),))
    assert not report.ok
    first = report.failures[0]
    assert first.n == 0
    assert first.value == Fraction(2)


def test_generators_annihilate_invariant():
    for variant in ("X1", "X2"):
        report = generator_annihilates_invariant(variant, 50)
        assert report.ok
    # X2 at n = 3: Im(i^3 + i^5) = -1 + 1 = 0
    assert Q2.coefficient(3) + Q2.coefficient(5) == 0


def test_generator_detects_counterfeit_phase():
    report = _phase_sum_check(5, (("1^n", counterfeit_characteristic),))
    assert not report.ok
    assert report.failures[0].value == Fraction(2)


def test_the_phase_sum_checks_reach_every_n_up_to_n_max(monkeypatch):
    # A table that goes wrong only from |n| = 42 on is caught first at
    # n = 40, where alpha_(n+2) reads it; a check cut short of n_max misses it.
    real = Characteristic.coefficient
    monkeypatch.setattr(Characteristic, "coefficient",
                        lambda q, n: real(q, n + 1) if abs(n) >= 42 else real(q, n))
    for report, roots in ((verify_reduced_system(50), {"Re(i^n)", "Im(i^n)"}),
                          (generator_annihilates_invariant("X1", 50), {"X1"}),
                          (generator_annihilates_invariant("X2", 50), {"X2"})):
        assert not report.ok
        assert min(failure.n for failure in report.failures) == 40
        assert {failure.root for failure in report.failures if failure.n == 40} == roots
    assert verify_reduced_system(39).ok


def test_generator_validates_variant():
    with pytest.raises(ValueError):
        generator_annihilates_invariant("X3", 5)

