"""Symmetry layer: the characteristics' tables against powers of i, the LSC
sample's refusals, and the phase-sum checks' reach and failure reports.

That the residual vanishes for Q1 and Q2 at sampled points and not for the
counterfeit, and that the phase sums hold to n = 50, is acceptance
criterion 5; the residual's formula is `tests/test_proofs.py`'s, and the
`verify-symmetry` output (`tests/test_cli.py`) reports the residual only.
"""

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
    verify_reduced_system,
)
from sixrde.symmetry import _phase_sum_check


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
    phase_n = -1j  # i^-9
    for n in range(-9, 61):
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

def test_reduced_system_detects_counterfeit_root():
    # The one check behind the reduced system and both generators.
    report = _phase_sum_check(10, (("1^n", counterfeit_characteristic),))
    assert not report.ok
    first = report.failures[0]
    assert first.n == 0
    assert first.value == Fraction(2)


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


def test_a_passing_phase_sum_check_compares_integers_only(monkeypatch):
    # Each coefficient pair is compared through its numerators and
    # denominators: no Fraction is negated or compared while the checks hold.
    def forbidden(*args):
        raise AssertionError("a Fraction was negated or compared")

    monkeypatch.setattr(Fraction, "__neg__", forbidden)
    monkeypatch.setattr(Fraction, "__eq__", forbidden)
    reports = (verify_reduced_system(50), generator_annihilates_invariant("X1", 50),
               generator_annihilates_invariant("X2", 50))
    monkeypatch.undo()
    assert all(report.ok for report in reports)


def test_generator_validates_variant():
    with pytest.raises(ValueError):
        generator_annihilates_invariant("X3", 5)
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        generator_annihilates_invariant("X1", -1)
    with pytest.raises(ValueError, match="n_max must be >= 2, got 1"):
        verify_reduced_system(1)

