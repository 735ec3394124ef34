"""Core value types: rationals, Gaussian rationals, sequences, indexing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixrde import (
    CoefficientSequence,
    GaussianRational,
    I,
    IndexBelowSeed,
    InitialConditions,
    OutOfHorizon,
    SingularClosedForm,
    WellDefViolation,
    ZeroInitialValue,
    as_rational,
    decompose_index,
    format_rational,
    i_power,
    make_initial_conditions,
    parse_rational,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)
gaussians = st.builds(GaussianRational, rationals, rationals)


# ---------------------------------------------------------------------------
# Rational parsing / formatting
# ---------------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational(" 5/1 ") == 5


@pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "1/-2", "2 / 3", "a", ""])
def test_parse_rational_rejects_inexact_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_keeps_denominator_one():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


@given(rationals)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q


@given(rationals, rationals, rationals)
def test_rational_field_axioms_and_canonical_form(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    for value in (p + q, p * q, p - q):
        assert value.denominator > 0
        from math import gcd

        assert gcd(abs(value.numerator), value.denominator) == 1


def test_rational_division_by_zero_is_reported():
    with pytest.raises(ZeroDivisionError):
        Fraction(1) / Fraction(0)


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

def test_imaginary_unit_structure():
    assert I == GaussianRational(0, 1)
    assert I * I == GaussianRational(-1)
    assert I * GaussianRational(0, -1) == GaussianRational(1)


@given(gaussians, gaussians, gaussians)
@settings(max_examples=60)
def test_gaussian_ring_axioms(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@pytest.mark.parametrize("k", range(-9, 10))
def test_i_power_matches_repeated_multiplication(k):
    step = I if k >= 0 else GaussianRational(0, -1)
    expected = GaussianRational(1)
    for _ in range(abs(k)):
        expected = expected * step
    assert i_power(k) == expected


def test_gaussian_rational_converts_to_complex():
    assert complex(GaussianRational(Fraction(-3, 4), Fraction(1, 8))) == complex(-0.75, 0.125)
    for k in range(-9, 10):
        assert complex(i_power(k)) == 1j**k


def test_gaussian_rational_scalar_mixing():
    z = GaussianRational(1, 2)
    assert z + 1 == GaussianRational(2, 2)
    assert 2 * z == GaussianRational(2, 4)
    assert z * Fraction(1, 2) == GaussianRational(Fraction(1, 2), 1)
    assert 1 - z == GaussianRational(0, -2)


# ---------------------------------------------------------------------------
# Coefficient sequences
# ---------------------------------------------------------------------------

def test_constant_sequence_is_total():
    seq = CoefficientSequence.constant(3, Fraction(1, 2))
    assert seq.a_at(17) == 3
    assert seq.b_at(0) == Fraction(1, 2)
    assert seq.kind == "constant"


def test_periodic_sequence_wraps():
    seq = CoefficientSequence.periodic([5, 7], [1, 2])
    assert seq.a_at(3) == 7
    assert seq.a_at(4) == 5
    assert seq.b_at(5) == 2
    assert seq.period == 2


def test_explicit_list_reports_horizon():
    seq = CoefficientSequence.explicit([1, 2, 3, 4], [0, 0, 0, 0])
    assert seq.a_at(3) == 4
    with pytest.raises(OutOfHorizon) as exc:
        seq.a_at(9)
    assert exc.value.n == 9
    assert seq.horizon == 4


def test_sequence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CoefficientSequence.periodic([], [])
    with pytest.raises(ValueError):
        CoefficientSequence.periodic([1], [1, 2])
    with pytest.raises(ValueError):
        CoefficientSequence.constant(1, 0).a_at(-1)


def test_sequence_structural_equality():
    assert CoefficientSequence.periodic([1, 2], [3, 4]) == CoefficientSequence.periodic(
        [1, 2], [3, 4]
    )
    assert CoefficientSequence.constant(1, 0) != CoefficientSequence.periodic([1], [0])


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def test_all_ones_seed_accepted():
    ic = make_initial_conditions([1, 1, 1, 1, 1, 1])
    assert ic.u(0) == 1 and ic.x(0) == 1


def test_zero_seed_rejected_with_position():
    with pytest.raises(ZeroInitialValue) as exc:
        make_initial_conditions([1, 1, 0, 1, 1, 1])
    assert exc.value.position == -3


def test_mixed_nonzero_rationals_accepted():
    ic = make_initial_conditions(
        [Fraction(2, 3), -1, 5, Fraction(7, 2), Fraction(-4, 9), 1]
    )
    assert ic.x(-5) == Fraction(2, 3)
    assert ic.u(5) == 1
    assert ic.seed_product(0) == Fraction(2, 3) * 5


def test_wrong_seed_count_rejected():
    with pytest.raises(ValueError):
        InitialConditions((Fraction(1),) * 5)


# ---------------------------------------------------------------------------
# Index decomposition
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "m,j,n", [(-5, 0, 0), (-1, 0, 1), (6, 3, 2), (-4, 1, 0), (0, 1, 1), (55, 0, 15)]
)
def test_decompose_index_examples(m, j, n):
    ti = decompose_index(m)
    assert (ti.j, ti.n) == (j, n)


def test_decompose_index_rejects_below_seed():
    with pytest.raises(IndexBelowSeed):
        decompose_index(-6)


def test_decompose_index_is_a_bijection():
    seen = set()
    for m in range(-5, 201):
        ti = decompose_index(m)
        assert 0 <= ti.j <= 3 and ti.n >= 0
        assert 4 * ti.n - 5 + ti.j == m
        seen.add((ti.j, ti.n))
    assert len(seen) == 206


@given(st.integers(min_value=-5, max_value=10**9))
def test_decompose_index_recomposes(m):
    ti = decompose_index(m)
    assert 4 * ti.n - 5 + ti.j == m


# ---------------------------------------------------------------------------
# Singular position
# ---------------------------------------------------------------------------

def test_singular_position_follows_from_the_vanishing_v_index():
    for v in range(4, 44):
        exc = SingularClosedForm(v)
        assert exc.v_index == v
        assert 0 <= exc.j <= 3 and exc.s >= 0
        assert 4 * exc.s + exc.j + 2 == v
        assert exc.halt_step == v - 4
        assert str(exc) == (
            f"closed form is singular: V_{v} = 0 (class j={exc.j}, factor s={exc.s})"
        )
        # The guard's violation names the V's own class, the product its
        # denominator's class; both give the same factor and halt step.
        violation = WellDefViolation(v)
        assert violation.j == v % 4
        assert (violation.s, violation.halt_step) == (exc.s, exc.halt_step)
    for v, position in ((4, "j=2, factor s=0"), (13, "j=3, factor s=2")):
        want = f"closed form is singular: V_{v} = 0 (class {position})"
        assert str(SingularClosedForm(v)) == want
