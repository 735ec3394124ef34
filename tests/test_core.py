"""Core value types: rationals, Gaussian rationals, sequences, seeds."""

import copy
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixrde import (
    CoefficientSequence,
    GaussianRational,
    I,
    InitialConditions,
    OutOfHorizon,
    SingularClosedForm,
    WellDefViolation,
    ZeroInitialValue,
    as_rational,
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


scalars = st.one_of(st.booleans(), st.integers(-(10**6), 10**6), rationals)


@given(gaussians, scalars)
@settings(max_examples=80)
def test_gaussian_real_scalar_paths_match_the_gaussian_operation(z, r):
    g = GaussianRational(r)
    assert z * r == z * g
    assert r * z == g * z
    assert z + r == z + g
    assert r + z == g + z
    assert z - r == z - g
    assert r - z == g - z
    for value in (z * r, r * z, z + r, r + z, z - r, r - z):
        assert type(value) is GaussianRational
        assert type(value.real) is Fraction and type(value.imag) is Fraction


def test_gaussian_rational_parts_cannot_be_assigned_or_deleted():
    z = GaussianRational(1, 2)
    for name in ("real", "imag"):
        with pytest.raises(AttributeError):
            setattr(z, name, Fraction(3))
        with pytest.raises(AttributeError):
            delattr(z, name)
    with pytest.raises(AttributeError):
        z.other = 1
    assert z == GaussianRational(1, 2)


@given(gaussians)
def test_equal_gaussian_rationals_hash_equal(z):
    twin = GaussianRational(str(z.real), z.imag)
    assert twin == z and twin is not z
    assert hash(twin) == hash(z)
    assert len({z, twin, z + 0}) == 1


def test_gaussian_rational_constructor_contract():
    assert GaussianRational("1/2", 3) == GaussianRational(Fraction(1, 2), Fraction(3))
    assert GaussianRational() == GaussianRational(0, 0)
    with pytest.raises(TypeError):
        GaussianRational(0.5)
    with pytest.raises(TypeError):
        GaussianRational(1, 0.5)
    assert (GaussianRational(1) == 1) is False
    assert GaussianRational(1) != 1
    assert repr(GaussianRational(Fraction(-3, 4), 2)) == "GaussianRational(-3/4, 2)"
    z = GaussianRational(Fraction(-3, 4), 2)
    assert pickle.loads(pickle.dumps(z)) == z
    assert copy.deepcopy(z) == z


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
