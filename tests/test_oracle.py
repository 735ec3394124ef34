"""Direct iteration, the invariant sequence, and its affine recurrence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixrde import (
    CoefficientSequence,
    InvariantSequence,
    SingularityCause,
    TooShort,
    check_invariant_recurrence,
    invariant_sequence,
    iterate,
    make_initial_conditions,
)

from conftest import COEFF_KINDS, random_coefficients, random_initial_conditions

ONES = make_initial_conditions([1] * 6)
TRIVIAL = CoefficientSequence.constant(1, 0)


def test_all_ones_is_a_fixed_point():
    orbit = iterate(ONES, TRIVIAL, 20)
    assert orbit.halt is None
    assert all(t == 1 for t in orbit.terms)
    assert len(orbit.terms) == 26


def test_one_step_hand_value():
    ic = make_initial_conditions([1, 1, 1, 1, 2, 1])
    orbit = iterate(ic, TRIVIAL, 1)
    # x_1 = x_(-5)x_(-3) / (x_(-1)(1 + 0)) = 1/(2*1)
    assert orbit.x(1) == Fraction(1, 2)


def test_hand_computed_prefix():
    ic = make_initial_conditions([1, 1, 1, 1, 2, 1])
    orbit = iterate(ic, TRIVIAL, 7)
    expected = [1, 1, 1, 1, 2, 1] + [
        Fraction(1, 2), 1, 4, 1, Fraction(1, 4), 1, 8,
    ]
    assert list(orbit.terms) == expected


def test_forced_zero_denominator_halts_at_step_zero():
    orbit = iterate(ONES, CoefficientSequence.constant(1, -1), 10)
    assert orbit.halt is not None
    assert orbit.halt.step == 0
    assert orbit.halt.cause == SingularityCause.ZERO_DENOMINATOR_FACTOR
    assert len(orbit.terms) == 6  # seeds only


def test_invariant_sequence_all_ones():
    v = invariant_sequence(iterate(ONES, TRIVIAL, 10))
    assert all(value == 1 for value in v.values)


def test_invariant_sequence_hand_values():
    ic = make_initial_conditions([1, 1, 1, 1, 2, 1])
    orbit = iterate(ic, TRIVIAL, 10)
    v = invariant_sequence(orbit)
    assert v[0] == 1          # 1/(u_0 u_2)
    assert v[4] == 1          # 1/(u_4 u_6) = 1/(2 * 1/2)
    assert v[2] == Fraction(1, 2)  # 1/(u_2 u_4) = 1/(1 * 2)


def test_invariant_sequence_too_short():
    short = iterate(ONES, CoefficientSequence.constant(1, -1), 3)
    # halted orbit keeps its six seeds; craft a 2-term stand-in directly
    from sixrde import Orbit

    with pytest.raises(TooShort):
        invariant_sequence(Orbit(terms=(Fraction(1), Fraction(2))))
    assert short.halt is not None


def test_invariant_recurrence_residuals_zero_and_detector():
    ic = make_initial_conditions([1, 1, 1, 1, 2, 1])
    coeffs = CoefficientSequence.periodic([1, 2], [0, 1])
    orbit = iterate(ic, coeffs, 30)
    assert orbit.halt is None
    v = invariant_sequence(orbit)
    residuals = check_invariant_recurrence(v, coeffs)
    assert all(r == 0 for r in residuals)
    # corrupt V_4: the detector must flag residual 1 at n = 0
    corrupted = InvariantSequence(
        v.values[:4] + (v.values[4] + 1,) + v.values[5:]
    )
    bad = check_invariant_recurrence(corrupted, coeffs)
    assert bad[0] == 1
    assert all(r == 0 for r in bad[5:])


def test_invariant_recurrence_too_short():
    with pytest.raises(TooShort):
        check_invariant_recurrence(InvariantSequence((Fraction(1),) * 4), TRIVIAL)


def test_iterate_propagates_explicit_horizon():
    from sixrde import OutOfHorizon

    seq = CoefficientSequence.explicit([1, 1], [0, 0])
    with pytest.raises(OutOfHorizon):
        iterate(ONES, seq, 5)


def test_determinism():
    rng = random.Random(5)
    ic = random_initial_conditions(rng)
    coeffs = random_coefficients(rng, "periodic3")
    assert iterate(ic, coeffs, 40) == iterate(ic, coeffs, 40)


def test_random_orbits_conserve_the_affine_invariant():
    """200 random instances: halt cleanly or satisfy the recurrence exactly."""
    rng = random.Random(202)
    halted = 0
    for trial in range(200):
        ic = random_initial_conditions(rng)
        coeffs = random_coefficients(rng, COEFF_KINDS[trial % 4])
        orbit = iterate(ic, coeffs, 60)
        assert all(t != 0 for t in orbit.terms)
        if orbit.halt is not None:
            assert orbit.halt.cause == SingularityCause.ZERO_DENOMINATOR_FACTOR
            halted += 1
            continue
        v = invariant_sequence(orbit)
        assert all(r == 0 for r in check_invariant_recurrence(v, coeffs))
    # plenty of both outcomes should occur
    assert 0 < halted < 200


# Small values make zero denominator factors common.
_SMALL = st.sampled_from([Fraction(v) for v in ("-2", "-1", "-1/2", "0", "1/2", "1", "2")])


@st.composite
def _coefficients(draw):
    kind = draw(st.sampled_from(["constant", "periodic", "list"]))
    length = {"constant": 1, "periodic": draw(st.integers(1, 4)),
              "list": draw(st.integers(0, 40))}[kind]
    a = draw(st.lists(_SMALL, min_size=length, max_size=length))
    b = draw(st.lists(_SMALL, min_size=length, max_size=length))
    if kind == "constant":
        return CoefficientSequence.constant(a[0], b[0])
    if kind == "periodic":
        return CoefficientSequence.periodic(a, b)
    return CoefficientSequence.explicit(a, b)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    seeds=st.lists(_SMALL.filter(bool), min_size=6, max_size=6),
    coeffs=_coefficients(),
    count=st.integers(0, 40),
)
def test_terms_stay_nonzero_and_only_a_zero_factor_halts(seeds, coeffs, count):
    """Nonzero seeds and nonzero quotients: x_(n-1) can never vanish."""
    if coeffs.horizon is not None:
        count = min(count, coeffs.horizon)
    orbit = iterate(make_initial_conditions(seeds), coeffs, count)
    assert all(t != 0 for t in orbit.terms)
    if orbit.halt is not None:
        n = orbit.halt.step
        assert orbit.halt.cause == SingularityCause.ZERO_DENOMINATOR_FACTOR
        a, b = coeffs.pair_at(n)
        assert a + b * orbit.u(n) * orbit.u(n + 2) == 0
