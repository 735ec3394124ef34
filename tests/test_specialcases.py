"""Dedicated special-case formulas against the oracle and the general path.

The contracts both product engines keep are checked once, over
`conftest.ENGINES`, in test_closedform.py."""

import itertools
import random
from fractions import Fraction

import pytest

from sixrde import (
    CoefficientSequence,
    ConstantCoeffs,
    InitialConditions,
    PeriodicCoeffs2,
    PeriodicCoeffs4,
    SingularClosedForm,
    WrongCase,
    iterate,
    term,
)
from sixrde import closedform, specialcases

from conftest import (
    ENGINES,
    count_normalisations,
    random_initial_conditions,
    random_rational,
    start_cold,
    values_until_error,
)

ONES = InitialConditions([1] * 6)


def small_coeff(rng):
    return random_rational(rng, lo=-5, hi=5, max_den=5)


# ---------------------------------------------------------------------------
# Case guards
# ---------------------------------------------------------------------------

def test_term_covers_a_equal_one_and_periods_one_and_two():
    # A constant a = 1 and 1- or 2-periodic sequences with a constant a are
    # special cases of the one product; the general closed form agrees.
    for coeffs in (
        ConstantCoeffs(1, 2),
        CoefficientSequence.periodic([2], [3]),
        CoefficientSequence.periodic([2, 2], [3, 3]),
    ):
        for m in range(-5, 20):
            assert specialcases.term(m, ONES, coeffs) == term(m, ONES, coeffs)


def test_special_terms_rejects_uncovered_sequences_when_called():
    for coeffs, got in (
        (CoefficientSequence.explicit([2] * 12, [3] * 12), "got kind 'list'"),
        (CoefficientSequence.periodic([2, 3, 4], [1, 1, 1]), "got period 3"),
        (CoefficientSequence.periodic([-1] * 3, [1] * 3), "got period 3"),
    ):
        with pytest.raises(WrongCase) as exc:
            specialcases.terms(-5, 10, ONES, coeffs)  # nothing iterated
        assert str(exc.value).endswith(got)
        with pytest.raises(WrongCase) as exc:
            specialcases.term(3, ONES, coeffs)
        assert str(exc.value).endswith(got)


def test_a_neg1_symmetric_seeds_are_constant():
    for n in range(0, 10):
        assert specialcases.term(4 * n - 5, ONES, ConstantCoeffs(-1, 2)) == 1


def test_vanishing_numerator_is_reported_by_its_own_index():
    # x_3 (class 0) meets V_4 = 0 as the numerator of factor s = 1, behind the
    # nonzero denominator V_6; every engine names V_4 (class 2, factor 0).
    ic = InitialConditions([1, 1, 1, 1, 2, 1])
    a, b = (1, 1, 1, 1), (-1, 0, 0, 0)
    for engine, _ in ENGINES.values():
        for coeffs in (PeriodicCoeffs4(a, b), ConstantCoeffs(-1, 1)):
            with pytest.raises(SingularClosedForm) as exc:
                engine(3, ic, coeffs)
            assert (exc.value.j, exc.value.s, exc.value.v_index) == (2, 0, 4)


def test_a_neg1_checks_the_denominator_base_first():
    # With all seeds 1 and b = 1 both bases of every class vanish; x_3 meets
    # the denominator V_6 before the numerator V_4, as the closed form does.
    coeffs = ConstantCoeffs(-1, 1)
    for m in range(1, 13):
        with pytest.raises(SingularClosedForm) as want:
            term(m, ONES, coeffs)
        with pytest.raises(SingularClosedForm) as got:
            specialcases.term(m, ONES, coeffs)
        assert got.value.v_index == want.value.v_index == 4 + (m + 3) % 4, m


# ---------------------------------------------------------------------------
# Geometric-sum identity: all periods equal collapse to the a != 1 form
# ---------------------------------------------------------------------------

def test_geometric_sum_identity_across_cases():
    rng = random.Random(11)
    for _ in range(30):
        ic = random_initial_conditions(rng)
        a = small_coeff(rng)
        b = small_coeff(rng)
        if a == 1:
            continue
        cc = ConstantCoeffs(a, b)
        pc2 = PeriodicCoeffs2((a, a), (b, b))
        pc4 = PeriodicCoeffs4((a, a, a, a), (b, b, b, b))
        for m in range(-5, 30):
            try:
                want = specialcases.term(m, ic, cc)
            except SingularClosedForm:
                with pytest.raises(SingularClosedForm):
                    specialcases.term(m, ic, pc2)
                with pytest.raises(SingularClosedForm):
                    specialcases.term(m, ic, pc4)
                break
            assert specialcases.term(m, ic, pc2) == want
            assert specialcases.term(m, ic, pc4) == want


@pytest.mark.parametrize("a", [0, 1, -1, Fraction(-1, 2), 2])
def test_each_factor_costs_one_normalisation_and_no_product_or_sum(monkeypatch, a):
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    coeffs = PeriodicCoeffs4((a, Fraction(3, 2), a, -3), (Fraction(5, 7), -1, 2, 1))
    factors = specialcases._Factors(ic, coeffs)
    normalisations = count_normalisations(monkeypatch)
    got = [factors(k) for k in range(48)]
    monkeypatch.undo()
    assert len(normalisations) == 48
    for k, pair in enumerate(got):
        r, t = k % 4, k // 4
        a_r, k_r = coeffs.a_at(r), coeffs.b_at(r) * ic.seed_product(r)
        f = 1 + k_r * t if a_r == 1 else a_r**t + k_r * (1 - a_r**t) / (1 - a_r)
        # Each factor is stored as its reduced pair, denominator positive.
        assert pair == (ic.values[(4, 5, 0, 1)[r]] * f).as_integer_ratio()


# ---------------------------------------------------------------------------
# Singular positions
# ---------------------------------------------------------------------------

def test_singular_position_matches_general_path():
    """Where iteration halts, each special case raises at the same
    (j, s, v_index) as the general closed form; a = -1 reaches each of the
    four first vanishing V_4..V_7."""
    rng = random.Random(106)
    classes = itertools.cycle(range(4))

    def const_general(ic):
        a = small_coeff(rng)
        while a == 1:
            a = small_coeff(rng)
        return ConstantCoeffs(a, small_coeff(rng))

    def const_a1(ic):
        return ConstantCoeffs(1, small_coeff(rng))

    def periodic2(ic):
        return PeriodicCoeffs2((small_coeff(rng), small_coeff(rng)),
                               (small_coeff(rng), small_coeff(rng)))

    def periodic4(ic):
        return PeriodicCoeffs4(tuple(small_coeff(rng) for _ in range(4)),
                               tuple(small_coeff(rng) for _ in range(4)))

    def const_a_neg1(ic):
        b = 1 / ic.seed_product(next(classes))  # V_(4+r) = 0 for the drawn class r
        return ConstantCoeffs(-1, b)

    positions = set()
    for build in (const_general, const_a1, periodic2, periodic4, const_a_neg1):
        halted = 0
        while halted < 10:
            ic = random_initial_conditions(rng)
            coeffs = build(ic)
            orbit = iterate(ic, coeffs, 55)
            if orbit.halt is None:
                continue
            m = orbit.last_m + 1
            with pytest.raises(SingularClosedForm) as want:
                term(m, ic, coeffs)
            with pytest.raises(SingularClosedForm) as got:
                specialcases.term(m, ic, coeffs)
            position = (got.value.j, got.value.s, got.value.v_index)
            assert position == (want.value.j, want.value.s, want.value.v_index), (
                build.__name__, m)
            if build is const_a_neg1:
                positions.add(position)
            halted += 1
    assert positions == {(2, 0, 4), (3, 0, 5), (0, 1, 6), (1, 1, 7)}


@pytest.mark.parametrize("r", [1, 2])
def test_a_zero_planted_at_block_40_is_found_by_every_engine(r):
    # Constant a = 2: V_(4t+r) = 2^t*V_r + b*(2^t - 1), so this b zeroes
    # V_(160+r); the orbit halting at step 156 + r shows no earlier V
    # vanishes.  The special cases meet it as an exact zero of C + D*2^40;
    # a range meets it first as a denominator, a cold point query on class
    # r at block 41 as its own numerator.
    ic = InitialConditions([1, 2, 3, 1, 2, 3])
    v_r = 1 / ic.seed_product(r)
    coeffs = ConstantCoeffs(2, -(2**40) * v_r / (2**40 - 1))
    v_index = 160 + r
    orbit = iterate(ic, coeffs, v_index)
    assert orbit.halt.step == v_index - 4
    positions = set()
    for _, engine in ENGINES.values():
        start_cold()
        got, error = values_until_error(engine(-5, v_index, ic, coeffs))
        assert got == list(orbit.terms)
        start_cold()
        with pytest.raises(SingularClosedForm) as point:
            next(engine(4 * 41 - 5 + r, 4 * 41 - 5 + r, ic, coeffs))
        for exc in (SingularClosedForm(error[2]["v_index"]), point.value):
            positions.add((exc.j, exc.s, exc.v_index, exc.halt_step))
    assert positions == {((v_index - 2) % 4, 39 + r // 2, v_index, orbit.halt.step)}


@pytest.mark.parametrize("coeffs", [
    ConstantCoeffs(0, Fraction(2, 3)),
    ConstantCoeffs(1, Fraction(-3, 4)),
    PeriodicCoeffs2((0, 1), (Fraction(1, 2), 3)),
    PeriodicCoeffs4((1, 0, Fraction(5, 2), 1), (-2, Fraction(1, 3), 1, Fraction(-1, 2))),
    ConstantCoeffs(-1, Fraction(5, 7)),
    PeriodicCoeffs4((-1,), (Fraction(-4, 5),)),
    PeriodicCoeffs2((-1, 2), (Fraction(1, 2), -3)),
], ids=["a=0", "a=1", "periodic2-0,1", "periodic4-1,0", "a=-1", "period1-a=-1",
        "periodic2--1,2"])
def test_a_zero_and_one_ranges_match_the_closed_form_and_iteration(coeffs):
    # a = 0 takes 0^0 = 1 in C + D*a^t; a = 1 takes the line 1 + k*t; a = -1
    # alternates D*a^t in sign, so F is 1 at even t and k - 1 at odd t.
    rng = random.Random(108)
    for _ in range(12):
        ic = random_initial_conditions(rng)
        orbit = iterate(ic, coeffs, 55)
        start_cold()
        want = values_until_error(closedform.terms(-5, 55, ic, coeffs))
        start_cold()
        assert values_until_error(specialcases.terms(-5, 55, ic, coeffs)) == want
        assert want[0] == list(orbit.terms)


def test_the_a_plus_minus_one_names_build_one_sequence_per_b(monkeypatch):
    # Repeated calls with an equal b reuse one cached constant sequence per
    # sign of a, so a warm query compares no fresh sequence against its slot.
    built = []
    constant = CoefficientSequence.constant.__func__
    monkeypatch.setattr(CoefficientSequence, "constant", classmethod(
        lambda cls, a, b: built.append((a, b)) or constant(cls, a, b)))
    ic, b = InitialConditions([2, 3, 5, 7, 11, 13]), Fraction(5, 7919)  # b no other test uses
    for name, a in (("term_const_a1", 1), ("term_const_a_neg1", -1)):
        want = [specialcases.term(m, ic, constant(CoefficientSequence, a, b))
                for m in range(-5, 30)]
        for _ in range(3):
            got = [getattr(specialcases, name)(m, ic, Fraction(5, 7919)) for m in range(-5, 30)]
            assert got == want, name
    assert built == [(1, b), (-1, b)]
    # A float is no exact rational, even where it equals a cached b.
    specialcases.term_const_a1(0, ic, 2)
    with pytest.raises(TypeError):
        specialcases.term_const_a1(0, ic, 2.0)
