"""Direct iteration, the invariant sequence, and its affine recurrence."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixrde import (
    CoefficientSequence,
    InitialConditions,
    InvariantSequence,
    OutOfHorizon,
    SingularityCause,
    TooShort,
    check_invariant_recurrence,
    invariant_sequence,
    iterate,
    oracle,
)

from conftest import (
    count_normalisations,
    random_coefficients,
    random_initial_conditions,
    random_rational,
)

ONES = InitialConditions([1] * 6)
TRIVIAL = CoefficientSequence.constant(1, 0)


def test_all_ones_is_a_fixed_point():
    orbit = iterate(ONES, TRIVIAL, 20)
    assert orbit.halt is None
    assert all(t == 1 for t in orbit.terms)
    assert len(orbit.terms) == 26
    with pytest.raises(ValueError, match="step count must be >= 0, got -1"):
        iterate(ONES, TRIVIAL, -1)


def test_one_step_hand_value():
    ic = InitialConditions([1, 1, 1, 1, 2, 1])
    orbit = iterate(ic, TRIVIAL, 1)
    # x_1 = x_(-5)x_(-3) / (x_(-1)(1 + 0)) = 1/(2*1)
    assert orbit.x(1) == Fraction(1, 2)


def test_hand_computed_prefix():
    ic = InitialConditions([1, 1, 1, 1, 2, 1])
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
    ic = InitialConditions([1, 1, 1, 1, 2, 1])
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
        invariant_sequence(Orbit(terms=(Fraction(1), Fraction(2)), halt=None))
    assert short.halt is not None


def test_invariant_recurrence_residuals_zero_and_detector():
    ic = InitialConditions([1, 1, 1, 1, 2, 1])
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


@pytest.mark.parametrize("a", [0, 1, -1, Fraction(-1, 2), 2])
def test_each_residual_costs_one_normalisation_and_no_product_or_sum(monkeypatch, a):
    # At most one: a zero residual is the shared `Fraction(0)`, with no gcd,
    # and each nonzero one is normalised once.
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    coeffs = CoefficientSequence.periodic([a, Fraction(3, 2)], [Fraction(5, 7), -1])
    orbit = iterate(ic, coeffs, 40)
    assert orbit.halt is None
    v = invariant_sequence(orbit).values
    corrupted = InvariantSequence(v[:9] + (v[9] * 3,) + v[10:30] + (-v[30],) + v[31:])
    want = [w - (coeffs.a_at(n) * u + coeffs.b_at(n))
            for n, (u, w) in enumerate(zip(corrupted.values, corrupted.values[4:]))]
    assert all(want[n] for n in (5, 9, 26))
    normalisations = count_normalisations(monkeypatch)
    zero = check_invariant_recurrence(InvariantSequence(v), coeffs)
    assert not normalisations
    bad = check_invariant_recurrence(corrupted, coeffs)
    monkeypatch.undo()
    assert len(normalisations) == sum(1 for r in want if r)
    assert zero == [0] * (len(v) - 4)
    assert bad == want


def test_invariant_recurrence_too_short():
    with pytest.raises(TooShort):
        check_invariant_recurrence(InvariantSequence((Fraction(1),) * 4), TRIVIAL)


def test_iterate_propagates_explicit_horizon():
    seq = CoefficientSequence.explicit([1, 1], [0, 0])
    with pytest.raises(OutOfHorizon):
        iterate(ONES, seq, 5)


def test_determinism():
    rng = random.Random(5)
    ic = random_initial_conditions(rng)
    coeffs = random_coefficients(rng, "periodic3")
    assert iterate(ic, coeffs, 40) == iterate(ic, coeffs, 40)


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
    if coeffs.kind == "list":
        count = min(count, len(coeffs.a_values()))
    orbit = iterate(InitialConditions(seeds), coeffs, count)
    assert all(t != 0 for t in orbit.terms)
    for n in range(len(orbit) - 6):
        a, b = coeffs.pair_at(n)
        p = orbit.terms[n] * orbit.terms[n + 2]
        assert orbit.terms[n + 6] == p / (orbit.terms[n + 4] * (a + b * p))
    if orbit.halt is not None:
        n = orbit.halt.step
        assert orbit.halt.cause == SingularityCause.ZERO_DENOMINATOR_FACTOR
        a, b = coeffs.pair_at(n)
        assert a + b * orbit.terms[n] * orbit.terms[n + 2] == 0


def _literal_iterate(ic, coeffs, count):
    """The map as written, one `Fraction` operation at a time: the terms it
    forms and the step it halts at, or the `OutOfHorizon` index it hits."""
    terms = list(ic.values)
    for n in range(count):
        try:
            a, b = coeffs.pair_at(n)
        except OutOfHorizon as exc:
            return terms, ("runs out", exc.n)
        p = terms[n] * terms[n + 2]
        if a + b * p == 0:
            return terms, ("halts", n)
        terms.append(p / (terms[n + 4] * (a + b * p)))
    return terms, None


def _huge(rng):
    return Fraction(rng.randint(-10**30, 10**30), rng.randint(1, 10**30))


def _pinned_instances():
    """Seeded instances for the step's edge cases: each with its step count
    and how the literal map ends on it."""
    rng = random.Random(20)
    negative = InitialConditions([-2, 3, Fraction(-5, 3), 7, -11, Fraction(13, 4)])
    mixed = InitialConditions([random_rational(rng, nonzero=True) for _ in range(6)])
    yield negative, CoefficientSequence.periodic([_huge(rng) for _ in range(3)],
                                                 [_huge(rng) for _ in range(3)]), 40, None
    yield mixed, CoefficientSequence.constant(0, Fraction(-3, 7)), 40, None
    yield negative, CoefficientSequence.constant(Fraction(5, 2), 0), 40, None
    yield negative, CoefficientSequence.constant(0, 0), 10, ("halts", 0)
    u = negative.values
    yield negative, CoefficientSequence.constant(-u[0] * u[2], 1), 10, ("halts", 0)
    # a_k = -b_k u_k u_(k+2) at a late k, so the orbit halts there.
    a, b = [_huge(rng) for _ in range(33)], [_huge(rng) for _ in range(34)]
    terms, _ = _literal_iterate(mixed, CoefficientSequence.explicit(a, b[:33]), 33)
    late = CoefficientSequence.explicit(a + [-b[33] * terms[33] * terms[35]], b)
    yield mixed, late, 50, ("halts", 33)
    yield mixed, CoefficientSequence.explicit(a, b[:33]), 50, ("runs out", 33)


@pytest.mark.parametrize("ic, coeffs, count, ending", list(_pinned_instances()))
def test_each_term_is_the_literal_map(ic, coeffs, count, ending):
    terms, end = _literal_iterate(ic, coeffs, count)
    assert end == ending
    if ending is not None and ending[0] == "runs out":
        with pytest.raises(OutOfHorizon) as caught:
            iterate(ic, coeffs, count)
        assert caught.value.n == ending[1]
        return
    orbit = iterate(ic, coeffs, count)
    assert orbit.terms == tuple(terms)
    assert (orbit.halt and ("halts", orbit.halt.step)) == ending
    v = invariant_sequence(orbit)
    assert v.values == tuple(1 / (t * u) for t, u in zip(terms, terms[2:]))


@pytest.mark.parametrize("ic, coeffs, count, ending",
                         [case for case in _pinned_instances() if case[3] != ("runs out", 33)])
def test_each_hint_is_each_parts_ratio_to_the_same_part_four_terms_back(
        ic, coeffs, count, ending):
    items = list(oracle._terms(ic, coeffs, count))
    terms, _ = _literal_iterate(ic, coeffs, count)
    assert [(p, q) for p, q, _ in items] == [t.as_integer_ratio() for t in terms]
    assert [hint for *_, hint in items[:8]] == [None] * min(8, len(items))
    for (p, q, hint), (p4, q4, _) in zip(items[8:], items[4:]):
        (up, down), (q_up, q_down) = hint
        assert abs(p) * down == abs(p4) * up and q * q_down == q4 * q_up


def test_each_term_costs_one_division_and_no_product_or_sum(monkeypatch):
    # Step n divides q_n = x_(n-1) x_(n+1) by x_(n-1) on integer parts: no
    # `Fraction` arithmetic at all, one small gcd that reduces q_n, and the
    # two gcds of the division, each of a part of q_n with the same part of
    # x_(n-1), the only full-height operands.
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    coeffs = CoefficientSequence.periodic([2, Fraction(-1, 3), Fraction(3, 2)],
                                          [1, Fraction(5, 7), Fraction(-2, 5)])
    expected = iterate(ic, coeffs, 60)
    assert expected.halt is None
    terms = expected.terms
    quotients = [terms[n + 4] * terms[n + 6] for n in range(60)]
    products = [terms[n] * terms[n + 2] for n in range(60)]

    def forbidden(*args):
        raise AssertionError("the oracle step made Fraction arithmetic")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    steps = [[]]  # the gcd operands of the seed products, then of each step

    class MarkedRows(tuple):
        """A step table whose every row read starts a new step."""

        def __getitem__(self, i):
            steps.append([])
            return super().__getitem__(i)

    def marked(self):
        rows, horizon = step_table(self)
        return MarkedRows(rows), horizon

    step_table, gcd = CoefficientSequence._step_table, oracle.gcd
    monkeypatch.setattr(CoefficientSequence, "_step_table", marked)
    monkeypatch.setattr(oracle, "gcd", lambda a, b: steps[-1].append((a, b)) or gcd(a, b))
    orbit = iterate(ic, coeffs, 60)
    monkeypatch.undo()
    assert orbit == expected
    assert len(steps) == 61
    for n, calls in enumerate(steps[1:]):
        x, q, p = terms[n + 4], quotients[n], products[n]
        assert calls[1:] == [(q.numerator, x.numerator), (q.denominator, x.denominator)], n
        # The coefficients here have parts of at most three bits.
        small = max(abs(v).bit_length() for v in (*p.as_integer_ratio(), *q.as_integer_ratio()))
        assert len(calls) == 3 and max(abs(v) for v in calls[0]).bit_length() <= small + 7, n
    # Past step 30, x_(n-1) is taller than any operand of the reduction.
    assert min(min(abs(terms[n + 4].numerator), terms[n + 4].denominator)
               for n in range(30, 60)) > max(max(map(abs, s[0])) for s in steps[1:])


def test_only_the_first_four_steps_multiply_two_terms(monkeypatch):
    # From step 4 on, x_(n-5) x_(n-3) is the quotient step n - 4 divided by
    # x_(n-5), so the oracle multiplies only the seed pairs.
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    coeffs = CoefficientSequence.periodic([2, Fraction(-1, 3), Fraction(3, 2)],
                                          [1, Fraction(5, 7), Fraction(-2, 5)])
    products = []
    product = oracle._product
    monkeypatch.setattr(oracle, "_product",
                        lambda u, v: products.append((u, v)) or product(u, v))
    orbit = iterate(ic, coeffs, 60)
    assert orbit.halt is None and len(orbit) == 66
    assert products == [(ic.values[n], ic.values[n + 2]) for n in range(4)]
