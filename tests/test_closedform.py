"""General closed form: the V solution, term products, the guard and the
unified magnitude's float path, plus the phase-kernel checker's response to
table entries planted wrong.

The contracts both product engines keep (seeds, b = 0 telescoping, the hand
singular position, range against point queries) are checked once, over every
engine of `conftest.ENGINES`."""

import math
import random
from fractions import Fraction

import pytest

from sixrde import (
    CoefficientSequence,
    IndexBelowSeed,
    InitialConditions,
    OutOfHorizon,
    OutOfRange,
    SingularClosedForm,
    invariant_sequence,
    iterate,
    symmetry,
    term,
    terms,
    unified_exponent,
    unified_magnitude,
    v_closed,
    verify_gamma_identities,
    well_defined,
)
from sixrde.closedform import _InvariantTable
from sixrde.core import log_abs
from sixrde.symmetry import Characteristic

from conftest import (
    COEFF_KINDS,
    ENGINES,
    count_normalisations,
    nonsingular_instance,
    random_instance,
    range_window,
    start_cold,
    values_until_error,
)

ONES = InitialConditions([1] * 6)
TRIVIAL = CoefficientSequence.constant(1, 0)


# ---------------------------------------------------------------------------
# Phase kernel: i^(n-k) is the table pair Q1 + i*Q2 at d = n - k
# ---------------------------------------------------------------------------

def _plant(monkeypatch, r, wrong):
    """Replace the entry of Q1 + i*Q2 at residue r by wrong(re, im)."""
    alphas = [list(q.alpha) for q in (symmetry.Q1, symmetry.Q2)]
    alphas[0][r], alphas[1][r] = wrong(alphas[0][r], alphas[1][r])
    for q, alpha in zip((symmetry.Q1, symmetry.Q2), alphas):
        monkeypatch.setattr(symmetry, q.name, Characteristic(q.name, alpha))


def _negate(re, im):
    return -re, -im


def _turn(re, im):
    """i*(re + i*im)"""
    return -im, re


def test_gamma_identity_checker_detects_breakage(monkeypatch):
    # A kernel that is 1 everywhere, and kernels wrong on both residues of
    # one parity, which keep alpha_(d+2) = -alpha_d: each part of the entries
    # at d = 0 and 1 is checked.
    with monkeypatch.context() as patch:
        for r in range(4):
            _plant(patch, r, lambda re, im: (1, 0))
        assert symmetry.verify_gamma_identities(2) != []
    for wrong in (_negate, _turn, lambda re, im: (re - im, re + im)):  # (1+i)*
        for r in (0, 1):
            with monkeypatch.context() as patch:
                _plant(patch, r, wrong)
                _plant(patch, r + 2, wrong)
                assert symmetry.verify_gamma_identities(2) != []


@pytest.mark.parametrize("r", range(4))
def test_gamma_identity_checker_catches_each_wrong_residue(monkeypatch, r):
    # One entry negated, or turned by i.
    for wrong in (_negate, _turn):
        with monkeypatch.context() as patch:
            _plant(patch, r, wrong)
            for limit in (0, 1, 3, 16):
                assert symmetry.verify_gamma_identities(limit) != []


def test_gamma_identities_hold_at_every_limit():
    for limit in range(21):
        assert verify_gamma_identities(limit) == []


# ---------------------------------------------------------------------------
# Closed form for V
# ---------------------------------------------------------------------------

def test_v_closed_block_zero_is_seed_invariant():
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    for j in range(4):
        assert v_closed(j, 0, ic, TRIVIAL) == 1 / ic.seed_product(j)


def test_v_closed_identity_map_is_constant():
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    for j in range(4):
        for n in (1, 2, 7):
            assert v_closed(j, n, ic, TRIVIAL) == v_closed(j, 0, ic, TRIVIAL)


def test_v_closed_matches_oracle_invariants():
    rng = random.Random(31)
    for _ in range(10):
        ic, coeffs, orbit = nonsingular_instance(rng, 50)
        v = invariant_sequence(orbit)
        for index in range(51):
            assert v_closed(index % 4, index // 4, ic, coeffs) == v[index]


@pytest.mark.parametrize("a", [0, 1, -1, Fraction(-1, 2), 2])
def test_each_v_costs_one_normalisation_and_no_product_or_sum(monkeypatch, a):
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    coeffs = CoefficientSequence.periodic([a, Fraction(3, 2)], [Fraction(5, 7), -1])
    normalisations = count_normalisations(monkeypatch)
    table = _InvariantTable(ic, coeffs)
    got = [table(k) for k in range(48)]
    monkeypatch.undo()
    assert len(normalisations) == 48  # the four seed V's and the 44 steps
    # Each V is stored as its reduced pair, denominator positive.
    assert got == [v_closed(k % 4, k // 4, ic, coeffs).as_integer_ratio() for k in range(48)]
    v = [Fraction(*pair) for pair in got]
    for k in range(44):
        assert v[k + 4] == coeffs.a_at(k) * v[k] + coeffs.b_at(k)


# ---------------------------------------------------------------------------
# Closed form for terms
# ---------------------------------------------------------------------------

def test_term_returns_seeds_unchanged():
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    for coeffs in (TRIVIAL, CoefficientSequence.constant(2, 3),
                   CoefficientSequence.constant(1, 3), CoefficientSequence.constant(-1, 3),
                   CoefficientSequence.periodic((2, 3), (1, 4)),
                   CoefficientSequence.periodic((2, 3, 4, 5), (1, 2, 3, 4))):
        for name, (point, _) in ENGINES.items():
            for m in range(-5, 1):
                assert point(m, ic, coeffs) == ic.values[m + 5], (name, m)


def test_term_telescopes_for_identity_coefficients():
    # With b = 0 and a of period 1 or 2 every factor ratio is V_j / V_(j+2),
    # so x_(4n-5) = g^n / c^(n-1); the whole orbit also matches iteration.
    ic = InitialConditions([2, 3, 5, 7, 11, 13])
    c, g = ic.values[0], ic.values[4]
    b_zero = CoefficientSequence.constant(3, 0)
    orbit = iterate(ic, b_zero, 30)
    for name, (point, _) in ENGINES.items():
        for coeffs in (TRIVIAL, CoefficientSequence.constant(2, 0),
                       CoefficientSequence.periodic((1, 1), (0, 0)),
                       CoefficientSequence.periodic((1,) * 4, (0,) * 4)):
            for n in range(0, 8):
                assert point(4 * n - 5, ic, coeffs) == g**n / c ** (n - 1), (name, n)
        assert [point(m, ic, b_zero) for m in range(-5, 31)] == list(orbit.terms), name


def test_term_rejects_indices_below_seed():
    for coeffs in (TRIVIAL, CoefficientSequence.constant(2, 1), CoefficientSequence.constant(-1, 1),
                   CoefficientSequence.periodic((2, 3), (1, 0)),
                   CoefficientSequence.periodic((2, 3, 1, -1), (1, 0, 2, 1))):
        for point, _ in ENGINES.values():
            with pytest.raises(IndexBelowSeed) as exc:
                point(-6, ONES, coeffs)
            assert exc.value.m == -6
    with pytest.raises(IndexBelowSeed) as exc:  # and so does the oracle's orbit
        iterate(ONES, TRIVIAL, 3).x(-6)
    assert exc.value.m == -6


@pytest.mark.parametrize("call, message, index", [
    (lambda: ONES.seed_product(4), "residue class index 4 is out of range", 4),
    (lambda: v_closed(-1, 0, ONES, TRIVIAL), "residue class index -1 is out of range", -1),
    (lambda: v_closed(0, -1, ONES, TRIVIAL), "block index -1 is out of range", -1),
    (lambda: unified_magnitude(-1, ONES, TRIVIAL), "orbit term u index -1 is out of range", -1),
    (lambda: iterate(ONES, TRIVIAL, 3).x(4), "orbit term x index 4 is out of range", 4),
], ids=["seed_product", "v_closed-class", "v_closed-block", "unified_magnitude", "orbit-x"])
def test_each_index_out_of_range_is_named_with_its_value(call, message, index):
    with pytest.raises(OutOfRange) as exc:
        call()
    assert str(exc.value) == message
    assert exc.value.index == index


def test_term_raises_singular_closed_form_with_position():
    # a=1, b=-1, all-ones seeds: V_4 = 0, so x_1 (class j=2, factor s=0) breaks
    coeffs = CoefficientSequence.constant(1, -1)
    for name, (point, _) in ENGINES.items():
        with pytest.raises(SingularClosedForm) as exc:
            point(1, ONES, coeffs)
        e = exc.value
        assert (e.j, e.s, e.v_index, e.halt_step) == (2, 0, 4, 0), name


@pytest.mark.parametrize("kind", COEFF_KINDS)
def test_terms_range_equals_point_evaluation(kind):
    """A range yields what the point query gives index by index, and on a
    halting instance raises at the first singular index with the same
    position; each engine runs on 8 halting and 8 surviving instances."""
    # The special cases refuse period 3 (test_specialcases.py).
    engines = {name: engine for name, engine in ENGINES.items()
               if kind != "periodic3" or name == "closedform"}
    rng = random.Random(130 + COEFF_KINDS.index(kind))
    cases = {False: 0, True: 0}  # by whether the orbit halts
    while min(cases.values()) < 8:
        ic, coeffs = random_instance(rng, kind)
        orbit = iterate(ic, coeffs, 60)
        halted = orbit.halt is not None
        if cases[halted] == 8:
            continue
        cases[halted] += 1
        lo, hi = range_window(rng, orbit, 60)
        for name, (point, window) in engines.items():
            start_cold()
            want = values_until_error(point(m, ic, coeffs) for m in range(lo, hi + 1))
            start_cold()
            assert values_until_error(window(lo, hi, ic, coeffs)) == want, name
            assert want[0] == list(orbit.terms[lo + 5:lo + 5 + len(want[0])])
            if halted:
                assert len(want[0]) == orbit.last_m + 1 - lo
                assert want[1][0] == "SingularClosedForm"


def test_terms_past_explicit_horizon_raises_like_term():
    rng = random.Random(137)
    for _ in range(6):
        ic, base, _orbit = nonsingular_instance(rng, 30)
        length = rng.randint(8, 24)
        coeffs = CoefficientSequence.explicit(
            [base.a_at(k) for k in range(length)],
            [base.b_at(k) for k in range(length)],
        )
        lo, hi = rng.randint(-5, length), length + 12
        start_cold()
        want = values_until_error(term(m, ic, coeffs) for m in range(lo, hi + 1))
        assert want[1][0] == "OutOfHorizon"
        start_cold()
        assert values_until_error(terms(lo, hi, ic, coeffs)) == want


# ---------------------------------------------------------------------------
# Well-definedness guard
# ---------------------------------------------------------------------------

def test_well_defined_trivial_coefficients():
    report = well_defined(ONES, TRIVIAL, horizon=10)
    assert report.ok
    assert report.first_halt_step is None
    with pytest.raises(ValueError, match="horizon must be >= 0, got -1"):
        well_defined(ONES, TRIVIAL, horizon=-1)


def test_well_defined_flags_forced_violation():
    report = well_defined(ONES, CoefficientSequence.constant(1, -1), horizon=5)
    assert not report.ok
    first = report.violations[0]
    assert (first.j, first.s) == (0, 0)
    assert first.v_index == 4
    assert first.halt_step == 0


def test_well_defined_matches_oracle_halts():
    rng = random.Random(63)
    agree = halted = 0
    while halted < 25 or agree < 60:
        ic, coeffs = random_instance(rng)
        orbit = iterate(ic, coeffs, 48)
        report = well_defined(ic, coeffs, horizon=14)
        steps = [v.halt_step for v in report.violations if v.halt_step <= 47]
        if orbit.halt is None:
            assert not steps
        else:
            assert min(steps) == orbit.halt.step
            halted += 1
        agree += 1


def per_class_guard_scan(ic, coeffs, horizon):
    """The guard as one scan per residue class j over s <= horizon, reading
    each V from `v_closed`; (j, s, v_index, halt_step) by halt step."""
    found = []
    for j in range(4):
        i_off = 0 if j <= 1 else 1
        for upper in range(horizon - i_off + 1):
            try:
                v = v_closed(j, upper + 1, ic, coeffs)
            except OutOfHorizon:
                break
            if v == 0:
                v_index = 4 * (upper + 1) + j
                found.append((j, upper + i_off, v_index, v_index - 4))
    return sorted(found, key=lambda f: (f[3], f[0], f[1]))


def test_well_defined_equals_per_class_scan():
    rng = random.Random(71)
    small = [Fraction(k, d) for k in (-2, -1, 1, 2) for d in (1, 2)]
    pick = lambda values: [rng.choice(values) for _ in range(rng.randint(1, 4))]
    coeff_a, coeff_b = small + [Fraction(0)], small + [Fraction(0)] * 2
    classes = set()
    total = 0
    for trial in range(600):
        ic = InitialConditions([rng.choice(small) for _ in range(6)])
        kind = trial % 3
        if kind == 0:
            coeffs = CoefficientSequence.constant(rng.choice(coeff_a), rng.choice(coeff_b))
        elif kind == 1:
            a = pick(coeff_a)
            coeffs = CoefficientSequence.periodic(a, [rng.choice(coeff_b) for _ in a])
        else:
            length = rng.randint(0, 40)
            coeffs = CoefficientSequence.explicit(
                [rng.choice(coeff_a) for _ in range(length)],
                [rng.choice(coeff_b) for _ in range(length)],
            )
        horizon = rng.randint(0, 12)
        report = well_defined(ic, coeffs, horizon)
        got = [(v.j, v.s, v.v_index, v.halt_step) for v in report.violations]
        want = per_class_guard_scan(ic, coeffs, horizon)
        assert got == want
        assert report.first_halt_step == (want[0][3] if want else None)
        classes.update(f[0] for f in want)
        total += len(want)
    assert classes == {0, 1, 2, 3}
    assert total > 300


# ---------------------------------------------------------------------------
# Unified magnitude
# ---------------------------------------------------------------------------

def test_unified_magnitude_all_ones():
    for n in range(0, 20):
        assert unified_magnitude(n, ONES, TRIVIAL) == pytest.approx(1.0, rel=1e-12)


def test_unified_magnitude_at_zero_is_seed_magnitude():
    ic = InitialConditions(
        [Fraction(-3, 4), 2, 1, Fraction(5, 7), 1, 1]
    )
    assert unified_magnitude(0, ic, TRIVIAL) == pytest.approx(0.75, rel=1e-12)


def test_unified_exponent_is_the_log_magnitude_past_the_float_range():
    # |u_150| underflows a float and |u_200| overflows one; the exponent
    # stays exact-to-rounding, and the magnitude saturates to 0.0 and inf.
    coeffs = CoefficientSequence.periodic([4, 1, Fraction(1, 4), 1], [1] * 4)
    orbit = iterate(ONES, coeffs, 200)
    for n in (150, 200):
        want = log_abs(orbit.terms[n])
        assert unified_exponent(n, ONES, coeffs) == pytest.approx(want, rel=1e-9)
    assert unified_magnitude(150, ONES, coeffs) == 0.0
    assert unified_magnitude(200, ONES, coeffs) == math.inf
    with pytest.raises(ValueError, match=r"log_abs\(0\) is undefined"):
        log_abs(Fraction(0))


def test_unified_magnitude_propagates_singularity():
    coeffs = CoefficientSequence.constant(1, -1)
    with pytest.raises(SingularClosedForm):
        unified_magnitude(8, ONES, coeffs)


def test_unified_exponent_names_the_first_vanishing_v_of_any_class():
    # V_4 = a_0 + b_0 = 0 and every V_k, k >= 5, of classes 1..3 is zero too.
    # At n = 15 the sum weighs only classes 1 and 3; V_4 is still named.
    coeffs = CoefficientSequence.constant(1, -1)
    for n in (9, 14, 15):
        with pytest.raises(SingularClosedForm) as err:
            unified_exponent(n, ONES, coeffs)
        assert err.value.v_index == 4


def test_unified_exponent_past_explicit_horizon_raises_before_singular_check():
    # V_4 = 0 sits in u_11's sum, but u_11 also needs V_8, from coefficient 4.
    coeffs = CoefficientSequence.explicit([1] * 4, [-1, 0, 0, 0])
    with pytest.raises(OutOfHorizon, match="coefficient index 4 is past"):
        unified_exponent(11, ONES, coeffs)
    with pytest.raises(OutOfHorizon, match="coefficient index 4 is past"):
        unified_magnitude(11, ONES, coeffs)


_PIN_SEEDS = [Fraction(3, 7), Fraction(-2, 5), Fraction(9, 4), 5, Fraction(1, 2), -6]
_PIN_LIST_SEEDS = [Fraction(5, 3), 2, Fraction(-1, 4), 7, Fraction(2, 11), 3]
_PIN_CONSTANT = CoefficientSequence.constant(Fraction(2, 3), Fraction(-4, 5))
_PIN_PERIOD2 = CoefficientSequence.periodic([3, Fraction(-1, 2)], [1, Fraction(2, 9)])
_PIN_PERIOD4 = CoefficientSequence.periodic(
    [3, Fraction(-1, 2), 1, Fraction(5, 4)], [1, Fraction(2, 9), -1, Fraction(1, 3)]
)
_PIN_LIST = CoefficientSequence.explicit(
    [2, Fraction(1, 3), -1, 5, 1, 1, Fraction(3, 2), 2, 1, 4, 1, 1],
    [1, 1, 2, -3, 1, Fraction(1, 2), 1, 1, 1, 1, 2, 1],
)
_PIN_STEEP = CoefficientSequence.periodic([4, 1, Fraction(1, 4), 1], [1] * 4)


@pytest.mark.parametrize(
    "seeds, coeffs, n, exponent, magnitude",
    [
        (_PIN_SEEDS, _PIN_CONSTANT, 13, "0x1.20bd01c470512p+1", "0x1.315d23a8b7160p+3"),
        (_PIN_SEEDS, _PIN_CONSTANT, 42, "0x1.44f09a938a5a4p-1", "0x1.e2e8612c6a131p+0"),
        (_PIN_SEEDS, _PIN_PERIOD2, 55, "0x1.5429460c633fap+0", "0x1.e35f0c100722cp+1"),
        (_PIN_SEEDS, _PIN_PERIOD4, 31, "0x1.c12f792d7b69cp+3", "0x1.30af656c91c5ap+20"),
        (_PIN_LIST_SEEDS, _PIN_LIST, 14, "0x1.62a4ddf743fbbp+2", "0x1.fe066a819aa0dp+7"),
        ([1] * 6, _PIN_STEEP, 150, "-0x1.e76d2295ab928p+9", "0x0.0p+0"),
        ([1] * 6, _PIN_STEEP, 200, "0x1.a88d7a586d7ccp+10", "inf"),
    ],
)
def test_unified_path_keeps_every_bit(seeds, coeffs, n, exponent, magnitude):
    # Exact bits, within and past the float range: any reordering of the
    # sum's terms moves some of them.
    ic = InitialConditions(seeds)
    assert unified_exponent(n, ic, coeffs).hex() == exponent
    assert unified_magnitude(n, ic, coeffs).hex() == magnitude
