"""Core value types: the rational codec and the chain renderer, coefficient
sequences, seeds, records and the singular position.

Rational arithmetic itself is `fractions.Fraction`'s and is not tested here.
"""

import copy
import decimal
import json
import math
import pickle
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sixrde import (
    CoefficientSequence,
    InitialConditions,
    InvariantSequence,
    LscSample,
    Orbit,
    OutOfHorizon,
    SingularClosedForm,
    SingularityCause,
    SingularityReport,
    WellDefinednessReport,
    WellDefViolation,
    ZeroInitialValue,
    as_rational,
    cli,
    core,
    format_rational,
    iterate,
    oracle,
    parse_rational,
)
from sixrde.cli import ProblemSpec
from sixrde.symmetry import Characteristic, PhaseSumReport, RootCheckFailure

from conftest import BASELINE, count_fresh_conversions, once, run_python

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


# ---------------------------------------------------------------------------
# Rational parsing / formatting
# ---------------------------------------------------------------------------

def test_parse_rational_forms():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == Fraction(-7, 2)
    assert parse_rational("+4/6") == Fraction(2, 3)
    assert parse_rational(" 5/1 ") == 5


# Then fullwidth and Arabic-Indic digits: Unicode decimal digits, but not the
# ASCII digits a literal is written in; last, whitespace that is not ASCII
# (no-break space, ideographic space, line separator) and an ASCII separator.
@pytest.mark.parametrize("bad", ["0.5", "1e3", "1/0", "1/-2", "2 / 3", "a", "",
                                 "１２", "١", "1/２",
                                 "\xa05", "5\u3000", "\u20281/2", "\x1c7"])
def test_parse_rational_rejects_inexact_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_keeps_denominator_one():
    assert format_rational(Fraction(5)) == "5/1"
    assert format_rational(Fraction(-3, 9)) == "-1/3"


@given(rationals)
def test_rational_string_round_trip(q):
    assert parse_rational(format_rational(q)) == q


def _unlimited_str(n):
    """str(n) with the int<->str digit limit lifted: the reference rendering."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return str(n)
    finally:
        sys.set_int_max_str_digits(limit)


# Heights: small; either side of 640 digits (2126 bits), the lowest digit
# limit; either side of 4300 digits, the default limit; and 100k bits.
@pytest.mark.parametrize("limit", [None, 640], ids=["default-limit", "limit-640"])
def test_rational_codec_at_every_height(limit):
    rng = random.Random(0)
    previous = sys.get_int_max_str_digits()
    try:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
        for bits in [*range(1, 71), 2126, 2127, *range(14280, 14301), 100_000]:
            p = rng.getrandbits(bits) | 1 << (bits - 1)
            q = rng.getrandbits(bits) | 1
            for value in (Fraction(p), Fraction(-p), Fraction(p, q), Fraction(-p, q)):
                text = format_rational(value)
                num, den = value.numerator, value.denominator
                assert text == f"{_unlimited_str(num)}/{_unlimited_str(den)}"
                assert parse_rational(text) == value
            digits = _unlimited_str(p)
            assert parse_rational(f"+00{digits}/{_unlimited_str(q)}") == Fraction(p, q)
            assert parse_rational(f"-0{digits}") == -p
            assert parse_rational(digits) == p
        assert sys.get_int_max_str_digits() == (limit or previous)
    finally:
        sys.set_int_max_str_digits(previous)


@once
def _runs_to_render():
    """Seeded runs of values, each named: orbits, and runs built to leave
    the orbit's shape.  The Baseline orbit's x_600 has about 5600 digits."""
    rng = random.Random(23)
    spec = cli.parse_problem_spec(BASELINE)
    ic, coeffs = spec.initial, spec.coeffs
    orbit = list(iterate(ic, coeffs, 600).terms)
    assert len(format_rational(orbit[-1])) > 2 * 4300  # both parts past 4300 digits
    runs = {"orbit": orbit}
    runs["sign flips"] = [v if rng.random() < 0.5 else -v for v in orbit]
    # Each chain rises past the 640-digit limit, falls back below it, rises again.
    runs["across the limit"] = orbit[:300] + orbit[299::-1] + orbit[:300]
    # Integers and reciprocals: one part of each value stays below the limit.
    runs["one part large"] = [Fraction(v.numerator) for v in orbit[200:300]] + [
        1 / Fraction(v.numerator) for v in orbit[200:300]]
    # Unrelated random values, then random values sharing a large factor with
    # the value four places earlier, the cofactors small or not.
    runs["random"] = [Fraction(rng.getrandbits(rng.randint(1, 30_000)) * rng.choice((1, -1)),
                               rng.getrandbits(rng.randint(1, 30_000)) | 1)
                      for _ in range(60)]
    walk = runs["random"][:4]
    for i in range(4, 120):
        bits = rng.choice((8, 200, 3_000))
        ratio = Fraction(rng.getrandbits(bits) + 1, rng.getrandbits(bits) + 1)
        walk.append(walk[i - 4] * ratio * rng.choice((1, -1)))
    runs["random walk"] = walk
    # An explicit list whose coefficients have about a thousand digits each.
    big = [Fraction(rng.getrandbits(3_400) + 1, rng.getrandbits(3_400) + 1) for _ in range(32)]
    listed = CoefficientSequence.explicit(big[:16], big[16:])
    runs["huge coefficients"] = list(iterate(ic, listed, 16).terms)
    return runs


def unhinted(values):
    """The renderer's items for `values`, with no hint."""
    return ((v.numerator, v.denominator, None) for v in values)


def hinted(values):
    """The renderer's items for `values`, each hinted with the exact
    ratios of its parts to those of the value four places back."""
    for i, v in enumerate(values):
        back, hint = values[i - 4] if i >= 4 else 0, None
        if back:
            hint = (Fraction(abs(v.numerator), abs(back.numerator)).as_integer_ratio(),
                    Fraction(v.denominator, back.denominator).as_integer_ratio())
        yield v.numerator, v.denominator, hint


#: Each way the tests below hand a run of values to the renderer.
HINTS = {"unhinted": unhinted, "hinted": hinted}


@pytest.fixture(scope="module")
def runs_to_render():
    return _runs_to_render()


def test_the_chain_renderer_writes_what_format_rational_writes(runs_to_render):
    # Under a thread context that traps on any inexact or rounded step: the
    # renderer neither reads it nor changes it.
    strict = decimal.Context(prec=3, traps=[
        decimal.Clamped, decimal.DivisionByZero, decimal.Inexact, decimal.InvalidOperation,
        decimal.Overflow, decimal.Rounded, decimal.Subnormal, decimal.Underflow,
        decimal.FloatOperation])
    with decimal.localcontext(strict) as context:
        before = repr(context)
        for name, values in runs_to_render.items():
            want = [(v.numerator, v.denominator, format_rational(v)) for v in values]
            for how, items in HINTS.items():
                assert list(core._rendered(items(values))) == want, (name, how)
                assert decimal.getcontext() is context and repr(context) == before, (name, how)


def test_a_value_whose_cofactors_are_large_restarts_its_chain(monkeypatch):
    # Twelve unrelated odd 10 000-bit integers with no hint: each shares no
    # small ratio with the value four places earlier.  Every one restarts
    # its chain.
    rng = random.Random(25)
    values = [Fraction(rng.getrandbits(10_000) | 1 << 9_999 | 1) for _ in range(12)]
    want = [format_rational(v) for v in values]
    fresh = count_fresh_conversions(monkeypatch)
    assert [text for *_, text in core._rendered(unhinted(values))] == want
    assert fresh == [v.numerator for v in values]  # 12 of 12


def test_the_chain_renderer_needs_no_higher_int_str_limit(tmp_path):
    # The CSV written under the lowest digit limit the interpreter accepts is
    # the CSV written under the default one.
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(dict(BASELINE, horizon=600)), encoding="utf-8")
    argv = ["iterate", "--spec", str(spec), "--out"]
    assert cli.main([*argv, str(tmp_path / "default.csv")]) == 0
    code = ("import sys; sys.set_int_max_str_digits(640); from sixrde import cli; "
            f"sys.exit(cli.main({[*argv, str(tmp_path / 'limited.csv')]!r}))")
    run_python("-c", code)
    assert (tmp_path / "limited.csv").read_bytes() == (tmp_path / "default.csv").read_bytes()


def _baseline_terms(count: int) -> list:
    spec = cli.parse_problem_spec(BASELINE)
    return list(oracle._terms(spec.initial, spec.coeffs, count))


def test_a_value_without_a_confirmed_hint_runs_no_full_height_gcd(monkeypatch):
    # The Baseline oracle's run with its hints stripped, then with each one
    # off by one, with up and down swapped, and with the other part's: every
    # large part whose hint fails its check restarts its chain, the text is
    # `format_rational`'s, and no gcd operand reaches the piece limit.
    items = _baseline_terms(600)
    want = [(p, q, format_rational(Fraction(p, q))) for p, q, _ in items]
    operands, gcd = [], core.math.gcd
    monkeypatch.setattr(core.math, "gcd", lambda a, b: operands.append(max(a, b)) or gcd(a, b))
    for wrong in (lambda h: None,
                  lambda h: h and tuple((up + 1, down) for up, down in h),
                  lambda h: h and tuple((down, up) for up, down in h),
                  lambda h: h and h[::-1]):
        assert list(core._rendered((p, q, wrong(h)) for p, q, h in items)) == want
    monkeypatch.undo()
    assert max(operands, default=0) < core._PIECE_LIMIT


def test_the_reduced_pair_builds_what_fraction_builds():
    assert Fraction.__slots__ == ("_numerator", "_denominator")
    rng = random.Random(29)
    huge = rng.getrandbits(6_000) | 1 << 5_999 | 1  # odd, so coprime to 2**k
    pairs = [(1, 1), (-1, 1), (0, 1), (-7, 3), (22, 7), (huge, 2**5_900),
             (-huge, 2**5_990), (2**5_000 + 1, huge)]
    for num, den in pairs:
        value, want = core._reduced(num, den), Fraction(num, den)
        assert type(value) is Fraction and value == want and hash(value) == hash(want)
        assert (value.numerator, value.denominator) == (num, den)
        assert {want: 1}[value] == 1
        assert float(value) == float(want) and repr(value) == repr(want)
        assert str(value) == str(want) and format_rational(value) == format_rational(want)
        assert want - 1 < value < want + 1 and not value < want
        assert value + want == 2 * want and value - want == 0
        assert value * want == want * want and -value == -want and abs(value) == abs(want)
        if num:
            assert value / want == 1 and 1 / value == 1 / want
        assert pickle.loads(pickle.dumps(value)) == want


def test_as_rational_rejects_floats():
    with pytest.raises(TypeError):
        as_rational(0.5)
    assert as_rational(" -4/6 ") == Fraction(-2, 3)  # a string is parsed as a literal


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
    assert exc.value.horizon == 4


#: Multi-thousand-digit literals, as a spec file may hold them.
_TALL = core.parse_rational("-" + "9" * 3000 + "/" + "7" * 2500)
_WIDE = core.parse_rational("8" * 2400 + "1/" + "3" * 4000 + "1")


@pytest.mark.parametrize("seq", [
    CoefficientSequence.constant(Fraction(-3, 7), 0),
    CoefficientSequence.constant(_TALL, _WIDE),
    CoefficientSequence.periodic([-2, Fraction(5, 3), _TALL], [0, Fraction(-1, 9), _WIDE]),
    CoefficientSequence.explicit([Fraction(-1, 2), 0, _WIDE, 4, -7],
                                 [_TALL, Fraction(3, 8), 0, -1, 0]),
    CoefficientSequence.explicit([], []),
], ids=["constant", "constant-tall", "periodic", "list", "empty-list"])
def test_step_table_is_the_literal_integer_step(seq):
    # Row n mod len(rows) is (a_num*b_den, b_num*a_den, a_den*b_den) of
    # (a_n, b_n) = pair_at(n), for every n below the horizon; the table is
    # built once and read whole from then on.
    rows, horizon = seq._step_table()
    assert seq._step_table()[0] is rows
    assert len(rows) == len(seq.a_values())
    explicit = seq.kind == "list"
    assert horizon == (len(rows) if explicit else math.inf)
    for n in range(len(rows) if explicit else 3 * len(rows)):
        a, b = seq.pair_at(n)
        assert rows[n % len(rows)] == (a.numerator * b.denominator,
                                       b.numerator * a.denominator,
                                       a.denominator * b.denominator), n
    if explicit:
        with pytest.raises(OutOfHorizon):
            seq.pair_at(horizon)


def test_sequence_rejects_bad_inputs():
    with pytest.raises(ValueError):
        CoefficientSequence.periodic([], [])
    with pytest.raises(ValueError):
        CoefficientSequence.periodic([1], [1, 2])
    with pytest.raises(ValueError, match="explicit a/b value lists must have equal length"):
        CoefficientSequence.explicit([1], [])
    with pytest.raises(ValueError):
        CoefficientSequence.constant(1, 0).a_at(-1)


def test_sequence_structural_equality():
    assert CoefficientSequence.periodic([1, 2], [3, 4]) == CoefficientSequence.periodic(
        [1, 2], [3, 4]
    )
    # Kind alone, then period alone, tells two sequences apart.
    assert CoefficientSequence.constant(1, 0) != CoefficientSequence.periodic([1], [0])
    assert (CoefficientSequence("periodic", (1, 2), (3, 4), period=2)
            != CoefficientSequence("periodic", (1, 2), (3, 4), period=4))
    # So does the last coefficient of a long list, by denominator (in a) or
    # numerator (in b) alone, and the list's length.
    a = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(400)] + [Fraction(1, 3)]
    b = [Fraction(k % 3, k % 11 + 1) for k in range(400)] + [Fraction(1, 3)]
    seq = CoefficientSequence.explicit(a, b)
    assert seq == CoefficientSequence.explicit(list(a), list(b))
    assert seq != CoefficientSequence.explicit(a[:-1] + [Fraction(1, 4)], b)
    assert seq != CoefficientSequence.explicit(a, b[:-1] + [Fraction(2, 3)])
    assert seq != CoefficientSequence.explicit(a[:-1], b[:-1])
    # Entries kept as ints equal the same entries as Fractions.
    as_ints = CoefficientSequence("list", (1, -2, 3), (0, 5, -7))
    assert as_ints == CoefficientSequence.explicit(
        [Fraction(1), Fraction(-2), Fraction(3)], [Fraction(0), Fraction(5), Fraction(-7)])
    assert as_ints == as_ints
    assert as_ints.__eq__((1, -2, 3)) is NotImplemented
    assert as_ints != "list"


def test_a_sequence_builds_what_equality_compares_once(monkeypatch):
    # Two equal 416-step lists compared three times: each builds its integer
    # pairs on the first comparison only, one `as_integer_ratio` call per
    # coefficient (832 per list).
    a = [Fraction(k % 7 - 3, k % 5 + 1) for k in range(416)]
    b = [Fraction(k % 3, k % 11 + 1) for k in range(416)]
    first, second = CoefficientSequence.explicit(a, b), CoefficientSequence.explicit(a, b)
    real, calls = Fraction.as_integer_ratio, []
    monkeypatch.setattr(Fraction, "as_integer_ratio",
                        lambda self: calls.append(1) or real(self))
    for _ in range(3):
        assert first == second
    assert len(calls) == 2 * 832


# ---------------------------------------------------------------------------
# Initial conditions
# ---------------------------------------------------------------------------

def test_all_ones_seed_accepted():
    ic = InitialConditions([1, 1, 1, 1, 1, 1])
    assert ic.values == (1,) * 6


def test_zero_seed_rejected_with_position():
    with pytest.raises(ZeroInitialValue) as exc:
        InitialConditions([1, 1, 0, 1, 1, 1])
    assert exc.value.position == -3


def test_mixed_nonzero_rationals_accepted():
    ic = InitialConditions(
        [Fraction(2, 3), -1, 5, Fraction(7, 2), Fraction(-4, 9), 1]
    )
    assert ic.values[0] == Fraction(2, 3)
    assert ic.values[5] == 1
    assert ic.seed_product(0) == Fraction(2, 3) * 5


def test_wrong_seed_count_rejected():
    with pytest.raises(ValueError):
        InitialConditions((Fraction(1),) * 5)


# ---------------------------------------------------------------------------
# Records
# ---------------------------------------------------------------------------

_SEEDS = "Fraction(1, 1), Fraction(2, 1), Fraction(3, 1), Fraction(4, 1), Fraction(5, 1)"
_HALT = SingularityReport(3, SingularityCause.ZERO_DENOMINATOR_FACTOR)
_HALT_TEXT = (
    "SingularityReport(step=3, "
    "cause=<SingularityCause.ZERO_DENOMINATOR_FACTOR: 'ZeroDenominatorFactor'>)"
)
_FAILURE = RootCheckFailure("Re(i^n)", 3, Fraction(1))
_FAILURE_TEXT = "RootCheckFailure(root='Re(i^n)', n=3, value=Fraction(1, 1))"

# Each record: its fields, the same fields with one changed, and the repr the
# records printed when they were dataclasses.
RECORDS = [
    (InitialConditions, ((1, 2, 3, 4, 5, 6),), ((1, 2, 3, 4, 5, 7),),
     f"InitialConditions(values=({_SEEDS}, Fraction(6, 1)))"),
    (SingularityReport, (3, SingularityCause.ZERO_DENOMINATOR_FACTOR),
     (4, SingularityCause.ZERO_DENOMINATOR_FACTOR), _HALT_TEXT),
    (Orbit, ((Fraction(1, 2), Fraction(3)), _HALT), ((Fraction(1, 2), Fraction(3)), None),
     f"Orbit(terms=(Fraction(1, 2), Fraction(3, 1)), halt={_HALT_TEXT})"),
    (InvariantSequence, ((Fraction(1, 2),),), ((Fraction(1, 3),),),
     "InvariantSequence(values=(Fraction(1, 2),))"),
    (WellDefViolation, (7,), (8,), "WellDefViolation(v_index=7)"),
    (WellDefinednessReport, (2, (WellDefViolation(7),)), (3, (WellDefViolation(7),)),
     "WellDefinednessReport(horizon=2, violations=(WellDefViolation(v_index=7),))"),
    (LscSample, (1, 2, 3, 5, 1, 1), (1, 2, 3, 5, 1, 2),
     "LscSample(n=1, u0=Fraction(2, 1), u2=Fraction(3, 1), u4=Fraction(5, 1), "
     "a=Fraction(1, 1), b=Fraction(1, 1))"),
    (RootCheckFailure, ("Re(i^n)", 3, Fraction(1)), ("Re(i^n)", 4, Fraction(1)),
     _FAILURE_TEXT),
    (PhaseSumReport, (4, (_FAILURE,)), (4, ()),
     f"PhaseSumReport(n_max=4, failures=({_FAILURE_TEXT},))"),
    (ProblemSpec, (InitialConditions((1, 2, 3, 4, 5, 6)), CoefficientSequence.constant(1, 0), 10),
     (InitialConditions((1, 2, 3, 4, 5, 6)), CoefficientSequence.constant(1, 0), 11),
     f"ProblemSpec(initial=InitialConditions(values=({_SEEDS}, Fraction(6, 1))), "
     "coeffs=CoefficientSequence(constant, a=[1], b=[0]), horizon=10)"),
    (Characteristic, ("Q2", (0, 1, 0, -1)), ("Q2", (0, -1, 0, 1)),
     "Characteristic(name='Q2', alpha=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), "
     "Fraction(-1, 1)))"),
]


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS,
                         ids=[case[0].__name__ for case in RECORDS])
def test_records_are_immutable_values(cls, fields, changed, text):
    record = cls(*fields)
    twin = cls(**dict(zip(cls.__match_args__, fields)))  # the same, by keyword
    assert record == twin and record is not twin
    assert record != cls(*changed)
    assert (record == fields) is False
    if cls is ProblemSpec:  # holds a CoefficientSequence, which is unhashable
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    for name in cls.__match_args__:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.other = 1
    assert record == twin
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
    assert repr(record) == text
    # A field missing, one value too many, an unknown keyword, a field twice.
    first = cls.__match_args__[0]
    for args, named in ((fields[:-1], {}), ((*fields, fields[-1]), {}),
                        (fields, {"other": 1}), (fields, {first: fields[0]})):
        with pytest.raises(TypeError):
            cls(*args, **named)


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
