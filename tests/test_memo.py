"""Each engine's per-thread slot for the last solved instance, checked
against direct iteration: query order, instance switches, equal copies,
repeated failures, threads, the coefficient lookups point queries make, and
each block's cofactors and cost."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from sixrde import (
    CoefficientSequence,
    InitialConditions,
    OutOfHorizon,
    SingularClosedForm,
    closedform,
    core,
    iterate,
    oracle,
    specialcases,
    term,
    terms,
    well_defined,
)

from conftest import (
    ENGINES,
    count_normalisations,
    nonsingular_instance,
    random_initial_conditions,
    random_instance,
    random_rational,
    start_cold,
    values_until_error,
)

TOP = 60
engines = pytest.mark.parametrize("point, window", ENGINES.values(), ids=ENGINES)


def regular(seed):
    """A 4-periodic instance that survives TOP steps, with its orbit."""
    return nonsingular_instance(random.Random(seed), TOP, "periodic4")


def halting(seed):
    """A 4-periodic instance whose orbit halts within TOP steps."""
    rng = random.Random(seed)
    while True:
        ic, coeffs = random_instance(rng, "periodic4")
        orbit = iterate(ic, coeffs, TOP)
        if orbit.halt is not None:
            return ic, coeffs, orbit


@engines
def test_point_queries_in_any_order_match_iteration(point, window):
    ic, coeffs, orbit = regular(301)
    indices = list(range(-5, TOP + 1))
    for order in (indices[::-1], random.Random(302).sample(indices, len(indices))):
        start_cold()
        assert [point(m, ic, coeffs) for m in order] == [orbit.x(m) for m in order]


@engines
def test_queries_interleaved_across_two_instances(point, window):
    first, second = regular(303), regular(304)
    start_cold()
    for m in range(-5, TOP + 1):
        for ic, coeffs, orbit in (first, second):
            assert point(m, ic, coeffs) == orbit.x(m), m
    start_cold()
    ranges = [window(-5, TOP, ic, coeffs) for ic, coeffs, _ in (first, second)]
    assert list(zip(*ranges)) == list(zip(first[2].terms, second[2].terms))


def long_list(seed, steps=400):
    """An explicit list of steps + 16 coefficients, as long as a CLI spec's,
    whose orbit survives `steps` steps, with that orbit."""
    rng = random.Random(seed)
    while True:
        ic = random_initial_conditions(rng)
        a, b = ([random_rational(rng, -5, 5, 5) for _ in range(steps + 16)] for _ in "ab")
        coeffs = CoefficientSequence.explicit(a, b)
        orbit = iterate(ic, coeffs, steps)
        if orbit.halt is None:
            return ic, coeffs, orbit


def fresh_copy(coeffs):
    """An equal sequence of the same kind whose every entry is a new Fraction."""
    a, b = ([Fraction(v.numerator, v.denominator) for v in values]
            for values in (coeffs.a_values(), coeffs.b_values()))
    if coeffs.kind == "list":
        return CoefficientSequence.explicit(a, b)
    return CoefficientSequence.periodic(a, b)


@engines
def test_an_equal_copy_reuses_the_solved_instance(point, window, monkeypatch):
    instances = [regular(305)]
    if point is term:  # the closed form also takes a list as long as the CLI's
        instances.append(long_list(305))
    for ic, coeffs, orbit in instances:
        # The seeds are the same Fractions, so only `coeffs` is compared by value.
        same_ic = InitialConditions(tuple(ic.values))
        same_coeffs = fresh_copy(coeffs)
        assert same_ic is not ic and same_coeffs is not coeffs
        top = orbit.last_m
        start_cold()
        solved = [point(m, ic, coeffs) for m in range(-5, top + 1)]
        # Every query below finds the slot by comparing the coefficients as
        # ints and then reads a stored block: no Fraction comparison at all.
        compared = []
        with monkeypatch.context() as patch:
            eq = Fraction.__eq__
            patch.setattr(Fraction, "__eq__", lambda p, q: compared.append(1) or eq(p, q))
            again = [point(m, same_ic, same_coeffs) for m in range(-5, top + 1)]
        assert compared == []
        # The stored values themselves come back: nothing was recomputed.
        assert all(x is y for x, y in zip(solved, again, strict=True))
        assert solved == list(orbit.terms)
        assert list(window(-5, top, same_ic, same_coeffs)) == solved


@engines
def test_a_singular_query_fails_alike_each_time_and_keeps_earlier_terms(point, window):
    for seed in range(306, 312):
        ic, coeffs, orbit = halting(seed)
        singular = orbit.last_m + 1
        start_cold()
        errors = []
        for m in (singular, singular, singular + 4, singular + 4):
            with pytest.raises(SingularClosedForm) as exc:
                point(m, ic, coeffs)
            errors.append((exc.value.v_index, str(exc.value)))
        assert set(errors) == {errors[0]}
        assert errors[0][0] == orbit.halt.step + 4
        assert [point(m, ic, coeffs) for m in range(-5, singular)] == list(orbit.terms)
        got, error = values_until_error(window(-5, singular + 8, ic, coeffs))
        assert got == list(orbit.terms)
        assert (error[2]["v_index"], error[1]) == errors[0]


def test_an_explicit_list_still_runs_out_before_a_singular_v():
    # V_4 = a_0 + b_0 = 0 makes x_1 singular; x_13 also needs coefficient 6,
    # past the list's end, and says so however warm the slot is.
    ones = InitialConditions([1] * 6)
    coeffs = CoefficientSequence.explicit([1] * 4, [-1, 0, 0, 0])
    start_cold()
    for _ in range(2):
        with pytest.raises(SingularClosedForm) as exc:
            term(1, ones, coeffs)
        assert exc.value.v_index == 4
        assert well_defined(ones, coeffs, 3).violations[0].v_index == 4
        with pytest.raises(OutOfHorizon, match="coefficient index 6 is past"):
            term(13, ones, coeffs)
    assert [term(m, ones, coeffs) for m in range(-5, 1)] == [1] * 6


def test_an_explicit_list_ends_every_engine_at_the_coefficient_it_lacks():
    # Ten coefficients (2, 1): V_(k+4) = 2 V_k + 1 never vanishes, so each
    # engine runs until it reads coefficient index 10, or a later one of its
    # own class for a cold point query.
    ones = InitialConditions([1] * 6)
    coeffs = CoefficientSequence.explicit([2] * 10, [1] * 10)
    assert iterate(ones, coeffs, 10).halt is None
    got, error = values_until_error(oracle._terms(ones, coeffs, 30))
    assert len(got) == 16 and error[2] == {"n": 10, "horizon": 10}
    start_cold()
    got, error = values_until_error(term(m, ones, coeffs) for m in range(-5, 30))
    assert got == list(iterate(ones, coeffs, 10).terms)
    assert error[2] == {"n": 10, "horizon": 10}
    # Cold, x_20 extends V's class 1 (coefficients 1, 5, 9, 13) before its
    # class 3 (3, 7, 11): the numerator column is formed first.
    start_cold()
    with pytest.raises(OutOfHorizon) as caught:
        term(20, ones, coeffs)
    assert caught.value.n == 13
    # The guard stops at V_14, the first V that needs coefficient 10, having
    # formed every V below it: V_0..V_13.
    start_cold()
    assert well_defined(ones, coeffs, 40).ok
    table = closedform._solved("closedform", closedform._InvariantTable, ones, coeffs).f
    assert [len(column) for column in table._columns] == [4, 4, 3, 3]


def test_an_explicit_list_that_halts_first_reports_its_halt():
    # b_3 = -1 makes V_7 = 1 - 1 = 0: direct iteration halts at step 3, well
    # inside the twelve coefficients, and no engine reads past them.
    ones = InitialConditions([1] * 6)
    coeffs = CoefficientSequence.explicit([1] * 12, [0, 0, 0, -1] + [0] * 8)
    orbit = iterate(ones, coeffs, 40)
    assert orbit.halt.step == 3 and orbit.last_m == 3
    start_cold()
    got, error = values_until_error(term(m, ones, coeffs) for m in range(-5, 30))
    assert got == list(orbit.terms) and error[2]["v_index"] == 7
    report = well_defined(ones, coeffs, 40)
    assert report.first_halt_step == 3
    # V_7 = 0 carries on as V_11 = V_15 = 0; V_16 needs coefficient 12.
    assert [v.v_index for v in report.violations] == [7, 11, 15]


def test_two_threads_on_one_fresh_sequence_get_the_same_values():
    # The step table is built on first use and assigned whole, so threads
    # that race to build it each read a complete one.
    ic, base, orbit = regular(321)
    for _ in range(8):
        coeffs = CoefficientSequence.periodic(base.a_values(), base.b_values())
        start = threading.Barrier(2, timeout=60)
        results = [None, None]

        def work(index):
            try:
                start.wait()
                results[index] = (iterate(ic, coeffs, TOP).terms,
                                  list(terms(-5, TOP, ic, coeffs)),
                                  [specialcases.term(m, ic, coeffs) for m in range(-5, TOP + 1)])
            except Exception as exc:  # reported through `results`
                results[index] = exc

        threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        want = list(orbit.terms)
        assert results[0] == results[1]
        assert [list(values) for values in results[0]] == [want] * 3


@engines
def test_threads_keep_their_own_slot(point, window):
    instances = [regular(seed) for seed in range(313, 317)]  # one per thread
    passes = threading.Barrier(len(instances), timeout=60)
    results = {}

    def work(index, ic, coeffs, orbit):
        try:
            passes.wait()
            first = [point(m, ic, coeffs) for m in range(-5, TOP + 1)]
            passes.wait()  # every other thread has solved its own instance
            again = [point(m, ic, coeffs) for m in range(-5, TOP + 1)]
            results[index] = (first == list(orbit.terms),
                              all(x is y for x, y in zip(first, again)))
        except Exception as exc:  # reported through `results`
            results[index] = exc

    threads = [threading.Thread(target=work, args=(i, *instance))
               for i, instance in enumerate(instances)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == {i: (True, True) for i in range(len(instances))}


def test_each_engine_keeps_its_own_slot_on_one_thread():
    ic, coeffs, orbit = regular(318)
    indices = range(-5, TOP + 1)
    start_cold()
    general, special = zip(*[(term(m, ic, coeffs), specialcases.term(m, ic, coeffs))
                             for m in indices])
    assert list(general) == list(special) == list(orbit.terms)
    # Past the seeds, each engine formed every term itself.
    assert not any(x is y for x, y in zip(general[4:], special[4:]))
    for m, x, y in zip(indices, general, special):
        assert term(m, ic, coeffs) is x and specialcases.term(m, ic, coeffs) is y
    # Both ranges on one thread, zipped as `compare` reads them.
    ranges = zip(terms(-5, TOP, ic, coeffs), specialcases.terms(-5, TOP, ic, coeffs))
    assert all(x is g and y is s
               for (x, y), g, s in zip(ranges, general, special, strict=True))


class CountedRows(tuple):
    """A step table that counts each row read from it on its sequence."""

    def __new__(cls, rows, owner):
        counted = super().__new__(cls, rows)
        counted.owner = owner
        return counted

    def __getitem__(self, i):
        self.owner.lookups += 1
        return super().__getitem__(i)


class CountingCoefficients(CoefficientSequence):
    """A coefficient sequence that counts its coefficient reads: `a_at`,
    `b_at` and `pair_at` lookups and rows read from its step table."""

    __slots__ = ("lookups",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups = 0

    def a_at(self, n):
        self.lookups += 1
        return super().a_at(n)

    def b_at(self, n):
        self.lookups += 1
        return super().b_at(n)

    def pair_at(self, n):
        self.lookups += 1
        return super().pair_at(n)

    def _step_table(self):
        rows, horizon = super()._step_table()
        return CountedRows(rows, self), horizon


def test_point_queries_look_up_no_more_coefficients_than_one_range():
    ic = InitialConditions([1, 2, 3, 1, 2, 3])
    a, b = (2, Fraction(1, 3), 1, Fraction(3, 2)), (1, Fraction(1, 2), 2, Fraction(1, 5))
    ranged, pointed = (CountingCoefficients.periodic(a, b) for _ in range(2))
    start_cold()
    values = list(terms(-5, 200, ic, ranged))
    start_cold()
    assert [term(m, ic, pointed) for m in range(-5, 201)] == values
    assert 0 < pointed.lookups <= ranged.lookups


def test_special_case_constants_are_formed_once_per_instance():
    # Each block reads the per-class constants; re-forming them per block
    # would read the coefficients again and make the count grow with the range.
    ic = InitialConditions((2, 3, 5, 7, 11, 13))
    counts = []
    for top in (50, 400):
        coeffs = CountingCoefficients.periodic((2, Fraction(-1, 3)), (1, Fraction(5, 7)))
        start_cold()
        assert len(list(specialcases.terms(-5, top, ic, coeffs))) == top + 6
        counts.append(coeffs.lookups)
    assert counts[0] == counts[1] > 0


#: Each engine's point query, range of (num, den, hint) items and factor sequence.
ITEMS = {"closedform": (term, closedform._items, closedform._InvariantTable),
         "specialcases": (specialcases.term, specialcases._items, specialcases._Factors)}
items_engines = pytest.mark.parametrize("point, items, factors", ITEMS.values(), ids=ITEMS)


@items_engines
@pytest.mark.parametrize("instance", [regular(319), halting(332)], ids=["regular", "halting"])
def test_each_hint_is_each_parts_ratio_to_the_same_part_four_terms_back(
        point, items, factors, instance):
    # Cold ranges from the first seed and from part-way through every class,
    # and ranges that start behind the frontier an earlier query left.
    ic, coeffs, orbit = instance
    last = orbit.last_m
    for lo, before in ((-5, None), (2, None), (2, last), (-3, 9), (6, last // 2)):
        start_cold()
        if before is not None:
            point(before, ic, coeffs)
        got = list(items(lo, last, ic, coeffs))
        assert [(p, q) for p, q, _ in got] == [
            orbit.x(m).as_integer_ratio() for m in range(lo, last + 1)]
        for m, (p, q, hint) in enumerate(got, lo):
            if m < -1:  # a seed block
                assert hint is None
                continue
            (up, down), (q_up, q_down) = hint
            p4, q4 = orbit.x(m - 4).as_integer_ratio()
            assert abs(p) * down == abs(p4) * up and q * q_down == q4 * q_up
    if orbit.halt is not None:
        with pytest.raises(SingularClosedForm):
            list(items(last + 1, last + 1, ic, coeffs))


@items_engines
def test_each_block_costs_four_gcds_and_no_fraction_arithmetic(monkeypatch, point, items,
                                                                factors):
    # With every factor formed first, a new block runs the two small gcds
    # that reduce its factor ratio and the two that cross-cancel that ratio
    # against the block before it, and no `Fraction` operation.
    ic, coeffs, orbit = regular(320)
    telescope = core._Telescope(ic.values, factors(ic, coeffs))
    for k in range(TOP + 8):
        telescope.f(k)
    normalisations = count_normalisations(monkeypatch)
    got = [telescope.x(m) for m in range(-5, TOP + 1)]
    monkeypatch.undo()
    assert len(normalisations) == 4 * (TOP + 2)  # every block past the four seeds
    assert got == list(orbit.terms)
