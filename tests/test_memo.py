"""Each engine's per-thread slot for the last solved instance, checked
against direct iteration: query order, instance switches, equal copies,
repeated failures, threads, and the coefficient lookups point queries make."""

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
    iterate,
    specialcases,
    term,
    terms,
    well_defined,
)

from conftest import (
    ENGINES,
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


class CountingCoefficients(CoefficientSequence):
    """A coefficient sequence that counts its `pair_at` lookups."""

    __slots__ = ("lookups",)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.lookups = 0

    def pair_at(self, n):
        self.lookups += 1
        return super().pair_at(n)


def test_point_queries_look_up_no_more_coefficients_than_one_range():
    ic = InitialConditions([1, 2, 3, 1, 2, 3])
    a, b = (2, Fraction(1, 3), 1, Fraction(3, 2)), (1, Fraction(1, 2), 2, Fraction(1, 5))
    ranged, pointed = (CountingCoefficients.periodic(a, b) for _ in range(2))
    start_cold()
    values = list(terms(-5, 200, ic, ranged))
    start_cold()
    assert [term(m, ic, pointed) for m in range(-5, 201)] == values
    assert 0 < pointed.lookups <= ranged.lookups


class CountingSeeds(InitialConditions):
    """Initial conditions that count their `seed_product` calls."""

    def __init__(self, values):
        super().__init__(values)
        object.__setattr__(self, "calls", 0)

    def seed_product(self, j):
        object.__setattr__(self, "calls", self.calls + 1)
        return super().seed_product(j)


def test_special_case_constants_are_formed_once_per_instance():
    # Each block reads the per-class constants; re-forming them per block
    # would make the count grow with the range.
    coeffs = CoefficientSequence.periodic((2, Fraction(-1, 3)), (1, Fraction(5, 7)))
    counts = []
    for top in (50, 400):
        ic = CountingSeeds((2, 3, 5, 7, 11, 13))
        start_cold()
        assert len(list(specialcases.terms(-5, top, ic, coeffs))) == top + 6
        counts.append(ic.calls)
    assert counts[0] == counts[1] > 0
