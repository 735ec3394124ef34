"""Shared random-instance helpers, the engine table, the per-test time
limit, the one-run cache and the child-`python` launcher for the test suite.

Instance generation uses seeded `random.Random` so every run exercises the
same instances.  Seeds live in [-10, 10] with denominators <= 10;
coefficients are kept a little smaller to curb bignum growth over long
orbits.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import random
import signal
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from sixrde import (
    CoefficientSequence,
    InitialConditions,
    SixrdeError,
    cli,
    core,
    iterate,
    specialcases,
    term,
    terms,
)


ROOT = Path(__file__).resolve().parent.parent

#: Wall-clock seconds each phase of a test (setup with its fixtures, call,
#: teardown) may take.  The slowest test takes about 1.3 s; a step that
#: multiplies the wrong terms makes term heights grow exponentially, and the
#: limit turns that hang into a failure.
TEST_SECONDS = 30


class TimeLimitExceeded(BaseException):
    """A test ran past `TEST_SECONDS`.  Not an `Exception`, so neither the
    code under test nor hypothesis takes it for a result and carries on."""


def _time_limited(item):
    def expire(signum, frame):
        raise TimeLimitExceeded(f"{item.nodeid} ran past {TEST_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, TEST_SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


pytest_runtest_setup = pytest.hookimpl(hookwrapper=True)(_time_limited)
pytest_runtest_call = pytest.hookimpl(hookwrapper=True)(_time_limited)
pytest_runtest_teardown = pytest.hookimpl(hookwrapper=True)(_time_limited)


def once(builder):
    """`builder`, run once per set of arguments: later calls return its value
    or raise its `Exception` or `TimeLimitExceeded` again.  pytest keeps a
    fixture's error only when it is an `Exception` and `functools.cache`
    keeps none, so a builder that ran past the limit would otherwise run to
    it again for each later caller.  `KeyboardInterrupt` is not kept."""
    outcomes = {}

    @functools.wraps(builder)
    def cached(*args):
        if args not in outcomes:
            try:
                outcomes[args] = builder(*args), None, None
            except (Exception, TimeLimitExceeded) as exc:
                outcomes[args] = None, exc, exc.__traceback__
        value, error, trace = outcomes[args]
        if error is not None:
            raise error.with_traceback(trace)  # each caller sees the first traceback
        return value

    return cached


def child_env(**variables: str) -> dict[str, str]:
    """The environment for a child `python`: this one with `src` on
    PYTHONPATH, and PYTHONUNBUFFERED dropped unless `variables` sets it, so
    the child's streams are buffered as Python's defaults have them."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env.update(PYTHONPATH=str(ROOT / "src"), **variables)
    return env


def run_python(*args: str, code: int = 0, cwd=None, timeout: float = 120):
    """Run `python *args` to its end in `child_env()`, its output captured as
    bytes; check that it exits with `code` and return the finished run."""
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=child_env(),
                          capture_output=True, timeout=timeout)
    assert done.returncode == code, done.stderr.decode(errors="replace")
    return done


#: The two product engines, (point query, range) each, by module.  Both take
#: (m, ic, coeffs) and (lo, hi, ic, coeffs); the special cases refuse periods
#: other than 1, 2 and 4 and explicit lists.
ENGINES = {
    "closedform": (term, terms),
    "specialcases": (specialcases.term, specialcases.terms),
}


def random_rational(rng: random.Random, lo=-10, hi=10, max_den=10, nonzero=False):
    while True:
        num = rng.randint(lo, hi)
        if num or not nonzero:
            return Fraction(num, rng.randint(1, max_den))


def random_initial_conditions(rng: random.Random) -> InitialConditions:
    return InitialConditions(
        tuple(random_rational(rng, nonzero=True) for _ in range(6))
    )


def random_coefficients(rng: random.Random, kind: str) -> CoefficientSequence:
    def coeff():
        return random_rational(rng, lo=-5, hi=5, max_den=5)

    if kind == "constant":
        return CoefficientSequence.constant(coeff(), coeff())
    period = int(kind.removeprefix("periodic"))
    return CoefficientSequence.periodic(
        [coeff() for _ in range(period)], [coeff() for _ in range(period)]
    )


COEFF_KINDS = ("constant", "periodic2", "periodic3", "periodic4")


def spec_dict_from(ic, coeffs, horizon):
    """The spec file's JSON object for (ic, coeffs) with this horizon."""
    return json.loads(cli.canonical_spec_json(cli.ProblemSpec(ic, coeffs, horizon)))


def random_instance(rng: random.Random, kind=None):
    if kind is None:
        kind = rng.choice(COEFF_KINDS)
    return random_initial_conditions(rng), random_coefficients(rng, kind)


#: Steps of the prefix `bounded_orbit` iterates first, and the bit height its
#: terms may reach there.  Over every draw the suite's seeded instances make,
#: the prefix's tallest term has 183 bits (about 0.2 * PREFIX_STEPS**2);
#: a step that combines the wrong terms grows heights exponentially and has
#: passed 660 bits by step 30 on the first draw.
PREFIX_STEPS = 30
PREFIX_BITS = PREFIX_STEPS**2 // 2


def bounded_orbit(ic, coeffs, steps: int):
    """`iterate(ic, coeffs, steps)`, after failing at once if the first
    `PREFIX_STEPS` steps outgrow quadratic height, which a healthy orbit
    never does: a wrong recurrence then fails in milliseconds instead of
    running to the time limit on exponentially tall terms."""
    prefix = iterate(ic, coeffs, PREFIX_STEPS)
    bits = max(max(abs(t.numerator).bit_length(), t.denominator.bit_length())
               for t in prefix.terms)
    assert bits <= PREFIX_BITS, (
        f"a term of the first {PREFIX_STEPS} steps has {bits} bits, "
        f"past the quadratic-growth bound {PREFIX_BITS}")
    return iterate(ic, coeffs, steps)


NONSINGULAR_DRAWS = 12  # four times the 3 draws the most demanding caller needs


def nonsingular_instance(rng: random.Random, steps: int, kind=None):
    """Draw instances until one survives `steps` iterations; return with orbit.
    After `NONSINGULAR_DRAWS` halted draws it fails, so a fault that halts
    every orbit fails at once instead of at the time limit."""
    for _ in range(NONSINGULAR_DRAWS):
        ic, coeffs = random_instance(rng, kind)
        orbit = bounded_orbit(ic, coeffs, steps)
        if orbit.halt is None:
            return ic, coeffs, orbit
    raise AssertionError(f"{NONSINGULAR_DRAWS} draws in a row halted within {steps} "
                         "steps; no caller needs more than 3 draws")


def range_window(rng: random.Random, orbit, top: int) -> tuple[int, int]:
    """An index window lo..hi, lo >= -5: anywhere up to `top` for an orbit that
    survived, and one reaching past the first singular index for a halted one."""
    if orbit.halt is None:
        lo = rng.randint(-5, top - 20)
        return lo, rng.randint(lo, top)
    singular = orbit.last_m + 1
    return rng.randint(-5, singular), singular + rng.randint(0, 8)


def values_until_error(values):
    """The values an iterable yields, and the sixrde error that ends it as
    (type name, message, attributes), or None if it runs out."""
    got = []
    try:
        for value in values:
            got.append(value)
    except SixrdeError as exc:
        return got, (type(exc).__name__, str(exc), vars(exc))
    return got, None


# Drawn instances keep |a| <= 5, so a = 1000 never equals one of them.
_UNDRAWN = (InitialConditions((7,) * 6), CoefficientSequence.constant(1000, 1000))


def start_cold():
    """Point each engine's per-thread slot for the last solved instance at
    one no test draws, so the next query builds its state from the seeds."""
    for point, _ in ENGINES.values():
        point(-5, *_UNDRAWN)


def count_normalisations(monkeypatch) -> list:
    """Make every `Fraction` product, quotient, sum and difference raise until
    `monkeypatch.undo()`, and return a list that gains one entry per gcd
    that `Fraction` runs: one per `Fraction(num, den)` built from ints."""
    def forbidden(*args):
        raise AssertionError("a Fraction product, quotient, sum or difference was made")

    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__",
                 "__add__", "__radd__", "__sub__", "__rsub__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    calls = []
    gcd = math.gcd
    monkeypatch.setattr(math, "gcd", lambda a, b: calls.append(1) or gcd(a, b))
    return calls


#: Past the piece limit a term's parts are carried from the same parts four
#: rows earlier, so only a chain's first large part (of 8: two per class) is
#: converted afresh by `core._digits`.  At N = 1600 converting every large
#: part afresh would make 2755 such top-level calls.
FRESH_CONVERSIONS = 2 * 8


def count_fresh_conversions(monkeypatch) -> list:
    """Return a list that gains each integer `core._digits` converts afresh
    (its top-level calls, not its recursion) until `monkeypatch.undo()`."""
    real, depth, fresh = core._digits, [0], []

    def counted(n):
        if not depth[0]:
            fresh.append(n)
        depth[0] += 1
        try:
            return real(n)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(core, "_digits", counted)
    return fresh


#: Seeds 2, 3, 5, 7, 11, 13 and 2-periodic a = (2, -1/3), b = (1, 5/7).
BASELINE = {
    "initial": ["2", "3", "5", "7", "11", "13"],
    "coeffs": {"kind": "periodic", "period": 2, "a": ["2", "-1/3"], "b": ["1", "5/7"]},
    "horizon": 40,
}


@once
def run_on_baseline(*argv: str) -> tuple[int, tuple[str, int]]:
    """Run `cli.main([*argv, "--spec", <BASELINE>, "--out", <file>])` once
    per session and return how many integers `core._digits` converted afresh
    and the output's (md5, byte length).  The N = 1600 commands take about a
    second each, and both their digest pins and their conversion counts read
    the same run."""
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as patch:
        spec, out = Path(tmp) / "spec.json", Path(tmp) / "out"
        spec.write_text(json.dumps(BASELINE), encoding="utf-8")
        fresh = count_fresh_conversions(patch)
        assert cli.main([*argv, "--spec", str(spec), "--out", str(out)]) == 0
        return len(fresh), file_digest(out)


def file_digest(path: Path) -> tuple[str, int]:
    """Return the md5 hex digest and byte length of the file at `path`."""
    with open(path, "rb") as fh:
        return stream_digest(fh)


def stream_digest(fh) -> tuple[str, int]:
    """Return the md5 hex digest and byte length of what binary `fh` reads
    to its end, read in 1 MiB chunks."""
    md5, size = hashlib.md5(), 0
    while chunk := fh.read(1 << 20):
        md5.update(chunk)
        size += len(chunk)
    return md5.hexdigest(), size
