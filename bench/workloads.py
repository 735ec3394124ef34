"""The three benchmark workloads: how their inputs are drawn, what each op
calls, and how each op's output is checked against `reference`.

A workload is built in two steps.  `generate` (stdlib only) draws the inputs
from the seed and writes them as files into a work directory; `load` imports
nothing itself but reads those files through the sixrde module it is given.
`load` is the set-up the benchmark times, so it is all the program sees
before the first op: the generated spec files, or instances built from them.

Every op is a closed-loop call (one in flight, single thread).  Its check
runs outside the op's timed span and returns whether the output was exactly
right, how many exact x_m values it delivered, and a fingerprint used to
compare traced and untraced runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import gen
import reference

DEFAULT_SEED = 1
DIGESTS_FILE = Path(__file__).with_name("digests.json")

#: Families that have a dedicated special-case formula (`solve --engine auto`).
SPECIAL = {
    "constant": "term_const_general",
    "constant_a1": "term_const_a1",
    "constant_a_neg1": "term_const_a_neg1",
    "periodic2": "term_periodic2",
    "periodic4": "term_periodic4",
}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    terms: int
    fingerprint: str
    out_bytes: int = 0


@dataclass
class Op:
    """One closed-loop call.  `run` is the only part that is timed."""

    key: str
    run: Callable[[], object]
    check: Callable[[object, str], Outcome]
    gauges: Callable[[], dict]
    before: Callable[[], None] = lambda: None


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digits(values) -> int:
    """Largest decimal digit count of a numerator or denominator."""
    return max(
        (max(len(str(abs(v.numerator))), len(str(v.denominator))) for v in values),
        default=0,
    )


def _has_special(spec: str) -> bool:
    """Whether a spec (named after its family, `family-k`) has `--engine auto`."""
    return spec.split("-")[0] in SPECIAL


def _v_bits(inst, top_index: int) -> int:
    return reference.max_bits(reference.v_values(inst, top_index + 1))


# ---------------------------------------------------------------------------
# CLI workloads: ops are in-process `sixrde.cli.main` calls on spec files
# ---------------------------------------------------------------------------

CLI_HORIZON = 400
CLI_LIST_LENGTH = CLI_HORIZON + 16  # closed-form V tables read past x_400


@dataclass
class _Expected:
    exit: int
    stderr: str
    digest: str
    terms: int
    gauges: dict


class CliWorkload:
    """Shared machinery of `export` and `solve`."""

    name = ""
    why = ""

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        self.instances = self.generate(random.Random(f"{self.name}:{seed}"))
        (workdir / "specs").mkdir(parents=True, exist_ok=True)
        (workdir / "out").mkdir(exist_ok=True)
        for spec, inst in self.instances.items():
            self.spec_path(spec).write_text(json.dumps(inst.spec(CLI_HORIZON)))
        self.pinned = {}
        if seed == DEFAULT_SEED and DIGESTS_FILE.exists():
            self.pinned = json.loads(DIGESTS_FILE.read_text()).get(self.name, {})
        self._expected: dict[str, _Expected] = {}

    def generate(self, rng: random.Random) -> dict:
        return {
            family: gen.draw_regular(rng, family, CLI_HORIZON, CLI_LIST_LENGTH)
            for family in gen.FAMILIES
        }

    def spec_path(self, spec: str) -> Path:
        return self.workdir / "specs" / f"{spec}.json"

    @staticmethod
    def load(sixrde, workdir: Path) -> None:
        for path in sorted((workdir / "specs").glob("*.json")):
            sixrde.cli.load_problem_spec(str(path))

    def cycle(self, sixrde, loaded) -> list[Op]:
        raise NotImplementedError

    def _op(self, sixrde, key, spec, argv, expect) -> Op:
        out = self.workdir / "out" / (key.replace(":", "_") + ".out")
        argv = [argv[0], "--spec", str(self.spec_path(spec)), *argv[1:],
                "--out", str(out)]

        def expected() -> _Expected:
            if key not in self._expected:
                self._expected[key] = expect(self.instances[spec])
            return self._expected[key]

        def check(code, stderr) -> Outcome:
            data = out.read_bytes() if out.exists() else b""
            digest = _digest(data)
            want = expected()
            ok = (
                code == want.exit
                and stderr == want.stderr
                and digest == want.digest
                and self.pinned.get(key, digest) == digest
            )
            return Outcome(ok, want.terms if ok else 0,
                           f"{code}:{digest}:{stderr}", len(data))

        return Op(
            key=key,
            run=lambda: sixrde.cli.main(argv),
            check=check,
            gauges=lambda: expected().gauges,
            before=lambda: out.unlink(missing_ok=True),
        )

    def iterate_op(self, sixrde, spec: str, n: int) -> Op:
        def expect(inst) -> _Expected:
            terms, _halt = reference.orbit(inst, n)  # drawn regular
            return _Expected(0, "", _digest(reference.csv_bytes(terms, -5, n)),
                             len(terms), {
                                 "oracle.max_term_bits": reference.max_bits(terms),
                                 "core.max_out_digits": _digits(terms),
                             })

        return self._op(sixrde, f"iterate:{spec}:{n}", spec,
                        ["iterate", "--n", str(n)], expect)

    def solve_op(self, sixrde, family: str, lo: int, hi: int, engine: str) -> Op:
        def expect(inst) -> _Expected:
            terms, halt = reference.orbit(inst, hi)
            code, stderr, top = 0, "", hi
            if halt is not None:
                code, stderr, top = 2, reference.solve_stderr(halt), halt
            data = reference.csv_bytes(terms, lo, top)
            rows = terms[lo + 5: top + 6]
            gauges = {
                "oracle.max_term_bits": reference.max_bits(rows),
                "core.max_out_digits": _digits(rows),
            }
            if engine == "general":
                gauges["closedform.max_v_bits"] = _v_bits(inst, min(hi, top + 1) + 3)
            return _Expected(code, stderr, _digest(data), len(rows), gauges)

        return self._op(
            sixrde, f"solve:{family}:{engine}:{lo}..{hi}", family,
            ["solve", "--range", f"{lo}..{hi}", "--engine", engine], expect,
        )

    def compare_op(self, sixrde, family: str, n: int) -> Op:
        special = _has_special(family)

        def expect(inst) -> _Expected:
            terms, _halt = reference.orbit(inst, n)
            data = reference.compare_bytes(inst, n, special)
            return _Expected(0, "", _digest(data),
                             len(terms) * (3 if special else 2), {
                                 "oracle.max_term_bits": reference.max_bits(terms),
                                 "closedform.max_v_bits": _v_bits(
                                     inst, 4 * (n // 4 + 3) + 3),
                                 "core.max_out_digits": _digits(terms),
                             })

        return self._op(sixrde, f"compare:{family}:{n}", family,
                        ["compare", "--n", str(n)], expect)

    def pinned_digests(self) -> dict:
        return {key: e.digest for key, e in sorted(self._expected.items())}


class Export(CliWorkload):
    name = "export"
    why = (
        "iterate to CSV over every coefficient family at N=100,200,400: the "
        "oracle plus output path only, so closed-form changes must not move it"
    )
    LADDER = (100, 200, 400)
    SPECS_PER_FAMILY = 4  # averages out how the seed's values set the heights

    def generate(self, rng: random.Random) -> dict:
        return {
            f"{family}-{k}": gen.draw_regular(rng, family, CLI_HORIZON, CLI_LIST_LENGTH)
            for family in gen.FAMILIES
            for k in range(self.SPECS_PER_FAMILY)
        }

    def cycle(self, sixrde, loaded) -> list[Op]:
        return [self.iterate_op(sixrde, spec, n)
                for spec in self.instances for n in self.LADDER]


class Solve(CliWorkload):
    name = "solve"
    why = (
        "closed form and special cases: O(N^2)-O(N^3) range solves and compare "
        "at N=100,200 (p90) plus point queries at M=50..400 (p50), one singular"
    )
    RANGES = (100, 200)
    POINTS = (50, 100, 150, 200, 250, 300, 350, 400)
    SINGULAR = "constant-singular"
    SINGULAR_STEP = 61

    def generate(self, rng: random.Random) -> dict:
        specs = super().generate(rng)
        specs[self.SINGULAR] = gen.draw_singular(
            rng, "constant", self.SINGULAR_STEP, CLI_LIST_LENGTH)
        return specs

    @staticmethod
    def engines(spec: str) -> tuple[str, ...]:
        return ("general", "auto") if _has_special(spec) else ("general",)

    def cycle(self, sixrde, loaded) -> list[Op]:
        ops = []
        for family in (*gen.FAMILIES, self.SINGULAR):
            for n in self.RANGES:
                ops += [self.solve_op(sixrde, family, -5, n, engine)
                        for engine in self.engines(family)]
                ops.append(self.compare_op(sixrde, family, n))
        for family in gen.FAMILIES:
            for m in self.POINTS:
                ops += [self.solve_op(sixrde, family, m, m, engine)
                        for engine in self.engines(family)]
        # The singular spec is queried at its last term and at the one
        # iteration cannot form.
        halt = reference.orbit(self.instances[self.SINGULAR], CLI_HORIZON)[1]
        for m in (halt, halt + 1):
            ops += [self.solve_op(sixrde, self.SINGULAR, m, m, engine)
                    for engine in self.engines(self.SINGULAR)]
        return ops


# ---------------------------------------------------------------------------
# sweep: library calls on many small instances
# ---------------------------------------------------------------------------

SWEEP_HORIZON = 55
SWEEP_GUARD_HORIZON = SWEEP_HORIZON // 4 + 2
SWEEP_LIST_LENGTH = SWEEP_HORIZON + 16
SYMMETRY_N_MAX = 16
GAMMA_LIMIT = 8


@dataclass
class _SweepItem:
    ic: object
    coeffs: object
    special: "tuple[str, object] | None"
    last_m: int
    halted: bool
    magnitude_at: list
    samples: list


@dataclass
class _SweepExpected:
    terms: tuple
    halt: "int | None"
    v: "tuple | None"
    violations: list
    position: "tuple | None"
    magnitudes: list
    gauges: dict = field(default_factory=dict)


class Sweep:
    name = "sweep"
    why = (
        "many desk-scale (N=55) instances, a quarter singular: per-call overhead "
        "of every layer, guard, invariant, unified magnitude and symmetry checks"
    )
    POOL = 84
    SAMPLES_PER_OP = 4

    def __init__(self, seed: int, workdir: Path):
        rng = random.Random(f"{self.name}:{seed}")
        self.instances, self.records = [], []
        # Families, which instances are singular and where they die are fixed
        # strata; the seed only draws the values, so every seed does about
        # the same work.
        for i in range(self.POOL):
            family = gen.FAMILIES[i % len(gen.FAMILIES)]
            if i % 4 == 3:
                step = (i // 4) * (SWEEP_HORIZON - 5) // (self.POOL // 4 - 1)
                inst = gen.draw_singular(rng, family, step, SWEEP_LIST_LENGTH)
            else:
                inst = gen.draw_regular(rng, family, SWEEP_HORIZON,
                                        SWEEP_LIST_LENGTH)
            terms, halt = reference.orbit(inst, SWEEP_HORIZON)
            top = len(terms) - 2  # u_n with every V_k, k < n, nonzero
            self.instances.append(inst)
            self.records.append({
                "family": family,
                "spec": inst.spec(SWEEP_HORIZON),
                "last_m": len(terms) - 6,
                "halted": halt is not None,
                "magnitude_at": sorted({top // 4, top // 2, top}),
                "samples": [
                    [d.n] + [reference.text(x) for x in (d.u0, d.u2, d.u4, d.a, d.b)]
                    for d in (gen.draw_lsc(rng) for _ in range(self.SAMPLES_PER_OP))
                ],
            })
        workdir.mkdir(parents=True, exist_ok=True)
        (workdir / "sweep.json").write_text(json.dumps(self.records))
        self.workdir = workdir
        self._expected: dict[int, _SweepExpected] = {}

    @staticmethod
    def load(sixrde, workdir: Path) -> list[_SweepItem]:
        items = []
        for rec in json.loads((workdir / "sweep.json").read_text()):
            spec = sixrde.cli.parse_problem_spec(rec["spec"])
            coeffs = spec.coeffs
            special = None
            name = SPECIAL.get(rec["family"])
            if name == "term_const_general":
                special = (name, sixrde.ConstantCoeffs(coeffs.a_at(0), coeffs.b_at(0)))
            elif name in ("term_const_a1", "term_const_a_neg1"):
                special = (name, coeffs.b_at(0))
            elif name == "term_periodic2":
                special = (name, sixrde.PeriodicCoeffs2(coeffs.a_values(), coeffs.b_values()))
            elif name == "term_periodic4":
                special = (name, sixrde.PeriodicCoeffs4(coeffs.a_values(), coeffs.b_values()))
            samples = [
                sixrde.symmetry.LscSample(n, *map(sixrde.parse_rational, fields))
                for n, *fields in rec["samples"]
            ]
            items.append(_SweepItem(spec.initial, coeffs, special, rec["last_m"],
                                    rec["halted"], rec["magnitude_at"], samples))
        return items

    def expected(self, i: int) -> _SweepExpected:
        if i not in self._expected:
            inst = self.instances[i]
            terms, halt = reference.orbit(inst, SWEEP_HORIZON)
            v = tuple(1 / (terms[n] * terms[n + 2]) for n in range(len(terms) - 2))
            self._expected[i] = _SweepExpected(
                terms=terms,
                halt=halt,
                v=v if len(v) >= 5 else None,
                violations=reference.violations(inst, SWEEP_GUARD_HORIZON),
                position=None if halt is None else reference.singular_position(halt),
                magnitudes=[abs(float(terms[n]))
                            for n in self.records[i]["magnitude_at"]],
                gauges={
                    "oracle.max_term_bits": reference.max_bits(terms),
                    "closedform.max_v_bits": _v_bits(
                        inst, 4 * (SWEEP_GUARD_HORIZON + 1) + 3),
                    "core.max_out_digits": _digits(terms),
                },
            )
        return self._expected[i]

    def cycle(self, sixrde, loaded: list[_SweepItem]) -> list[Op]:
        return [
            Op(key=f"sweep:{i}:{self.instances[i].family}",
               run=(lambda item=item: sweep_call(sixrde, item)),
               check=(lambda result, stderr, i=i: self.check(i, result, stderr)),
               gauges=(lambda i=i: self.expected(i).gauges))
            for i, item in enumerate(loaded)
        ]

    def check(self, i: int, result: dict, stderr: str) -> Outcome:
        want = self.expected(i)
        orbit = result["orbit"]
        halt = orbit.halt
        guard = result["guard"]
        n_terms = len(want.terms)
        ok = (
            not stderr
            and orbit.terms == want.terms
            and (halt.step if halt else None) == want.halt
            and (halt is None or halt.cause.value == "ZeroDenominatorFactor")
            and result["invariant"] == want.v
            and all(r == 0 for r in result["residuals"])
            and [(v.j, v.s, v.v_index) for v in guard.violations] == want.violations
            and (want.halt is None or guard.first_halt_step == want.halt)
            and all(r[0] == want.terms for r in result["engines"])
            and all(r[1] == want.position for r in result["engines"])
            and all(math.isclose(got, exp, rel_tol=1e-9)
                    for got, exp in zip(result["magnitudes"], want.magnitudes, strict=True))
            and not any(result["lsc"])
            and all(result["structure"])
        )
        delivered = n_terms * (1 + len(result["engines"]))
        fingerprint = _digest(repr(sorted(result.items(), key=lambda kv: kv[0]))
                              .encode())
        return Outcome(ok, delivered if ok else 0, fingerprint)


def _engine_run(solver, last_m: int, halted: bool, singular_error):
    """Exact values x_(-5)..x_last_m, then the singular position at x_(last_m+1)."""
    values = tuple(solver(m) for m in range(-5, last_m + 1))
    if not halted:
        return values, None
    try:
        return values, ("value", solver(last_m + 1))
    except singular_error as exc:
        return values, (exc.j, exc.s, exc.v_index, exc.halt_step)


def sweep_call(s, item: _SweepItem) -> dict:
    """One sweep op.  Every sixrde function is resolved on the package at call
    time, so the tracer's wrappers see it."""
    ic, coeffs = item.ic, item.coeffs
    orbit = s.iterate(ic, coeffs, SWEEP_HORIZON)
    invariant, residuals = None, []
    if len(orbit.terms) >= 7:
        v = s.invariant_sequence(orbit)
        invariant, residuals = v.values, s.check_invariant_recurrence(v, coeffs)
    guard = s.well_defined(ic, coeffs, SWEEP_GUARD_HORIZON)
    engines = [_engine_run(lambda m: s.term(m, ic, coeffs), item.last_m,
                           item.halted, s.SingularClosedForm)]
    if item.special is not None:
        name, arg = item.special
        engines.append(_engine_run(lambda m: getattr(s, name)(m, ic, arg),
                                   item.last_m, item.halted, s.SingularClosedForm))
    return {
        "orbit": orbit,
        "invariant": invariant,
        "residuals": residuals,
        "guard": guard,
        "engines": engines,
        "magnitudes": [s.unified_magnitude(n, ic, coeffs) for n in item.magnitude_at],
        "lsc": [bool(s.lsc_residual(q, sample))
                for sample in item.samples for q in (s.Q1, s.Q2)],
        "structure": [
            s.verify_reduced_system(SYMMETRY_N_MAX).ok,
            s.generator_annihilates_invariant("X1", SYMMETRY_N_MAX).ok,
            s.generator_annihilates_invariant("X2", SYMMETRY_N_MAX).ok,
            s.verify_gamma_identities(GAMMA_LIMIT) == [],
        ],
    }


WORKLOADS = {cls.name: cls for cls in (Export, Solve, Sweep)}
