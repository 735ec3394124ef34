"""Batch command-line front-end.

Subcommands:

  iterate          direct iteration, CSV output (m, exact, float)
  solve            closed-form values over an index range, CSV output
  compare          oracle vs closed form (and special case), JSON report
  verify-symmetry  run the symmetry verification suite on random samples

Problem instances are JSON files with exact rational strings::

    {"initial": ["1/1", ...six...],
     "coeffs": {"kind": "constant"|"periodic"|"list",
                "period": 2, "a": ["1/2", ...], "b": ["0/1", ...]},
     "horizon": 40}

Exit codes: 0 ok, 2 singularity truncated the computation, 3 mismatch or
nonzero residual, 64 malformed spec file, 65 usage error.

Randomness for verify-symmetry comes from a 64-bit linear congruential
generator (Knuth's MMIX multiplier), so equal seeds give byte-identical
reports.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re as _re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from . import closedform, oracle, specialcases, symmetry
from .core import (
    CoefficientSequence,
    DegenerateSample,
    InitialConditions,
    SingularClosedForm,
    SixrdeError,
    format_rational,
    parse_rational,
)

__all__ = [
    "EXIT_OK",
    "EXIT_SINGULAR",
    "EXIT_MISMATCH",
    "EXIT_SPEC",
    "EXIT_USAGE",
    "ProblemSpec",
    "ProblemSpecError",
    "parse_problem_spec",
    "load_problem_spec",
    "spec_to_dict",
    "canonical_spec_json",
    "Lcg",
    "build_parser",
    "main",
    "entry",
]

EXIT_OK = 0
EXIT_SINGULAR = 2
EXIT_MISMATCH = 3
EXIT_SPEC = 64
EXIT_USAGE = 65


# ---------------------------------------------------------------------------
# Problem spec files
# ---------------------------------------------------------------------------

class ProblemSpecError(SixrdeError):
    """The spec file is malformed or violates a constructor constraint."""


@dataclass(frozen=True)
class ProblemSpec:
    initial: InitialConditions
    coeffs: CoefficientSequence
    horizon: int


def _rational_list(data: dict, key: str) -> list[Fraction]:
    """data[key] as rationals; it must be a JSON list of rational strings."""
    values = data[key]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{key!r} must be a list of rational strings")
    return [parse_rational(v) for v in values]


def parse_problem_spec(data: dict) -> ProblemSpec:
    try:
        initial = InitialConditions(tuple(_rational_list(data, "initial")))
        coeffs_raw = data["coeffs"]
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
            raise ValueError("'horizon' must be a nonnegative integer")
        kind = coeffs_raw["kind"]
        a = _rational_list(coeffs_raw, "a")
        b = _rational_list(coeffs_raw, "b")
        if kind == "constant":
            if len(a) != 1 or len(b) != 1:
                raise ValueError("constant coefficients take one a and one b value")
            coeffs = CoefficientSequence.constant(a[0], b[0])
        elif kind == "periodic":
            period = coeffs_raw.get("period", len(a))
            if period != len(a) or period != len(b):
                raise ValueError("'period' must equal the a/b list lengths")
            coeffs = CoefficientSequence.periodic(a, b)
        elif kind == "list":
            coeffs = CoefficientSequence.explicit(a, b)
        else:
            raise ValueError(f"unknown coefficient kind {kind!r}")
    except ProblemSpecError:
        raise
    except (KeyError, TypeError, ValueError, SixrdeError) as exc:
        raise ProblemSpecError(f"malformed problem spec: {exc}") from exc
    return ProblemSpec(initial=initial, coeffs=coeffs, horizon=horizon)


def load_problem_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ProblemSpecError(f"cannot read spec file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ProblemSpecError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ProblemSpecError("spec file must contain a JSON object")
    return parse_problem_spec(data)


def spec_to_dict(spec: ProblemSpec) -> dict:
    coeffs: dict = {
        "kind": spec.coeffs.kind,
        "a": [format_rational(v) for v in spec.coeffs.a_values()],
        "b": [format_rational(v) for v in spec.coeffs.b_values()],
    }
    if spec.coeffs.kind == "periodic":
        coeffs["period"] = spec.coeffs.period
    return {
        "initial": [format_rational(v) for v in spec.initial.values],
        "coeffs": coeffs,
        "horizon": spec.horizon,
    }


def canonical_spec_json(spec: ProblemSpec) -> str:
    return json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

class Lcg:
    """64-bit linear congruential generator, state' = 6364136223846793005*state
    + 1442695040888963407 (mod 2^64)."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state * self._MULT + self._INC) & self._MASK
        return self.state

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def rational(self, limit: int = 9, nonzero: bool = False) -> Fraction:
        while True:
            num = self.below(2 * limit + 1) - limit
            if num or not nonzero:
                return Fraction(num, self.below(limit) + 1)

    def lsc_sample(self) -> symmetry.LscSample:
        while True:
            n = self.below(48)
            u0 = self.rational(nonzero=True)
            u2 = self.rational(nonzero=True)
            u4 = self.rational(nonzero=True)
            a = self.rational()
            b = self.rational()
            try:
                return symmetry.LscSample(n=n, u0=u0, u2=u2, u4=u4, a=a, b=b)
            except DegenerateSample:  # a + b*u0*u2 = 0: draw again
                continue


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

def _as_float(value: Fraction) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


def _open_out(path: str):
    if path == "-":
        return sys.stdout, False
    return open(path, "w", encoding="utf-8", newline=""), True


def _write_csv(path: str, rows: list[tuple[int, Fraction]]) -> None:
    fh, owned = _open_out(path)
    try:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["m", "exact", "float"])
        for m, value in rows:
            writer.writerow([m, format_rational(value), repr(_as_float(value))])
    finally:
        if owned:
            fh.close()


def _emit_spec_requested(args, spec: ProblemSpec) -> bool:
    if getattr(args, "emit_spec", False):
        sys.stdout.write(canonical_spec_json(spec))
        return True
    return False


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_iterate(args) -> int:
    spec = load_problem_spec(args.spec)
    if _emit_spec_requested(args, spec):
        return EXIT_OK
    count = spec.horizon if args.n is None else args.n
    orbit = oracle.iterate(spec.initial, spec.coeffs, count)
    rows = [(i - 5, v) for i, v in enumerate(orbit.terms)]
    _write_csv(args.out, rows)
    if orbit.halt is not None:
        print(
            f"singular at step {orbit.halt.step} ({orbit.halt.cause.value}); "
            f"orbit truncated after x_{orbit.last_m}",
            file=sys.stderr,
        )
        return EXIT_SINGULAR
    return EXIT_OK


def _auto_engine(spec: ProblemSpec):
    """Special-case range solver (lo, hi) -> x_lo..x_hi for constant or 1-,
    2- or 4-periodic coefficients, or None for any other kind."""
    coeffs = spec.coeffs
    if coeffs.kind not in ("constant", "periodic") or 4 % coeffs.period:
        return None
    a, b = coeffs.a_values(), coeffs.b_values()
    if a == (-1,):
        return lambda lo, hi: (
            specialcases.term_const_a_neg1(m, spec.initial, b[0])
            for m in range(lo, hi + 1)
        )
    tile = 4 // coeffs.period
    pc = specialcases.PeriodicCoeffs4(a * tile, b * tile)
    return lambda lo, hi: specialcases.terms_periodic4(lo, hi, spec.initial, pc)


def _cmd_solve(args) -> int:
    spec = load_problem_spec(args.spec)
    if _emit_spec_requested(args, spec):
        return EXIT_OK
    lo, hi = (-5, spec.horizon) if args.range is None else args.range
    if args.engine == "general":
        solver = lambda lo, hi: closedform.terms(lo, hi, spec.initial, spec.coeffs)
    else:
        solver = _auto_engine(spec)
        if solver is None:
            print(
                "error: --engine auto needs constant or 2-/4-periodic coefficients",
                file=sys.stderr,
            )
            return EXIT_USAGE
    rows = []
    try:
        for m, value in enumerate(solver(lo, hi), lo):
            rows.append((m, value))
    except SingularClosedForm as exc:
        _write_csv(args.out, rows)
        print(
            f"singular closed form at x_{lo + len(rows)}: j={exc.j}, s={exc.s} "
            f"(V_{exc.v_index} = 0, iteration dies at step {exc.halt_step})",
            file=sys.stderr,
        )
        return EXIT_SINGULAR
    _write_csv(args.out, rows)
    return EXIT_OK


def _cmd_compare(args) -> int:
    spec = load_problem_spec(args.spec)
    if _emit_spec_requested(args, spec):
        return EXIT_OK
    count = spec.horizon if args.n is None else args.n
    orbit = oracle.iterate(spec.initial, spec.coeffs, count)
    special = _auto_engine(spec)
    closed_values = closedform.terms(-5, orbit.last_m, spec.initial, spec.coeffs)
    special_values = special(-5, orbit.last_m) if special is not None else None
    rows = []
    first_mismatch = None
    for m, (expected, closed) in enumerate(zip(orbit.terms, closed_values), -5):
        row = {
            "m": m,
            "oracle": format_rational(expected),
            "closed_form": format_rational(closed),
            "match": closed == expected,
        }
        if special_values is not None:
            value = next(special_values)
            row["special"] = format_rational(value)
            row["match"] = row["match"] and value == expected
        if not row["match"] and first_mismatch is None:
            first_mismatch = m
        rows.append(row)
    guard = closedform.well_defined(
        spec.initial, spec.coeffs, horizon=count // 4 + 2
    )
    report = {
        "rows": rows,
        "summary": {
            "first_mismatch": first_mismatch,
            "singularity": (
                None
                if orbit.halt is None
                else {"step": orbit.halt.step, "cause": orbit.halt.cause.value}
            ),
            "violations": [
                {
                    "j": v.j,
                    "s": v.s,
                    "v_index": v.v_index,
                    "halt_step": v.halt_step,
                }
                for v in guard.violations
            ],
        },
    }
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    fh, owned = _open_out(args.out)
    try:
        fh.write(text)
    finally:
        if owned:
            fh.close()
    return EXIT_OK if first_mismatch is None else EXIT_MISMATCH


def _cmd_verify_symmetry(args) -> int:
    if args.samples < 1:
        print("error: --samples must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    rng = Lcg(args.seed)
    characteristics = [symmetry.Q1, symmetry.Q2]
    if args.counterfeit:
        characteristics = [symmetry.counterfeit_characteristic]
    failed = False
    samples = [rng.lsc_sample() for _ in range(args.samples)]
    for q in characteristics:
        nonzero = sum(1 for s in samples if symmetry.lsc_residual(q, s))
        ok = nonzero == 0
        failed = failed or not ok
        print(
            f"lsc {q.name}: samples={args.samples} nonzero_residuals={nonzero} "
            f"{'ok' if ok else 'FAIL'}"
        )
    reduced = symmetry.verify_reduced_system(50)
    failed = failed or not reduced.ok
    print(f"reduced-system roots i^n,(-i)^n: n<=50 {'ok' if reduced.ok else 'FAIL'}")
    for variant in ("X1", "X2"):
        rep = symmetry.generator_annihilates_invariant(variant, 50)
        failed = failed or not rep.ok
        print(f"generator {variant}: coefficient sums n<=50 {'ok' if rep.ok else 'FAIL'}")
    gamma_failures = closedform.verify_gamma_identities(16)
    failed = failed or bool(gamma_failures)
    print(
        f"gamma-identities: n,k<=16 "
        f"{'ok' if not gamma_failures else 'FAIL (' + str(len(gamma_failures)) + ')'}"
    )
    print("RESULT " + ("FAIL" if failed else "ok"))
    return EXIT_MISMATCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Parser / entry points
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse defaults to exit code 2 on usage errors; the exit-code
    # contract reserves 2 for singularities, so remap to 65.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # Let values like "-5..-2" reach --range instead of looking like flags.
        self._negative_number_matcher = _re.compile(r"^-\d")


def _step_count(text: str) -> int:
    """argparse type of --n: a nonnegative integer (a usage error otherwise)."""
    try:
        value = int(text)
        if value >= 0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")


def _index_range(text: str) -> tuple[int, int]:
    """argparse type of --range: A..B with -5 <= A <= B (a usage error otherwise)."""
    lo, sep, hi = text.partition("..")
    try:
        if sep and -5 <= int(lo) <= int(hi):
            return int(lo), int(hi)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be A..B with -5 <= A <= B, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sixrde",
        description="Exact solver and verifier for the order-six product recurrence "
        "x_(n+1) = x_(n-5)x_(n-3) / (x_(n-1)(a_n + b_n x_(n-5)x_(n-3))).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_it = sub.add_parser("iterate", help="direct iteration to CSV")
    p_it.add_argument("--spec", required=True, help="problem spec JSON file")
    p_it.add_argument("--n", type=_step_count, default=None,
                      help="steps (default: spec horizon)")
    p_it.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p_it.add_argument(
        "--emit-spec", action="store_true",
        help="echo the parsed spec as canonical JSON and exit",
    )
    p_it.set_defaults(func=_cmd_iterate)

    p_sv = sub.add_parser("solve", help="closed-form terms to CSV")
    p_sv.add_argument("--spec", required=True, help="problem spec JSON file")
    p_sv.add_argument("--range", type=_index_range, default=None,
                      help="index range A..B (default -5..horizon)")
    p_sv.add_argument(
        "--engine", choices=("general", "auto"), default="general",
        help="general closed form, or the dedicated special-case formula",
    )
    p_sv.add_argument("--out", default="-", help="output CSV path (default stdout)")
    p_sv.add_argument("--emit-spec", action="store_true",
                      help="echo the parsed spec as canonical JSON and exit")
    p_sv.set_defaults(func=_cmd_solve)

    p_cp = sub.add_parser("compare", help="oracle vs closed form, JSON report")
    p_cp.add_argument("--spec", required=True, help="problem spec JSON file")
    p_cp.add_argument("--n", type=_step_count, default=None,
                      help="steps (default: spec horizon)")
    p_cp.add_argument("--out", default="-", help="output JSON path (default stdout)")
    p_cp.add_argument("--emit-spec", action="store_true",
                      help="echo the parsed spec as canonical JSON and exit")
    p_cp.set_defaults(func=_cmd_compare)

    p_vs = sub.add_parser("verify-symmetry", help="run the symmetry suite")
    p_vs.add_argument("--samples", type=int, default=100, help="sample count (default 100)")
    p_vs.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    p_vs.add_argument(
        "--counterfeit", action="store_true",
        help="use a deliberately wrong characteristic (detector sanity; exits 3)",
    )
    p_vs.set_defaults(func=_cmd_verify_symmetry)

    return parser


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except ProblemSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except (SixrdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry() -> None:
    sys.exit(main())
