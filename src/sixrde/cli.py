"""Batch command-line front-end.

Subcommands:

  iterate          direct iteration, CSV output (m, exact, float)
  solve            closed-form values over an index range, CSV output
  compare          oracle vs closed form (and special case), JSON report
  verify-symmetry  the linearized symmetry condition of Q1, Q2 at random samples

The first three read a problem spec (--spec; --emit-spec echoes it as
canonical JSON instead) and write one output to --out, stdout by default.
Output reaches its destination only when the command finishes, so a failed
run writes nothing anywhere: a file is made beside --out and renamed into
place, and stdout, a pipe or a device receives a temporary file's copy.

Problem instances are JSON files with exact rational strings::

    {"initial": ["1/1", ...six...],
     "coeffs": {"kind": "constant"|"periodic"|"list",
                "period": 2, "a": ["1/2", ...], "b": ["0/1", ...]},
     "horizon": 40}

Exit codes: 0 ok, 2 singularity truncated the computation, 3 mismatch or
nonzero residual, 64 malformed spec file, 65 usage error; 141 (quietly)
when the reader of the output closed it early, and 130 after one
"interrupted" line on SIGINT.

Randomness for verify-symmetry comes from a 64-bit linear congruential
generator (Knuth's MMIX multiplier), so equal seeds give byte-identical
reports.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import os
import re as _re
import shutil
import sys
import tempfile
from fractions import Fraction
from typing import Iterable, Iterator, Sequence, TextIO

from . import closedform, oracle, specialcases, symmetry
from .core import (
    CoefficientSequence,
    DegenerateSample,
    InitialConditions,
    SingularClosedForm,
    SixrdeError,
    WrongCase,
    _Record,
    _rendered,
    format_rational,
    parse_rational,
)

__all__ = [
    "EXIT_OK",
    "EXIT_SINGULAR",
    "EXIT_MISMATCH",
    "EXIT_SPEC",
    "EXIT_USAGE",
    "EXIT_INTERRUPTED",
    "EXIT_BROKEN_PIPE",
    "ProblemSpec",
    "ProblemSpecError",
    "parse_problem_spec",
    "load_problem_spec",
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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE


# ---------------------------------------------------------------------------
# Problem spec files
# ---------------------------------------------------------------------------

class ProblemSpecError(SixrdeError):
    """The spec file is malformed or violates a constructor constraint."""


class ProblemSpec(_Record):
    """A parsed spec file: seeds, coefficients and the default step count."""

    __slots__ = ("initial", "coeffs", "horizon")


def _rational_list(data: dict, key: str, parsed: dict) -> list[Fraction]:
    """data[key] as rationals; it must be a JSON list of rational strings.
    `parsed` maps each literal already read to its value, so a literal is
    parsed once and equal literals share one Fraction."""
    values = data[key]
    if not isinstance(values, list) or not all(isinstance(v, str) for v in values):
        raise ValueError(f"{key!r} must be a list of rational strings")
    for text in values:
        if text not in parsed:
            parsed[text] = parse_rational(text)
    return [parsed[text] for text in values]


def parse_problem_spec(data: dict) -> ProblemSpec:
    parsed: dict[str, Fraction] = {}
    try:
        initial = InitialConditions(tuple(_rational_list(data, "initial", parsed)))
        coeffs_raw = data["coeffs"]
        horizon = data["horizon"]
        if not isinstance(horizon, int) or isinstance(horizon, bool) or horizon < 0:
            raise ValueError("'horizon' must be a nonnegative integer")
        kind = coeffs_raw["kind"]
        a = _rational_list(coeffs_raw, "a", parsed)
        b = _rational_list(coeffs_raw, "b", parsed)
        if kind == "constant":
            if len(a) != 1 or len(b) != 1:
                raise ValueError("constant coefficients take one a and one b value")
            coeffs = CoefficientSequence.constant(a[0], b[0])
        elif kind == "periodic":
            period = coeffs_raw.get("period", len(a))
            if type(period) is not int or period != len(a) or period != len(b):
                raise ValueError("'period' must be an integer equal to the a/b lengths")
            coeffs = CoefficientSequence.periodic(a, b)
        elif kind == "list":
            coeffs = CoefficientSequence.explicit(a, b)
        else:
            raise ValueError(f"unknown coefficient kind {kind!r}")
        allowed = {"kind", "a", "b"} | ({"period"} if kind == "periodic" else set())
        unknown = sorted(data.keys() - {"initial", "coeffs", "horizon"})
        unknown += sorted(coeffs_raw.keys() - allowed)
        if unknown:
            raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
    except (KeyError, TypeError, ValueError, SixrdeError) as exc:
        raise ProblemSpecError(f"malformed problem spec: {exc}") from exc
    return ProblemSpec(initial=initial, coeffs=coeffs, horizon=horizon)


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a key given twice (`json` keeps the last)."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ProblemSpecError(f"malformed problem spec: repeated key {key!r}")
        data[key] = value
    return data


def load_problem_spec(path: str) -> ProblemSpec:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, object_pairs_hook=_unique_keys)
    except OSError as exc:
        raise ProblemSpecError(f"cannot read spec file: {exc}") from exc
    # Bad JSON, bad UTF-8, an integer past the digit limit, or nesting past
    # the decoder's recursion limit (a RuntimeError, not a ValueError).
    except (ValueError, RecursionError) as exc:
        reason = str(exc).partition("; use sys.set_int_max_str_digits")[0]
        raise ProblemSpecError(f"spec file cannot be decoded: {reason}") from exc
    if not isinstance(data, dict):
        raise ProblemSpecError("spec file must contain a JSON object")
    return parse_problem_spec(data)


def canonical_spec_json(spec: ProblemSpec) -> str:
    coeffs: dict = {
        "kind": spec.coeffs.kind,
        "a": [format_rational(v) for v in spec.coeffs.a_values()],
        "b": [format_rational(v) for v in spec.coeffs.b_values()],
    }
    if spec.coeffs.kind == "periodic":
        coeffs["period"] = spec.coeffs.period
    data = {
        "initial": [format_rational(v) for v in spec.initial.values],
        "coeffs": coeffs,
        "horizon": spec.horizon,
    }
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Deterministic sampling
# ---------------------------------------------------------------------------

class Lcg:
    """64-bit linear congruential generator, state' = 6364136223846793005*state
    + 1442695040888963407 (mod 2^64)."""

    _MULT = 6364136223846793005
    _INC = 1442695040888963407
    _MASK = (1 << 64) - 1
    _LIMIT = 9  # `rational` draws numerators in -9..9 and denominators in 1..9

    def __init__(self, seed: int):
        self.state = seed & self._MASK

    def next_u64(self) -> int:
        self.state = (self.state * self._MULT + self._INC) & self._MASK
        return self.state

    def below(self, bound: int) -> int:
        return self.next_u64() % bound

    def rational(self, nonzero: bool = False) -> Fraction:
        while True:
            num = self.below(2 * self._LIMIT + 1) - self._LIMIT
            if num or not nonzero:
                return Fraction(num, self.below(self._LIMIT) + 1)

    def lsc_sample(self) -> symmetry.LscSample:
        while True:
            n = self.below(48)
            u0 = self.rational(nonzero=True)
            u2 = self.rational(nonzero=True)
            u4 = self.rational(nonzero=True)
            a = self.rational()
            b = self.rational(nonzero=True)
            try:
                return symmetry.LscSample(n=n, u0=u0, u2=u2, u4=u4, a=a, b=b)
            except DegenerateSample:  # a + b*u0*u2 = 0: draw again
                continue


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

_CSV_HEADER = "m,exact,float\n"
_HALT_CAUSE = oracle.SingularityCause.ZERO_DENOMINATOR_FACTOR.value  # the only cause


def _csv_rows(m: int, values: Iterable) -> Iterator[str]:
    """The CSV lines of x_m, x_(m+1), ... for `values` under `_CSV_HEADER`,
    one per value as it comes.  No field (an int, p/q, a float repr) can
    need quoting; a float past the range reads inf or -inf."""
    for m, (p, q, text) in enumerate(_rendered(values), m):
        try:
            number = p / q
        except OverflowError:
            number = math.inf if p > 0 else -math.inf
        yield f"{m},{text},{number!r}\n"


@contextlib.contextmanager
def _output(path: str) -> Iterator[TextIO]:
    """The stream a subcommand writes to; its bytes reach `path` only when
    the subcommand returns, so a run that raises writes nothing anywhere.
    A regular file (or a new path) is written as a new file beside it and
    renamed onto it.  Anything else (`-` for stdout, a pipe, a device) gets
    an anonymous temporary file, copied to it on return.  Either way the
    destination is opened before any computation, so an unwritable path
    fails at once."""
    if path == "-" or (os.path.exists(path) and not os.path.isfile(path)):
        target = (contextlib.nullcontext(sys.stdout) if path == "-"
                  else open(path, "w", encoding="utf-8", newline=""))
        with target as fh, tempfile.TemporaryFile(
                "w+", encoding="utf-8", newline="") as spool:
            yield spool
            spool.seek(0)
            shutil.copyfileobj(spool, fh)
        return
    target = os.path.realpath(path)  # through a symlink, not over it
    temp = f"{target}.{os.urandom(6).hex()}.tmp"
    try:
        fh = open(temp, "x", encoding="utf-8", newline="")
    except OSError as exc:  # name the path asked for, not the temp file
        raise type(exc)(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            yield fh
        os.replace(temp, target)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_iterate(spec: ProblemSpec, args, out: TextIO) -> int:
    """Write each row as the oracle forms its term, holding no orbit."""
    count = spec.horizon if args.n is None else args.n
    out.write(_CSV_HEADER)
    terms, last_m = oracle._terms(spec.initial, spec.coeffs, count), -6
    for last_m, row in enumerate(_csv_rows(-5, terms), -5):
        out.write(row)
    if last_m < count:  # only a zero denominator factor stops the terms early
        print(f"singular at step {last_m} ({_HALT_CAUSE}); orbit truncated after x_{last_m}",
              file=sys.stderr)
        return EXIT_SINGULAR
    return EXIT_OK


def _cmd_solve(spec: ProblemSpec, args, out: TextIO) -> int:
    lo, hi = (-5, spec.horizon) if args.range is None else args.range
    engine = closedform if args.engine == "general" else specialcases
    values = engine._items(lo, hi, spec.initial, spec.coeffs)
    out.write(_CSV_HEADER)
    m = lo
    try:
        for row in _csv_rows(lo, values):
            out.write(row)
            m += 1
    except SingularClosedForm as exc:
        print(
            f"singular closed form at x_{m}: j={exc.j}, s={exc.s} "
            f"(V_{exc.v_index} = 0, iteration dies at step {exc.halt_step})",
            file=sys.stderr,
        )
        return EXIT_SINGULAR
    return EXIT_OK


def _cmd_compare(spec: ProblemSpec, args, out: TextIO) -> int:
    """Write the report {"rows": [...], "summary": {...}} row by row, each
    row as soon as the oracle forms its term, holding no orbit; as in
    `_cmd_iterate`, a last index short of `count` is the oracle's halt.  The
    bytes are those of `json.dumps(report, indent=2, sort_keys=True) + "\\n"`.
    The summary is small and comes last, so that encoder writes it, indented
    one level.  The rows stream, so templates write them in the encoder's
    layout with the keys in sorted order; every row field is an int, a bool
    or a p/q string, none of which JSON escapes."""
    count = spec.horizon if args.n is None else args.n
    engines = [closedform._items(-5, count, spec.initial, spec.coeffs)]
    try:
        engines.append(specialcases._items(-5, count, spec.initial, spec.coeffs))
    except WrongCase:  # no special case covers these coefficients
        pass
    first_mismatch, m = None, -6
    out.write('{\n  "rows": [')
    # `zip` pulls the oracle first, so past a halt at step k no engine is
    # asked for x_(k+1), where it would raise.
    columns = zip(_rendered(oracle._terms(spec.initial, spec.coeffs, count)), *engines)
    for m, ((p, q, text), *values) in enumerate(columns, -5):
        # An engine value equal to the oracle's reuses its text, so only a
        # mismatching value is formatted again.
        same = [(num, den) == (p, q) for num, den, _ in values]
        cells = [text if ok else format_rational(Fraction(num, den))
                 for ok, (num, den, _) in zip(same, values)]
        match = all(same)
        if not match and first_mismatch is None:
            first_mismatch = m
        special = f',\n      "special": "{cells[1]}"' if len(cells) > 1 else ""
        out.write(
            f'{"," if m > -5 else ""}\n    {{\n      "closed_form": "{cells[0]}",'
            f'\n      "m": {m},\n      "match": {"true" if match else "false"},'
            f'\n      "oracle": "{text}"{special}\n    }}'
        )
    guard = closedform.well_defined(spec.initial, spec.coeffs, horizon=count // 4 + 2)
    # Each object lists its record's fields in their order; the encoder
    # sorts them, as the row templates do.
    summary = {
        "first_mismatch": first_mismatch,
        "singularity": {"step": m, "cause": _HALT_CAUSE} if m < count else None,
        "violations": [{"v_index": v.v_index, "j": v.j, "s": v.s, "halt_step": v.halt_step}
                       for v in guard.violations],
    }
    summary_json = json.dumps(summary, indent=2, sort_keys=True).replace("\n", "\n  ")
    out.write(f'\n  ],\n  "summary": {summary_json}\n}}\n')
    return EXIT_OK if first_mismatch is None else EXIT_MISMATCH


def _cmd_verify_symmetry(args) -> int:
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


def _count_from(least: int, name: str):
    """argparse type of an integer >= `least` (a usage error otherwise)."""
    def count(text: str) -> int:
        try:
            value = int(text)
            if value >= least:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"must be {name}, got {text!r}")
    return count


_step_count = _count_from(0, "a nonnegative integer")  # --n
_sample_count = _count_from(1, "an integer >= 1")  # --samples


def _out_path(text: str) -> str:
    """argparse type of --out: a nonempty path (a usage error otherwise)."""
    if text:
        return text
    raise argparse.ArgumentTypeError("must be a path, or - for stdout, got ''")


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

    spec_options = argparse.ArgumentParser(add_help=False)
    spec_options.add_argument("--spec", required=True, help="problem spec JSON file")
    spec_options.add_argument("--emit-spec", action="store_true",
                              help="echo the parsed spec as canonical JSON and exit")
    spec_options.add_argument("--out", type=_out_path, default="-",
                              help="output CSV (compare: JSON) path (default stdout)")

    p_it = sub.add_parser("iterate", parents=[spec_options], help="direct iteration to CSV")
    p_it.add_argument("--n", type=_step_count, default=None,
                      help="steps (default: spec horizon)")
    p_it.set_defaults(func=_cmd_iterate)

    p_sv = sub.add_parser("solve", parents=[spec_options], help="closed-form terms to CSV")
    p_sv.add_argument("--range", type=_index_range, default=None,
                      help="index range A..B (default -5..horizon)")
    p_sv.add_argument(
        "--engine", choices=("general", "auto"), default="general",
        help="general closed form, or the special-case product",
    )
    p_sv.set_defaults(func=_cmd_solve)

    p_cp = sub.add_parser("compare", parents=[spec_options],
                          help="oracle vs closed form, JSON report")
    p_cp.add_argument("--n", type=_step_count, default=None,
                      help="steps (default: spec horizon)")
    p_cp.set_defaults(func=_cmd_compare)

    p_vs = sub.add_parser("verify-symmetry", help="check the symmetry condition at random samples")
    p_vs.add_argument("--samples", type=_sample_count, default=100,
                      help="sample count (default 100)")
    p_vs.add_argument("--seed", type=int, default=1, help="generator seed (default 1)")
    p_vs.add_argument(
        "--counterfeit", action="store_true",
        help="use a deliberately wrong characteristic (detector sanity; exits 3)",
    )
    p_vs.set_defaults(func=_cmd_verify_symmetry)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser `main` uses, built on first use: `parse_args` leaves no
    state on it, and importing the module stays cheap."""
    return build_parser()


def main(argv: "Sequence[str] | None" = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if "spec" not in args:  # verify-symmetry reads no spec
            return args.func(args)
        spec = load_problem_spec(args.spec)
        with _output(args.out) as out:
            if not args.emit_spec:
                return args.func(spec, args, out)
            out.write(canonical_spec_json(spec))
        return EXIT_OK
    except SystemExit as exc:  # from argparse: --help or a usage error
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except ProblemSpecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC
    except BrokenPipeError:  # the reader has all it wanted; say nothing
        return EXIT_BROKEN_PIPE
    except (SixrdeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


def entry() -> None:
    code = main()
    try:
        sys.stdout.flush()  # so a closed pipe is reported here, not at exit
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        # Stdout may still hold bytes for the closed pipe; flushing them at
        # exit would fail again and print a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
