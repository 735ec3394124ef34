"""A fixed list of mutants and how many of them the Tier-1 suite kills.

Run from anywhere with `python3 tools/mutants.py` (standard library only, no
options).  For each entry of `MUTANTS` it copies the repository, without
`.git` and caches, to a temporary directory, replaces the entry's old text
(which must occur exactly once) by its new text, and runs
`python -m pytest -x -q -p no:cacheprovider` there, in a session of its own.
It prints one JSON line per mutant and then the total.  A mutant is killed
when the suite fails (cause "test failure") or runs past `TIMEOUT_SECONDS`
(cause "timeout").  When a run ends, for either reason, its whole process
group is killed: pytest and every `python -m sixrde` child the suite started.
With CPython 3.11 on two shared vCPUs a killed mutant took 3 to 39 s and the
whole list about 8 minutes; a survivor runs the whole suite, about 20 s.

Each entry is (file, old text, new text, reason).  There is at least one per
layer: the oracle step loop, the step table it shares with the closed
form's V table, the invariant V (along an orbit and as that table),
telescoping, the records' one constructor, the
special-case factors, the guard, the unified magnitude, rational parsing
and rendering, CSV and JSON output, the CLI's files and exit codes, and the
symmetry checks.  No oracle index entry makes term heights grow
exponentially: only the four seed products multiply two terms, and every
step reads its p from a slot of small carried quotients, so each such
entry dies on a wrong value.  The suite's per-test time limit
(`tests/conftest.py`) turns any hang into a failure, in about 30 s.
"""

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one suite run may take: about 15 times an unmutated run.
TIMEOUT_SECONDS = 300

MUTANTS = [
    # Oracle step loop
    ("src/sixrde/oracle.py",
     "for n in range(stop):",
     "for n in range(stop - 1):",
     "oracle stops one step short"),
    ("src/sixrde/oracle.py",
     "F = A * Q + B * P",
     "F = A * Q - B * P",
     "oracle denominator factor takes b with the wrong sign"),
    ("src/sixrde/oracle.py",
     "x_num, x_den, before = last[n % 2]",
     "x_num, x_den, before = last[(n + 1) % 2]",
     "oracle divides by x_n instead of x_(n-1)"),
    ("src/sixrde/oracle.py",
     "_product(seeds[j], seeds[j + 2])",
     "_product(seeds[j], seeds[j + 1])",
     "oracle's seed products multiply x_(j-5) by x_(j-4) instead of x_(j-3)"),
    ("src/sixrde/oracle.py",
     "P, Q = slots[n % 4]",
     "P, Q = slots[(n + 1) % 4]",
     "oracle step n reads the p of step n + 1"),
    ("src/sixrde/oracle.py",
     "slots[n % 4] = q_num, q_den",
     "slots[(n + 1) % 4] = q_num, q_den",
     "oracle keeps q_n as the p of step n + 1, not n + 4"),
    ("src/sixrde/oracle.py",
     "A, B, D = rows[n % period]",
     "A, B, D = rows[(n + 1) % period]",
     "oracle step n reads the coefficients of step n + 1"),
    ("src/sixrde/oracle.py",
     "halt = SingularityReport(len(terms) - 6,",
     "halt = SingularityReport(len(terms) - 5,",
     "oracle reports its halt one step late"),
    ("src/sixrde/oracle.py",
     "(kept[0] * before[2], kept[1] * before[3])",
     "(kept[0] * before[2] + 1, kept[1] * before[3])",
     "oracle hints a numerator ratio whose up is off by one"),
    # The step table both the oracle and the V table read
    ("src/sixrde/core.py",
     "(a_num * b_den, b_num * a_den, a_den * b_den)",
     "(a_num * b_den, b_num * b_den, a_den * b_den)",
     "step table multiplies b_num by b_den instead of a_den"),
    # Coefficient equality, which the per-thread slot keys on
    ("src/sixrde/core.py",
     "self._kind == other._kind and self._period == other._period",
     "self._kind == other._kind",
     "equality key drops period"),
    # The invariant V along an orbit, and its affine recurrence
    ("src/sixrde/oracle.py",
     "for P, Q in map(_product, terms, terms[2:])",
     "for P, Q in map(_product, terms, terms[1:])",
     "V_n pairs u_n with u_(n+1) instead of u_(n+2)"),
    ("src/sixrde/oracle.py",
     "num = a_num * b_den * v_num + b_num * a_den * v_den",
     "num = a_num * b_den * v_num - b_num * a_den * v_den",
     "invariant residual takes V_(n+4) = a V_n - b_n"),
    ("src/sixrde/oracle.py",
     "Fraction(r, w_den * den) if r else zero",
     "zero",
     "invariant residual check reports zero for every residual"),
    # The closed form's V table
    ("src/sixrde/closedform.py",
     "num, den = A * v_num + B * v_den, D * v_den",
     "num, den = A * v_num - B * v_den, D * v_den",
     "V table steps with b of the wrong sign"),
    ("src/sixrde/closedform.py",
     "v_num, v_den = num // g, den // g",
     "v_num, v_den = num, den",
     "V table stores each V unreduced"),
    ("src/sixrde/closedform.py",
     "for k2 in range(l + 1, n):",
     "for k2 in range(l, n):",
     "v_closed's tail product takes one factor too many"),
    # Telescoping and the per-thread slot
    ("src/sixrde/core.py",
     "for seed in seeds[:4]]",
     "for seed in seeds[1:5]]",
     "each class starts from the next class's seed"),
    ("src/sixrde/core.py",
     "_reduced(x_num, x_den)))",
     "_reduced(x_num, x_den) if s else blocks[0][1]))",
     "block value and item diverge: x's first block past the seed repeats the seed"),
    ("src/sixrde/core.py",
     "r_num, r_den = (n_num // g1) * (d_den // g2), (d_num // g1) * (n_den // g2)",
     "r_den, r_num = (n_num // g1) * (d_den // g2), (d_num // g1) * (n_den // g2)",
     "telescope takes the inverse factor ratio"),
    ("src/sixrde/core.py",
     "f, shift = self.f, (j + 2) // 4",
     "f, shift = self.f, 0",
     "telescope reads the denominator column without its block shift"),
    ("src/sixrde/core.py",
     "g2 = gcd(d_den, n_den)",
     "g2 = 1",
     "telescope reduces the factor ratio by the numerators' gcd only"),
    ("src/sixrde/core.py",
     "((abs(r_num), g1), (r_den, g2))",
     "((abs(r_num), g2), (r_den, g1))",
     "telescope hints each part by the other part's cross-cancelled gcd"),
    ("src/sixrde/core.py",
     "raise SingularClosedForm(4 * s + j + 2)",
     "raise SingularClosedForm(4 * s + j)",
     "a vanishing denominator factor is reported at the numerator's index"),
    ("src/sixrde/core.py",
     "if last is None or last[0] != (ic, coeffs):",
     "if last is None:",
     "slot is reused for a different instance"),
    # Records
    ("src/sixrde/core.py",
     "if field not in named:\n                raise TypeError",
     "if field not in named:\n                continue\n                raise TypeError",
     "a record built without a field leaves that field unset"),
    ("src/sixrde/core.py",
     "if named:\n            field = next(iter(named))",
     "if False:\n            field = next(iter(named))",
     "a record drops an unknown or repeated keyword without an error"),
    # Special-case factors
    ("src/sixrde/specialcases.py",
     "_TOP = (4, 5, 0, 1)",
     "_TOP = (4, 5, 1, 0)",
     "classes 2 and 3 scale by each other's seed"),
    ("src/sixrde/specialcases.py",
     "def _constant(a: int, b_num: int, b_den: int) -> CoefficientSequence:\n"
     "    return CoefficientSequence.constant(a, _reduced(b_num, b_den))",
     "def _constant(a: int, b_num: int, b_den: int, _by_b={}) -> CoefficientSequence:\n"
     "    return _by_b.setdefault((b_num, b_den),\n"
     "                            CoefficientSequence.constant(a, _reduced(b_num, b_den)))",
     "a = +-1 cache keyed on b alone: a = -1 reuses a = 1's sequence"),
    ("src/sixrde/specialcases.py",
     "if e < 0:",
     "if False:",
     "special-case set-up keeps a negative common denominator e"),
    ("src/sixrde/specialcases.py",
     "p += 1",
     "p += 2",
     "a = 1 factor grows by 2k per block"),
    # Well-definedness guard
    ("src/sixrde/closedform.py",
     "stop = 4 * horizon + 6",
     "stop = 4 * horizon + 5",
     "guard stops one V short of its horizon"),
    ("src/sixrde/closedform.py",
     "return (self.v_index - 2) // 4",
     "return (self.v_index - 1) // 4",
     "violation names the wrong block s"),
    # Unified magnitude
    ("src/sixrde/closedform.py",
     "if n % 4 >= 2:",
     "if n % 4 >= 3:",
     "unified exponent keeps the seed's sign at n = 2 mod 4"),
    ("src/sixrde/closedform.py",
     "elif (n - k) % 4 == 2:",
     "elif (n - k) % 4 == 3:",
     "unified exponent subtracts the wrong class of ln|V|"),
    # Rational parsing and rendering
    ("src/sixrde/core.py",
     "match = _RATIONAL_RE.fullmatch(text)",
     "match = _RATIONAL_RE.fullmatch(text.strip())",
     "literals may carry Unicode whitespace and ASCII separators around them"),
    ("src/sixrde/core.py",
     "_PIECE_DIGITS = 640",
     "_PIECE_DIGITS = 5000",
     "pieces past the default int<->str digit limit fail to convert"),
    ("src/sixrde/core.py",
     "return _digits(high) + _digits(low).zfill(k)",
     "return _digits(high) + _digits(low).zfill(k - 1)",
     "long integers lose a leading zero of their low half"),
    ("src/sixrde/core.py",
     "if last is not None and abs(bits - last[0].bit_length()) * _CARRY_SHARE <= bits:",
     "if False:",
     "chain renderer restarts every chain: same text, quadratic time"),
    ("src/sixrde/core.py",
     "context.divide_int(context.create_decimal(digits), down), up)",
     "context.divide_int(context.create_decimal(digits), up), down)",
     "chain renderer carries digits by the inverse ratio"),
    ("src/sixrde/core.py",
     "hint is not None and n * hint[1] == m * hint[0]",
     "hint is not None and True",
     "chain renderer carries by a hint it never checks"),
    ("src/sixrde/core.py",
     "return _integer(digits[:-half]) * 10**half + _integer(digits[-half:])",
     "return _integer(digits[:-half]) * 10**half",
     "long literals drop their low half"),
    # CSV and JSON output, files and exit codes
    ("src/sixrde/cli.py",
     r'yield f"{m},{text},{number!r}\n"',
     r'yield f"{m},{text},{number!r}\r\n"',
     "CSV rows end in CRLF"),
    ("src/sixrde/cli.py",
     "number = math.inf if p > 0 else -math.inf",
     "number = math.inf",
     "float column reads inf for a huge negative term"),
    ("src/sixrde/cli.py",
     "return EXIT_OK if first_mismatch is None else EXIT_MISMATCH",
     "return EXIT_OK",
     "compare exits 0 on a mismatch"),
    ("src/sixrde/cli.py",
     "columns = zip(_rendered(oracle._terms(spec.initial, spec.coeffs, count)), *engines)",
     "columns = ((o, *e) for *e, o in zip(*engines, _rendered(oracle._terms(spec.initial,"
     " spec.coeffs, count))))",
     "compare's oracle column is not first: a halt makes the closed form raise"),
    ("src/sixrde/cli.py",
     "if m < count else None,",
     "if m <= count else None,",
     "compare reports a halt at the last index"),
    ("src/sixrde/cli.py",
     "json.dumps(summary, indent=2, sort_keys=True)",
     "json.dumps(summary, indent=2)",
     "compare's summary drops sort_keys"),
    ("src/sixrde/cli.py",
     "horizon=count // 4 + 2)",
     "horizon=count // 4 + 1)",
     "compare's guard misses a halt at the last step"),
    ("src/sixrde/cli.py",
     """special = f',\\n      "special": "{cells[1]}"'""",
     """special = f',\\n      "special": "{cells[0]}"'""",
     "compare's special column repeats the closed form's cell"),
    ("src/sixrde/cli.py",
     "            os.unlink(temp)",
     "            pass",
     "a failed run leaves its temporary file behind"),
    ("src/sixrde/cli.py",
     "or horizon < 0:",
     "or horizon < -1:",
     "a negative horizon is accepted"),
    ("src/sixrde/cli.py",
     "ok = nonzero == 0",
     "ok = nonzero >= 0",
     "verify-symmetry reports ok with nonzero residuals"),
    # Symmetry checks
    ("src/sixrde/symmetry.py",
     "x0 * y2 * r2 * s0 + x2 * y0 * r0 * s2",
     "x0 * y2 * r2 * s0 - x2 * y0 * r0 * s2",
     "LSC residual adds its last term"),
    ("src/sixrde/symmetry.py",
     "den = x4 * x4 * e * e * s0 * s2 * s4",
     "den = x4 * e * e * s0 * s2 * s4",
     "LSC residual divides by u_(n+4)'s numerator once where it squares it"),
    ("src/sixrde/symmetry.py",
     "if a_n * b_d * y0 * y2 + b_n * a_d * x0 * x2 == 0:",
     "if a_n * b_d * y0 * y2 - b_n * a_d * x0 * x2 == 0:",
     "a sample is refused where a - b*u0*u2 vanishes"),
    ("src/sixrde/symmetry.py",
     "return Fraction(c_num * u_num, c_den * u_den)",
     "return Fraction(c_num * u_num, c_den)",
     "Q(n, u) drops u's denominator"),
    ("src/sixrde/symmetry.py",
     'Q2 = Characteristic("Q2", (0, 1, 0, -1))',
     'Q2 = Characteristic("Q2", (0, -1, 0, 1))',
     "Q2 is -Im(i^n) * u: still a symmetry, but not i^n's imaginary part"),
    ("src/sixrde/symmetry.py",
     'return _phase_sum_check(n_max, (("Re(i^n)", Q1), ("Im(i^n)", Q2)))',
     'return _phase_sum_check(n_max, (("Re(i^n)", Q1), ("Im(i^n)", counterfeit_characteristic)))',
     "reduced system checks the counterfeit in place of Im(i^n)"),
    ("src/sixrde/symmetry.py",
     '_GENERATORS = {"X1": Q1, "X2": Q2}',
     '_GENERATORS = {"X1": Q1, "X2": counterfeit_characteristic}',
     "generator X2 reads the counterfeit's table"),
    ("src/sixrde/symmetry.py",
     "if num != -num2 or den != den2:",
     "if num != num2 or den != den2:",
     "phase-sum checks test alpha_n = alpha_(n+2)"),
    ("src/sixrde/symmetry.py",
     "value=first + second",
     "value=first - second",
     "a phase-sum failure reports alpha_n - alpha_(n+2)"),
    ("src/sixrde/symmetry.py",
     "for n in range(n_max + 1):",
     "for n in range(min(n_max, 39) + 1):",
     "phase-sum checks stop short of n_max"),
]

_CACHES = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".work")


def mutated(text: str, old: str, new: str) -> str:
    """`text` with its one occurrence of `old` replaced by `new`."""
    count = text.count(old)
    if count != 1:
        raise ValueError(f"old text occurs {count} times, not once: {old!r}")
    return text.replace(old, new)


def run(path: str, old: str, new: str) -> tuple[str | None, float]:
    """Run the suite on a copy of the tree with one mutant planted: what
    killed it ("test failure", "timeout", or None if it survived), and the
    seconds it took."""
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_CACHES)
        target = tree / path
        target.write_text(mutated(target.read_text(encoding="utf-8"), old, new),
                          encoding="utf-8")
        start = time.monotonic()
        with subprocess.Popen(
                [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"],
                cwd=tree, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                start_new_session=True) as suite:
            try:
                cause = "test failure" if suite.wait(timeout=TIMEOUT_SECONDS) else None
            except subprocess.TimeoutExpired:
                cause = "timeout"
            finally:
                with contextlib.suppress(ProcessLookupError):  # the group is empty
                    os.killpg(suite.pid, signal.SIGKILL)
        return cause, round(time.monotonic() - start, 2)


def main() -> None:
    killed = 0
    for path, old, new, reason in MUTANTS:
        cause, seconds = run(path, old, new)
        killed += cause is not None
        print(json.dumps({"file": path, "reason": reason, "killed": cause is not None,
                          "cause": cause, "seconds": seconds}), flush=True)
    print(json.dumps({"killed": killed, "total": len(MUTANTS)}), flush=True)


if __name__ == "__main__":
    main()
