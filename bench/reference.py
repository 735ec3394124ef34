"""Independent exact reference the benchmark checks sixrde against.

Stdlib only and never imports sixrde: the recurrence, the invariant V and
the CLI's output formats are re-derived here from their definitions, so a
defect in the program cannot hide in its own check.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

CSV_HEADER = "m,exact,float\n"


def orbit(inst, count: int) -> tuple[tuple[Fraction, ...], "int | None"]:
    """x_(-5)..x_count by direct iteration, and the step it died at (or None).

    u_(n+6) = u_n*u_(n+2) / (u_(n+4)*(a_n + b_n*u_n*u_(n+2))).
    """
    terms = list(inst.initial)
    for n in range(count):
        a, b = inst.coeff(n)
        p = terms[n] * terms[n + 2]
        factor = a + b * p
        if factor == 0:
            return tuple(terms), n
        terms.append(p / (terms[n + 4] * factor))
    return tuple(terms), None


def v_values(inst, count: int) -> list[Fraction]:
    """V_0..V_(count-1) from V_j = 1/(u_j*u_(j+2)) and V_(k+4) = a_k*V_k + b_k.

    Stops early where an explicit coefficient list runs out.
    """
    u = inst.initial
    out = [1 / (u[j] * u[j + 2]) for j in range(4)]
    for k in range(count - 4):
        try:
            a, b = inst.coeff(k)
        except IndexError:
            break
        out.append(a * out[k] + b)
    return out[:count]


def violations(inst, horizon: int) -> list[tuple[int, int, int]]:
    """(j, s, v_index) of every vanishing V the well-definedness guard scans.

    Class j in {0, 1} is scanned for s = 0..horizon and j in {2, 3} for
    s = 1..horizon, each at V_(4(s - offset + 1) + j); sorted by halt step
    v_index - 4, then j, then s.
    """
    v = v_values(inst, 4 * (horizon + 1) + 4)
    found = []
    for j in range(4):
        offset = 0 if j <= 1 else 1
        for upper in range(horizon - offset + 1):
            index = 4 * (upper + 1) + j
            if index < len(v) and v[index] == 0:
                found.append((j, upper + offset, index))
    found.sort(key=lambda t: (t[2] - 4, t[0], t[1]))
    return found


def singular_position(halt_step: int) -> tuple[int, int, int, int]:
    """(j, s, v_index, halt_step) a closed-form engine must report for x_(halt_step+1)."""
    v = halt_step + 4
    j = (v - 2) % 4
    return j, (v - 2 - j) // 4, v, halt_step


def text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _float_text(value: Fraction) -> str:
    try:
        return repr(float(value))
    except OverflowError:
        return repr(math.inf if value > 0 else -math.inf)


def csv_bytes(terms, lo: int, hi: int) -> bytes:
    """CSV rows m = lo..hi of an orbit x_(-5).., as the CLI writes them."""
    rows = [CSV_HEADER]
    for m in range(lo, hi + 1):
        value = terms[m + 5]
        rows.append(f"{m},{text(value)},{_float_text(value)}\n")
    return "".join(rows).encode()


def solve_stderr(halt_step: int) -> str:
    j, s, v, h = singular_position(halt_step)
    return (
        f"singular closed form at x_{h + 1}: j={j}, s={s} "
        f"(V_{v} = 0, iteration dies at step {h})\n"
    )


def compare_bytes(inst, count: int, special: bool) -> bytes:
    """The `compare --n count` JSON report for a correct program."""
    terms, halt = orbit(inst, count)
    rows = []
    for m in range(-5, len(terms) - 5):
        value = text(terms[m + 5])
        row = {"m": m, "oracle": value, "closed_form": value, "match": True}
        if special:
            row["special"] = value
        rows.append(row)
    report = {
        "rows": rows,
        "summary": {
            "first_mismatch": None,
            "singularity": (
                None if halt is None
                else {"step": halt, "cause": "ZeroDenominatorFactor"}
            ),
            "violations": [
                {"j": j, "s": s, "v_index": v, "halt_step": v - 4}
                for j, s, v in violations(inst, count // 4 + 2)
            ],
        },
    }
    return (json.dumps(report, indent=2, sort_keys=True) + "\n").encode()


def max_bits(values) -> int:
    """Largest numerator or denominator bit length among `values`."""
    return max(
        (max(v.numerator.bit_length(), v.denominator.bit_length()) for v in values),
        default=0,
    )
