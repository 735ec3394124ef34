"""Digest tier: the CLI's bytes at N = 800 and 1600 on the Baseline spec.

Each value there runs to tens of thousands of digits, a regime the rest of
the suite, which compares the engines at small heights, never reaches.  Each
command's output md5 and byte length must equal the pins.  `iterate` and
`solve` run in-process, once per session through `conftest.run_on_baseline`,
whose run also gives test_cli.py its count of the digit conversions each
residue chain starts afresh; `compare` and `verify-symmetry` run in a child
`python -m sixrde`.  `iterate` at N = 1600 takes about 0.55 s (0.25 s of
it the oracle, the rest rendering and writing) and `solve` about 0.8 s,
`compare` at N = 800 about 0.3 s and `verify-symmetry` under 0.1 s; they
always run.  The rest (`compare` at N = 1600, `solve --engine auto` and the
other N = 800 pins) take about as long again together and need about 100 MB
of temporary space, so they are skipped unless SIXRDE_LARGE_N is
set:

    SIXRDE_LARGE_N=1 pytest tests/test_large_n.py
"""

import hashlib
import json
import os

import pytest

from conftest import BASELINE, file_digest, run_on_baseline, run_python

opt_in = pytest.mark.skipif(not os.environ.get("SIXRDE_LARGE_N"),
                            reason="set SIXRDE_LARGE_N=1 to run the large-N digests")

# iterate, solve and solve --engine auto write the same CSV.
CSV_800 = ("fe14fb54f74a472326805c9deacb930a", 4346010)
CSV_1600 = ("34820e634918d0f03105df708b10fbe0", 33844858)


def _pin(argv, pin, *marks):
    return pytest.param(argv, pin, id=" ".join(argv), marks=marks)


PINS = [
    _pin(["iterate", "--n", "800"], CSV_800, opt_in),
    _pin(["solve", "--range", "-5..800"], CSV_800, opt_in),
    _pin(["solve", "--range", "-5..800", "--engine", "auto"], CSV_800, opt_in),
    _pin(["compare", "--n", "800"], ("306648bc51aca33ad056d0b60339c7a6", 13071549)),
    _pin(["iterate", "--n", "1600"], CSV_1600),
    _pin(["solve", "--range", "-5..1600"], CSV_1600),
    _pin(["solve", "--range", "-5..1600", "--engine", "auto"], CSV_1600, opt_in),
    _pin(["compare", "--n", "1600"], ("61c10832c7d468b76836cc204d4cdaf2", 101599311), opt_in),
]


@pytest.mark.parametrize("argv, pin", PINS)
def test_spec_command_output_is_pinned(tmp_path, argv, pin):
    if argv[0] != "compare":
        assert run_on_baseline(*argv)[1] == pin
        return
    (tmp_path / "spec.json").write_text(json.dumps(BASELINE), encoding="utf-8")
    out = tmp_path / "out"
    try:
        run_python("-m", "sixrde", *argv, "--spec", "spec.json", "--out", str(out),
                   cwd=tmp_path, timeout=600)
        assert file_digest(out) == pin
    finally:
        out.unlink(missing_ok=True)


def test_verify_symmetry_output_is_pinned(tmp_path):
    done = run_python("-m", "sixrde", "verify-symmetry", cwd=tmp_path, timeout=600)
    assert (hashlib.md5(done.stdout).hexdigest(), len(done.stdout)) == (
        "d5f3db86bf34f4afa5941403332620a3", 247)
