"""Digest tier: the CLI's bytes at N = 800, 1600 and 3200 on the Baseline spec.

Each value there runs to tens of thousands of digits, a regime the rest of
the suite, which compares the engines at small heights, never reaches.  Each
command's output md5 and byte length must equal its pin in `pins.py`.
`iterate` and `solve` up to N = 1600 run in-process, once per session through
`conftest.run_on_baseline`, whose run also gives test_cli.py its count of the
digit conversions each residue chain starts afresh; `compare`,
`verify-symmetry` and the N = 3200 pins run in a child `python -m sixrde`.
`iterate` at N = 1600 takes about 0.55 s (0.25 s of it the oracle, the rest
rendering and writing) and `solve` about 0.8 s,
`compare` at N = 800 about 0.17 s and `verify-symmetry` under 0.1 s; they
always run.  The rest (`compare` at N = 1600, `solve --engine auto` and the
other N = 800 pins) take about as long again together and need about 100 MB
of temporary space, and `iterate` and `solve` at N = 3200 take about 7 s
each and write 268 MB through a pipe, so they are skipped unless
SIXRDE_LARGE_N is set:

    SIXRDE_LARGE_N=1 pytest tests/test_large_n.py
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import child_env, file_digest, run_on_baseline, run_python, stream_digest
from pins import (BASELINE, COMPARE_800, COMPARE_1600, CSV_800, CSV_1600, CSV_3200,
                  VERIFY_SYMMETRY)

opt_in = pytest.mark.skipif(not os.environ.get("SIXRDE_LARGE_N"),
                            reason="set SIXRDE_LARGE_N=1 to run the large-N digests")


def _pin(argv, pin, *marks):
    return pytest.param(argv, pin, id=" ".join(argv), marks=marks)


PINS = [
    _pin(["iterate", "--n", "800"], CSV_800, opt_in),
    _pin(["solve", "--range", "-5..800"], CSV_800, opt_in),
    _pin(["solve", "--range", "-5..800", "--engine", "auto"], CSV_800, opt_in),
    _pin(["compare", "--n", "800"], COMPARE_800),
    _pin(["iterate", "--n", "1600"], CSV_1600),
    _pin(["solve", "--range", "-5..1600"], CSV_1600),
    _pin(["solve", "--range", "-5..1600", "--engine", "auto"], CSV_1600, opt_in),
    _pin(["compare", "--n", "1600"], COMPARE_1600, opt_in),
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
    done = run_python("-m", "sixrde", "verify-symmetry", cwd=tmp_path)
    assert (hashlib.md5(done.stdout).hexdigest(), len(done.stdout)) == VERIFY_SYMMETRY


@opt_in
@pytest.mark.parametrize("argv", [["iterate", "--n", "3200"], ["solve", "--range", "-5..3200"]],
                         ids=" ".join)
def test_n3200_output_is_pinned(tmp_path, argv):
    # 268 MB of CSV: the child writes it to its stdout pipe, hashed here in
    # chunks as it arrives, so the test keeps no copy of it.
    (tmp_path / "spec.json").write_text(json.dumps(BASELINE), encoding="utf-8")
    with subprocess.Popen([sys.executable, "-m", "sixrde", *argv, "--spec", "spec.json",
                           "--out", "-"], cwd=tmp_path, env=child_env(),
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        digest = stream_digest(child.stdout)
        stderr = child.stderr.read()
    assert child.returncode == 0, stderr.decode(errors="replace")
    assert digest == CSV_3200
