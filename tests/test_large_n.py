"""Digest tier: the CLI's bytes at N = 800 and 1600 on the Baseline spec.

Each value there runs to tens of thousands of digits, a regime the rest of
the suite, which compares the engines at small heights, never reaches.  Every
command runs in a child `python -m sixrde`, and its output's md5 and byte
length must equal the pins.  `iterate` and `solve` at N = 1600 take about a
second each, `compare` at N = 800 a third of one and `verify-symmetry` a
fifth; they always run.  The rest (`compare` at N = 1600, `solve --engine
auto` and the other N = 800 pins) take about as long again together and need
about 100 MB of temporary space, so they are skipped unless SIXRDE_LARGE_N is
set:

    SIXRDE_LARGE_N=1 pytest tests/test_large_n.py
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

opt_in = pytest.mark.skipif(not os.environ.get("SIXRDE_LARGE_N"),
                            reason="set SIXRDE_LARGE_N=1 to run the large-N digests")

ROOT = Path(__file__).resolve().parent.parent

#: Seeds 2, 3, 5, 7, 11, 13 and 2-periodic a = (2, -1/3), b = (1, 5/7).
BASELINE = {
    "initial": ["2", "3", "5", "7", "11", "13"],
    "coeffs": {"kind": "periodic", "period": 2, "a": ["2", "-1/3"], "b": ["1", "5/7"]},
    "horizon": 40,
}

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


def _run(argv, cwd, stdout=subprocess.DEVNULL) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-m", "sixrde", *argv], cwd=cwd, env=env,
                          stdout=stdout, stderr=subprocess.PIPE, timeout=600)


def _digest(path: Path) -> tuple[str, int]:
    md5, size = hashlib.md5(), 0
    with open(path, "rb") as fh:
        while chunk := fh.read(1 << 20):
            md5.update(chunk)
            size += len(chunk)
    return md5.hexdigest(), size


@pytest.mark.parametrize("argv, pin", PINS)
def test_spec_command_output_is_pinned(tmp_path, argv, pin):
    (tmp_path / "spec.json").write_text(json.dumps(BASELINE), encoding="utf-8")
    out = tmp_path / "out"
    done = _run([*argv, "--spec", "spec.json", "--out", str(out)], tmp_path)
    try:
        assert done.returncode == 0, done.stderr
        assert _digest(out) == pin
    finally:
        out.unlink(missing_ok=True)


def test_verify_symmetry_output_is_pinned(tmp_path):
    done = _run(["verify-symmetry"], tmp_path, stdout=subprocess.PIPE)
    assert done.returncode == 0, done.stderr
    assert (hashlib.md5(done.stdout).hexdigest(), len(done.stdout)) == (
        "d5f3db86bf34f4afa5941403332620a3", 247)
