"""The CLI's bytes and Tier-1 on every CPython 3.10+ interpreter on `PATH`.

Run from anywhere with `python3 tools/interpreters.py` (standard library
only, no options).  It looks for each `python3.N`, N >= 10, in the
directories on `PATH`; a pyenv shim directory (`<root>/shims`) stands for
every `<root>/versions/*/bin/python3.N` it can select, since a shim runs
only the one version pyenv has selected.  Each interpreter, counted once by
its real path, then

- runs the N = 800 CLI pins and the `verify-symmetry` pin, `MATRIX` in
  `tests/pins.py` (on that file's `BASELINE` spec), each as a child
  `python -m sixrde` with `src` on `PYTHONPATH`, and compares each output's
  md5 and length with its pin;
- runs Tier-1 (`python -m pytest -q -p no:cacheprovider`) where
  `import pytest` works, and otherwise gives the reason it cannot.

It prints one JSON line per interpreter.  It borrows no packages: each
interpreter runs with what it has installed itself.  The pins take a few
seconds per interpreter and Tier-1 about 20 s where it runs.
"""

import hashlib
import json
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Seconds one child run may take: the pins, or the whole of Tier-1.
TIMEOUT_SECONDS = 600


def tier1_counts(stdout: str) -> dict:
    """The outcome counts and seconds of the summary line `pytest -q` prints
    last, e.g. {"passed": 363, "skipped": 5, "seconds": 13.65}."""
    line = stdout.strip().splitlines()[-1] if stdout.strip() else ""
    counts = {word: int(number) for number, word in
              re.findall(r"(\d+) (passed|failed|skipped|errors?|xfailed|xpassed)", line)}
    seconds = re.search(r" in ([\d.]+)s", line)
    if seconds:
        counts["seconds"] = float(seconds.group(1))
    return counts


def interpreters() -> list:
    """The real paths of every distinct `python3.N`, N >= 10, on `PATH`."""
    seen = []
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        folder = Path(folder or ".")
        candidates = sorted(folder.glob("python3.*"))
        if folder.name == "shims" and (folder.parent / "versions").is_dir():
            candidates = sorted((folder.parent / "versions").glob("*/bin/python3.*"))
        for path in candidates:
            if not re.fullmatch(r"python3\.(\d+)", path.name) or int(path.name[8:]) < 10:
                continue
            real = os.path.realpath(path)
            if os.access(real, os.X_OK) and real not in seen:
                seen.append(real)
    return seen


def _run(python: str, *args: str, cwd) -> subprocess.CompletedProcess:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run([python, *args], cwd=cwd, env=env, capture_output=True,
                          timeout=TIMEOUT_SECONDS)


def check(python: str, pinned: list, spec: dict) -> dict:
    """One interpreter's line: its version, each pin's outcome, Tier-1's."""
    line = {"python": python}
    done = _run(python, "-c", "import platform; print(platform.python_version())", cwd=ROOT)
    if done.returncode:
        line["error"] = done.stderr.decode(errors="replace").strip().splitlines()[-1:]
        return line
    line["version"] = done.stdout.decode().strip()
    line["pins"] = {}
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
        out = Path(tmp) / "out"
        for argv, pin in pinned:
            extra = [] if argv == ["verify-symmetry"] else ["--spec", "spec.json", "--out", str(out)]
            done = _run(python, "-m", "sixrde", *argv, *extra, cwd=tmp)
            data = done.stdout if not extra else out.read_bytes() if out.exists() else b""
            out.unlink(missing_ok=True)
            got = (hashlib.md5(data).hexdigest(), len(data))
            line["pins"][" ".join(argv)] = done.returncode == 0 and got == pin
    line["pins_ok"] = all(line["pins"].values())
    probe = _run(python, "-c", "import pytest", cwd=ROOT)
    if probe.returncode:
        reason = probe.stderr.decode(errors="replace").strip().splitlines()
        line["tier1"] = {"ran": False, "reason": reason[-1] if reason else "import failed"}
    else:
        done = _run(python, "-m", "pytest", "-q", "-p", "no:cacheprovider", cwd=ROOT)
        line["tier1"] = {"ran": True, "exit": done.returncode,
                         **tier1_counts(done.stdout.decode(errors="replace"))}
    return line


def main() -> None:
    pins = runpy.run_path(str(ROOT / "tests" / "pins.py"))
    for python in interpreters():
        print(json.dumps(check(python, pins["MATRIX"], pins["BASELINE"])), flush=True)


if __name__ == "__main__":
    main()
