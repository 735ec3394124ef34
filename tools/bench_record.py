"""Record one benchmark result per workload as `BENCH_<workload>.json`.

Run from anywhere with `python3 tools/bench_record.py` (standard library
only, no options).  For each workload that `BENCHMARK.json` declares it runs

    python3 bench/run.py --workload W --seed 1 --seconds S --trace 0

with S the file's `run_seconds`, and writes `BENCH_W.json` at the repo root:
the result JSON that `run.py` prints as its last stdout line, with the
interpreter's version, the platform and its CPU count, the commit (`git
describe --always --dirty`, when `.git` exists), the workload, the seed,
`--seconds` and `--trace`.  With `run_seconds` = 20 a run takes 25 to 35 s.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: The seed whose outputs `bench/digests.json` pins, and untraced runs only:
#: the end-to-end metrics are the ones a change is judged on.
SEED = 1
TRACE = 0


def record(workload: str, seconds: float, stdout: str, commit: "str | None") -> dict:
    """The `BENCH_<workload>.json` object for one run of `bench/run.py`
    that printed `stdout`."""
    return {
        "workload": workload,
        "seed": SEED,
        "seconds": seconds,
        "trace": TRACE,
        "python": sys.version,
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "commit": commit,
        "result": json.loads(stdout.splitlines()[-1]),
    }


def current_commit() -> "str | None":
    """The checked-out commit, marked `-dirty` when tracked files differ."""
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "describe", "--always", "--dirty"], cwd=ROOT,
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def main() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds, commit = benchmark["run_seconds"], current_commit()
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
             "--seconds", str(seconds), "--trace", str(TRACE)],
            cwd=ROOT, capture_output=True, text=True, check=True)
        path = ROOT / f"BENCH_{workload}.json"
        path.write_text(json.dumps(record(workload, seconds, done.stdout, commit),
                                   indent=2) + "\n", encoding="utf-8")
        print(path.name, flush=True)


if __name__ == "__main__":
    main()
