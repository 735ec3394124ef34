"""sixrde benchmark: one command for every workload, metric and check.

    python3 bench/run.py --workload export|solve|sweep --seed N --seconds S --trace 0|1

Each run is one process driving sixrde in-process as a single-thread closed
loop (one op in flight).  Inputs come from the seed (see gen.py); every op's
output is checked against an independent exact reference (reference.py)
outside the op's timed span, and for the default seed also against the
digests pinned in digests.json.

--trace 0 measures the end-to-end metrics: whole cycles of the workload's ops
are run until their summed op time reaches S seconds.  --trace 1 runs one
cycle three times, untraced, traced, traced, for the per-layer metrics
(tracer.py); the two traced passes must agree exactly on every counter, and
all three on every output.  It then runs the known-defect probes once,
untimed.  The last line of stdout is the JSON result; the metric names and
units are read from BENCHMARK.json.

Timings are normalized for machine speed (speed.py): a fixed kernel runs
after every op, and each op's time is scaled by the reference kernel time
over the median kernel time around it.  Set-up is normalized the same way.

    python3 bench/run.py --workload export --update-digests

re-pins the default seed's CLI output digests after an intended output change.
LAYERS.md says which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns

import workloads
from speed import REFERENCE_KERNEL_NS, calibrate
from tracer import Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = BENCH / ".work"
ALLOWED_EXITS = (0, 2, 3, 64, 65)
SETUP_REPEATS = 9
KERNEL_WINDOW = 2  # kernels on each side of an op that set its speed

#: ROADMAP 4(a) and 4(c), re-run once per traced run and counted when they
#: break the exit-code contract.  4(a): the 4300-digit int->str limit at
#: horizon 900; 4(c): a JSON number where a rational string belongs.
PROBES = {
    "int-str-limit": {
        "initial": ["1", "1", "1", "1", "2", "1"],
        "coeffs": {"kind": "constant", "a": ["2"], "b": ["1/3"]},
        "horizon": 900,
    },
    "json-number-seed": {
        "initial": [1, "1", "1", "1", "2", "1"],
        "coeffs": {"kind": "constant", "a": ["2"], "b": ["1/3"]},
        "horizon": 10,
    },
}


@dataclass
class Pass:
    """What one run over a list of ops produced."""

    durations_ns: list = field(default_factory=list)
    kernel_ns: list = field(default_factory=lambda: [calibrate()])
    fingerprints: list = field(default_factory=list)
    failed: int = 0
    terms: int = 0
    out_bytes: int = 0
    reported: set = field(default_factory=set)

    @property
    def busy_s(self) -> float:
        return sum(self.durations_ns) / 1e9

    def speed(self) -> float:
        """Reference kernel time over this pass's median kernel time."""
        return REFERENCE_KERNEL_NS / statistics.median(self.kernel_ns)

    def normalized_ms(self) -> list[float]:
        """Op times in ms, scaled to the reference machine speed."""
        out = []
        for i, ns in enumerate(self.durations_ns):
            window = self.kernel_ns[max(0, i - KERNEL_WINDOW + 1): i + KERNEL_WINDOW + 1]
            out.append(ns * REFERENCE_KERNEL_NS / statistics.median(window) / 1e6)
        return out


def run_op(op: workloads.Op, into: Pass) -> None:
    op.before()
    stderr = io.StringIO()
    error = None
    with contextlib.redirect_stderr(stderr):
        t0 = perf_counter_ns()
        try:
            result = op.run()
        except Exception:
            error = traceback.format_exc()
        t1 = perf_counter_ns()
    into.durations_ns.append(t1 - t0)
    into.kernel_ns.append(calibrate())
    if error is None:
        try:
            outcome = op.check(result, stderr.getvalue())
        except Exception:
            error = traceback.format_exc()
    if error is not None:
        outcome = workloads.Outcome(False, 0, "error")
    if not outcome.ok:
        into.failed += 1
        if op.key not in into.reported:
            into.reported.add(op.key)
            print(f"FAILED {op.key}\n{error or stderr.getvalue()}", file=sys.stderr)
    into.terms += outcome.terms
    into.out_bytes += outcome.out_bytes
    into.fingerprints.append(outcome.fingerprint)


def run_pass(ops, tracer: "Tracer | None" = None) -> Pass:
    result = Pass()
    if tracer is not None:
        tracer.install()
    try:
        for op in ops:
            run_op(op, result)
    finally:
        if tracer is not None:
            tracer.restore()
    return result


def measure_setup(workload: str, workdir: Path) -> float:
    """Median of several normalized cold set-ups, each in a fresh interpreter.

    Bytecode caching is on, as for an installed package, so only the first
    set-up in a fresh checkout compiles sixrde.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_child.py"), str(ROOT), workload,
             str(workdir)],
            check=True, capture_output=True, text=True, timeout=120, env=env,
        ).stdout
        seconds, kernel_ns = out.split()
        times.append(float(seconds) * REFERENCE_KERNEL_NS / float(kernel_ns))
    return statistics.median(times)


def end_to_end(ops, seconds: float, setup_s: float) -> tuple[int, int, dict]:
    timed = Pass()
    while True:
        for op in ops:
            run_op(op, timed)
        if timed.busy_s >= seconds:
            break
    ms = timed.normalized_ms()
    deciles = statistics.quantiles(ms, n=10)
    attempted = len(ms)
    return attempted, timed.failed, {
        "setup_s": setup_s,
        "terms_per_s": timed.terms / (sum(ms) / 1e3),
        "op_p50_ms": statistics.median(ms),
        "op_p90_ms": deciles[8],
        "ok_frac": (attempted - timed.failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def contract_violations(sixrde, workdir: Path) -> int:
    """Probes whose exit code is outside the contract or that raise."""
    count = 0
    for name, spec in PROBES.items():
        path = workdir / f"probe-{name}.json"
        path.write_text(json.dumps(spec))
        argv = ["iterate", "--spec", str(path), "--out", str(workdir / "probe.csv")]
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            try:
                code = sixrde.cli.main(argv)
            except Exception:
                code = None
        if code not in ALLOWED_EXITS or "Traceback" in stderr.getvalue():
            count += 1
    return count


def per_layer(ops, seed: int, workload: str, sixrde, workdir: Path) -> tuple[int, int, dict]:
    untraced = run_pass(ops)
    tracers = [Tracer(), Tracer()]
    traced = [run_pass(ops, t) for t in tracers]
    failed = untraced.failed + sum(p.failed for p in traced)
    for p in traced:
        failed += sum(a != b for a, b in zip(untraced.fingerprints, p.fingerprints))
    if tracers[0].counters != tracers[1].counters:
        print("FAILED exact counters differ between two traced passes:\n"
              f"{tracers[0].counters}\n{tracers[1].counters}", file=sys.stderr)
        failed += 1

    totals = [t.layer_times() for t in tracers]

    def seconds(kind: int, name: str) -> float:
        return statistics.fmean(
            t[kind][name] * p.speed() for t, p in zip(totals, traced))

    counters, calls = tracers[0].counters, totals[0][2]
    gauges = {}
    for op in ops:
        for name, value in op.gauges().items():
            gauges[name] = max(gauges.get(name, 0), value)
    metrics = {
        "oracle.iterate.s": seconds(0, "oracle.iterate"),
        "oracle.iterate.calls": calls["oracle.iterate"],
        "oracle.steps": counters["oracle.steps"],
        "oracle.halts": counters["oracle.halts"],
        "oracle.invariant.s": seconds(0, "oracle.invariant"),
        "closedform.term.s": seconds(0, "closedform.term"),
        "closedform.term.calls": calls["closedform.term"],
        "closedform.term.singular":
            counters["closedform.term.raised.SingularClosedForm"],
        "closedform.well_defined.s": seconds(0, "closedform.well_defined"),
        "closedform.well_defined.violations":
            counters["closedform.well_defined.violations"],
        "closedform.unified_magnitude.s": seconds(0, "closedform.unified_magnitude"),
        "specialcases.term.s": seconds(0, "specialcases.term"),
        "specialcases.term.calls": calls["specialcases.term"],
        "symmetry.lsc_residual.s": seconds(0, "symmetry.lsc_residual"),
        "symmetry.lsc_residual.calls": calls["symmetry.lsc_residual"],
        "symmetry.structure.s": seconds(0, "symmetry.structure"),
        "core.format_rational.s": seconds(0, "core.format_rational"),
        "core.format_rational.calls": calls["core.format_rational"],
        "cli.main.self_s": seconds(1, "cli.main"),
        "cli.out_bytes": untraced.out_bytes,
        "core.coeff_lookups": counters["core.coeff_lookups"],
        "core.coeff_lookups_per_term": (
            counters["core.coeff_lookups_in_term"] / calls["closedform.term"]
            if calls["closedform.term"] else 0.0
        ),
        "oracle.max_term_bits": gauges.get("oracle.max_term_bits", 0),
        "closedform.max_v_bits": gauges.get("closedform.max_v_bits", 0),
        "core.max_out_digits": gauges.get("core.max_out_digits", 0),
        "core.int_max_str_digits": sys.get_int_max_str_digits(),
        "cli.contract_violations": contract_violations(sixrde, workdir),
        "trace.overhead_frac":
            statistics.fmean(sum(p.normalized_ms()) for p in traced)
            / sum(untraced.normalized_ms()) - 1,
    }
    WORK.mkdir(exist_ok=True)
    tracers[0].write_spans(WORK / f"spans-{workload}-seed{seed}.csv")
    return 3 * len(ops), failed, metrics


def update_digests(workload, ops) -> int:
    workload.pinned = {}
    result = run_pass(ops)
    if result.failed:
        print(f"not pinning: {result.failed} ops failed", file=sys.stderr)
        return 1
    path = workloads.DIGESTS_FILE
    pinned = json.loads(path.read_text()) if path.exists() else {}
    pinned[workload.name] = workload.pinned_digests()
    path.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-digests", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "sixrde" / "__init__.py").is_file():
        print(f"error: no sixrde source tree under {ROOT}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = 0.0 if args.update_digests else measure_setup(args.workload, workdir)
        sys.path.insert(0, str(ROOT / "src"))
        import sixrde.cli

        loaded = workload.load(sixrde, workdir)
        if args.update_digests:
            return update_digests(workload, workload.cycle(sixrde, loaded))
        ops = workload.cycle(sixrde, loaded)
        # Work out every op's expected output now, then keep the harness's own
        # objects out of the collector's way while ops are timed.
        for op in ops:
            op.gauges()
        gc.collect()
        gc.freeze()
        if args.trace:
            attempted, failed, metrics = per_layer(
                ops, args.seed, args.workload, sixrde, workdir)
        else:
            attempted, failed, metrics = end_to_end(ops, args.seconds, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    out = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    for name, metric in out.items():
        print(f"{args.workload:>7} {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": out,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
