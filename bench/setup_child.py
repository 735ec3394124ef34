"""Time one cold set-up: `import sixrde.cli` plus loading a workload's inputs.

Usage: python3 bench/setup_child.py ROOT WORKLOAD WORKDIR

Prints the seconds taken and, measured right after, the median time of the
speed kernel (speed.py) in ns.  Only `os`, `sys` and `time` are imported
before the clock starts, so sixrde's own imports are paid cold; importing the
benchmark's loader in between is not counted.
"""

import os
import sys
import time


def main(root: str, workload: str, workdir: str) -> None:
    t0 = time.perf_counter()
    sys.path.insert(0, os.path.join(root, "src"))
    import sixrde.cli  # the CLI front-end is not imported by the package

    imported = time.perf_counter()
    from pathlib import Path

    from workloads import WORKLOADS

    t1 = time.perf_counter()
    WORKLOADS[workload].load(sixrde, Path(workdir))
    t2 = time.perf_counter()
    from statistics import median

    from speed import calibrate

    kernel_ns = median(calibrate() for _ in range(5))
    print(repr((imported - t0) + (t2 - t1)), kernel_ns)


if __name__ == "__main__":
    main(*sys.argv[1:])
