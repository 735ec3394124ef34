"""Machine-speed calibration for timings taken on a shared, drifting CPU.

`calibrate` times a fixed exact-arithmetic kernel that uses no sixrde code.
On a shared machine the CPU speed drifts by 15% or more within seconds; the
kernel drifts with it, so a time multiplied by REFERENCE_KERNEL_NS over a
nearby kernel time stays put.  A normalized time reads "on a machine where
the kernel takes 1 ms".
"""

from fractions import Fraction
from time import perf_counter_ns

REFERENCE_KERNEL_NS = 1_000_000


def calibrate() -> int:
    """Duration in ns of one run of the kernel."""
    t0 = perf_counter_ns()
    x = Fraction(1)
    for i in range(1, 120):
        x = x * Fraction(2 * i + 1, 3 * i + 2) + Fraction(1, i)
    return perf_counter_ns() - t0
