"""Machine-speed calibration for the end-to-end timings.

On a shared host the speed of one vCPU drifts by 20% and more over
seconds to minutes.  That drift, not the program, would dominate the
run-to-run spread of a wall-clock time.  So the speed of the machine is
sampled with a fixed pure-Python kernel around every timed interval,
and the end-to-end times are reported at reference speed:

    time at reference speed = wall time * REF_S / median kernel time

REF_S is the kernel's typical time on the machine the benchmark was
defined on, so there the two times agree.  Raw wall times are printed
and kept in the result file alongside.

The samples are taken just before and just after each interval, in the
measured process, between ops.  That describes the machine during an
interval only when the interval is short next to the drift, so
intervals of LONG_S or more keep their wall time.  Measured over ten
seeds: the spread of the median dist op time fell from 16-20% (wall)
to 4-8%, while for a single 30 s ``maxwass reproduce-paper`` call the
scaled time spread 21% against 13% for wall time.  Sampling inside the
call, from a timer signal, over-corrected too: the kernel slows more
than the program does.

The kernel creates only ints and floats, which the garbage collector
does not track: a kernel that allocated tracked objects could trigger
a collection of the program's heap inside a sample, and read a full
heap as a slow machine.
"""

from __future__ import annotations

import statistics
import time

REF_S = 0.00215
LONG_S = 2.0


def kernel() -> float:
    """Seconds for one fixed mix of int and float arithmetic."""
    start = time.perf_counter()
    x, n = 0.0, 0
    for i in range(9000):
        x += (i * 0.5) % 3.0
        n ^= i * 2654435761 % 1000003
    return time.perf_counter() - start


def block(runs: int = 5) -> list:
    """Kernel times of a few runs back to back."""
    return [kernel() for _ in range(runs)]


def at_reference(seconds: float, before, after) -> float:
    """The time of an interval between two blocks of samples, at
    reference speed (wall time for a long interval)."""
    if seconds >= LONG_S:
        return seconds
    return seconds * REF_S / statistics.median(before + after)
