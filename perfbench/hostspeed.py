"""Host speed: scale a run's times to the reference machine's speed.

On a shared host, other tenants slow every process on it by up to a half,
in phases that can outlast a whole run. Process (CPU) time drifts as much
as wall time, so it is no remedy.

So the benchmark also times a fixed calibration loop, which runs no slcurv
code, after every pass. Every end-to-end time of the run except `setup_s`
is multiplied by

    REFERENCE_PROBE_S / (the loop's median time in the run)

A change to slcurv moves the scaled times exactly as it moves the raw ones.
A run spent in a slow phase is slower in both the inputs and the loop, and
the phase cancels. The factor is in the run's metadata line, so the raw
times can be recovered.

The loop and the inputs must be summarised alike. Within a phase the host
flickers between fast and slow faster than a long call lasts, so the best
of a 4 ms loop catches fast moments that a 100 ms report never sees
whole; scaled by the loop's best time, a slow phase still showed up to
1.6 times as strongly in `sl_large` as in the loop. Medians of both, the
loop over the run and each input over the run's passes, estimate the same
typical speed whatever a call's length. With them the spread over six
seeds in a slow phase fell from 0.15-0.18 to about 0.05 on `sl_large`
and `quadric_expr`.

`setup_s` stays unscaled. Set-up is mostly a fresh interpreter loading
numpy, which does not slow with the loop: over two sets of ten runs per
workload, the raw set-up times spread less than the scaled ones in seven
of the eight workload-sets.

The loop is pure-Python float arithmetic on small tuples. Loops with
dual-number objects or random memory access tracked slcurv's slowdowns
worse.
"""

from __future__ import annotations

import statistics
import time

# The loop's median time on the reference machine (a shared 2-vCPU Intel
# Xeon at 2.1 GHz, Python 3.11) in a quiet phase. It only sets the scale of
# the reported times; comparisons between runs do not depend on it.
REFERENCE_PROBE_S = 0.0040
PROBE_REPEATS = 3  # a probe is the fastest of these, so one interrupt does not move it
_POINTS = tuple((0.5 + 0.01 * i, 1.0 - 0.005 * i) for i in range(40))


def _calibration_loop() -> float:
    acc = (0.0, 1.0)
    for _ in range(800):
        for x, y in _POINTS:
            a, b = acc
            acc = (0.999 * a + x * b, 0.5 * b + y * y - a * 1e-3)
    return acc[0]


class HostSpeed:
    """The calibration loop's times in one run, and the factor they give."""

    def __init__(self):
        self.probes: list[float] = []

    def probe(self):
        clock = time.perf_counter
        best = float("inf")
        for _ in range(PROBE_REPEATS):
            start = clock()
            _calibration_loop()
            best = min(best, clock() - start)
        self.probes.append(best)

    def factor(self) -> float:
        """Multiply a time measured in this run by this for its reference-speed value."""
        if not self.probes:
            self.probe()
        return REFERENCE_PROBE_S / statistics.median(self.probes)

    def summary(self) -> dict:
        factor = self.factor()
        return {"probes": len(self.probes), "median_probe_s": statistics.median(self.probes), "factor": factor}
