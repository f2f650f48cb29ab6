"""Host speed, measured by a fixed probe between ops.

On a shared host the speed a process gets can change by 2x within seconds,
as other tenants load the machine.  The probe is a fixed slice of pure-Python
work shaped like the program's hot loop (a nested-loop join that builds
bindings).  Its time, taken next to every op, gives the host's speed at that
moment; an op's scale averages the probes taken before and after it.  Every
reported time is scaled by PROBE_NOMINAL_S / probe time, so it
reads as the time on a host where the probe takes PROBE_NOMINAL_S.  That
keeps figures comparable across runs while the host's speed moves; the raw
times are printed beside them.
"""

from __future__ import annotations

import statistics
import time

PROBE_NOMINAL_S = 0.0025
PROBE_EVERY_S = 0.25
PROBE_REPEATS = 5
_ROWS = [(f"k{i % 40}", f"v{i % 3}", f"c{i}") for i in range(160)]


def probe():
    """The fixed work: every pair of rows, a binding dict, a join and a compare."""
    found = []
    for a in _ROWS:
        for b in _ROWS:
            bindings = {"x": a[0]}
            if b[0] == bindings["x"] and a[1] != b[1]:
                found.append((a, b))
    return len(found)


class HostSpeed:
    """The latest scale factor, re-measured at most every PROBE_EVERY_S."""

    def __init__(self):
        self.factor = 1.0
        self._last = None

    def refresh(self, force=False):
        now = time.perf_counter()
        if force or self._last is None or now - self._last >= PROBE_EVERY_S:
            times = []
            for _ in range(PROBE_REPEATS):
                start = time.perf_counter()
                probe()
                times.append(time.perf_counter() - start)
            self.factor = PROBE_NOMINAL_S / statistics.median(times)
            self._last = time.perf_counter()
        return self.factor
