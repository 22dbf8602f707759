"""Scaling measured times to a reference machine speed.

On shared hardware the CPU's speed drifts by a quarter within seconds, as
other tenants load its cores, so raw rates of runs a minute apart differ more
than any bound worth setting (README.md gives the figures).  A fixed pure-Python reference loop, timed right around the
work, tracks that drift: a time scaled by ``REF_PROBE_S / probe()`` is the
time the work would have taken at the speed where the loop takes
``REF_PROBE_S``.  The reference loop never touches ngc_lab, so a change to
the package moves the scaled times exactly as it moves the raw ones.
"""

from __future__ import annotations

import gc
import math
import time

REF_PROBE_S = 0.001  # about the loop's median time on the reference container of README.md


def _reference_loop(n: int = 3000) -> int:
    table = {}
    acc = 0
    for i in range(n):
        key = (i, i ^ 5, i * 3)
        table[key] = i
        acc += len(key) + i % 7
    return acc


def probe() -> float:
    """Seconds the reference loop takes now (best of two).

    The cyclic garbage collector is paused meanwhile: a collection started by
    the loop's allocations would time the program's live objects, not the
    machine.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = math.inf
        for _ in range(2):
            t0 = time.perf_counter()
            _reference_loop()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Meter:
    """Time spent in ngc_lab, raw and scaled to the reference speed.

    Each stretch of program time is scaled by the mean of the probes taken
    just before and just after it.
    """

    def __init__(self) -> None:
        self.raw = 0.0
        self.scaled = 0.0
        self.before = probe()

    def add(self, seconds: float) -> None:
        after = probe()
        self.raw += seconds
        self.scaled += seconds * REF_PROBE_S / ((self.before + after) / 2)
        self.before = after

    def call(self, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(time.perf_counter() - t0)
        return result
