"""Fixed units of host work, timed between calls to gauge host speed.

On a shared host the same call runs up to 1.8x slower from one call to
the next and whole runs drift by tens of percent (see README.md), so raw
times of one commit move by more than the benchmark's bounds from run to
run.  A worker times its workload's unit before its first call and after
every call; run.py divides each call's time by the host's slowness next
to it (unit time over the unit's reference time) and reports the
quotient in reference seconds.

Contention slows kinds of work unequally, so there are two units and
each workload uses the one whose slowdowns tracked its own
(`Workload.unit`): the slope of log mean call time on log mean slowness
across ten runs, 1 for a unit that tracks the workload exactly.

- "array": numpy sorts and ufuncs over arrays larger than a core's cache
  and k-d tree neighbour counts, with a little interpreted work; for the
  verify workloads and solve-scan (slopes 0.7 to 1.2).
- "interpreted": dict and float loops, numpy calls on tiny arrays and
  float formatting, all bound by the interpreter; for multienergy, whose
  calls are pure Python (slope 0.9 to 1.1, against 1.5 for the array
  unit).

The units are the benchmark's own code and do not change with the
program measured.
"""

import gc
import time

import numpy as np
from scipy.spatial import cKDTree

_RNG = np.random.default_rng(20091104)
_VALUES = _RNG.random(150_000)
_LARGE = _RNG.random(1_000_000)
_SMALL = _RNG.random(64)
_POINTS = _RNG.random((1500, 2))
_TREE = cKDTree(_POINTS)


def _dict_loop(n):
    counts = {}
    for i in range(n):
        key = (i * 7919) % 211
        counts[key] = counts.get(key, 0.0) + i * 0.5
    return len(counts)


def _format(n):
    return len(" ".join(f"{x:.17g}" for x in _VALUES[:n]))


def array_unit():
    """One array unit; returns a checksum so nothing is optimised away."""
    total = float(np.exp(np.sort(_VALUES)).sum())
    total += float(np.exp(np.sort(_LARGE)).sum())
    pairs = _TREE.query_ball_point(_POINTS, 0.03, return_length=True).sum()
    return total + float(pairs) + _dict_loop(6000) + _format(800)


def interpreted_unit():
    """One interpreted unit; returns a checksum."""
    a = _SMALL.copy()
    total = 0.0
    for _ in range(1200):
        a = np.log(np.exp(a) + 1.0) - 0.5
        total += float(a.sum())
    return total + _dict_loop(60_000) + _format(6000)


# kind -> (unit, its wall time in seconds on the 2-vCPU host of README.md's
# baseline when quiet); a time divided by unit time over this reads as
# seconds on that host.
UNITS = {
    "array": (array_unit, 0.025),
    "interpreted": (interpreted_unit, 0.023),
}


def measure(kind, min_seconds, min_units=2):
    """The host's slowness, wall and CPU: seconds per unit of `kind` over
    the unit's reference seconds, timed over at least `min_units` units
    and at least `min_seconds` of wall time.

    The cyclic collector is off meanwhile: a collection would walk the
    objects the program measured left behind, and bill their count to the
    host's speed.
    """
    unit, reference_s = UNITS[kind]
    units = 0
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        while True:
            unit()
            units += 1
            wall = time.perf_counter() - wall0
            if units >= min_units and wall >= min_seconds:
                break
        cpu = time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()
    scale = units * reference_s
    return wall / scale, cpu / scale
