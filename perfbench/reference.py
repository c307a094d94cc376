"""A fixed piece of pure-Python work that the benchmark times next to the
program, to tell how fast the machine runs at that moment.

On a shared virtual machine the same pure-Python work runs up to twice
as slow in spells of a fraction of a second to minutes (2 vCPUs, CPU time
equal to wall time, so the vCPU itself slows), and so do passes of the
workloads.  Timed next to the program, a sample of this work slows with
it.  run.py reports the program's times scaled by REFERENCE_S over the
samples' times: the seconds the work would take at the speed at which a
sample takes REFERENCE_S.  That constant only sets the unit; it is near
the time of a sample run by itself on an idle 2-vCPU virtual machine
with Python 3.11.7.  Samples taken inside a pass find colder caches, so
scaled times read somewhat above the raw times of a fast moment.  The
work is the benchmark's own, so a change to the program moves the scaled
times as it moves the raw ones.

It makes small tuples, compares them, keeps them in a dict and sorts
them, as the program does; an arithmetic loop tracked the program less
well.  It keeps few objects alive at once: samples taken at the start of
a garbage collection that held thousands of objects moved the program's
peak RSS by up to 15% from run to run.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.0015
ROUNDS = 7000


def _work() -> int:
    best: dict = {}
    for i in range(ROUNDS):
        key = (i * 7919) % 61
        item = (i * 31 % 977, key, i & 7)
        kept = best.get(key)
        if kept is None or item > kept:
            best[key] = item
    return len(sorted(best.values(), key=lambda t: (t[2], -t[0])))


def sample() -> float:
    """Seconds one run of the reference work takes now."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0


def scale(samples: list[float]) -> float:
    """REFERENCE_S over the median of `samples`."""
    return REFERENCE_S / statistics.median(samples)
