"""Run on the fastest CPU available right now.

On a shared host the CPUs of one machine can differ in speed by half,
depending on what runs beside them, and which CPU is slow changes every
few seconds.  A process that migrates between them, or stays on one that
turns slow, gives timings that swing by that much from run to run.
``pin_fastest`` times a short pure-Python loop on each CPU the process may
use and pins the process to the fastest.  The worker calls it before every
request, since the fast CPU of one moment is often the slow one a few
seconds later.  It acts on the calling process only.
"""

from __future__ import annotations

import os
import time


def _probe(loops: int) -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(loops):
        acc += i * i
    return time.perf_counter() - t0


def pin_fastest(cpus, rounds: int = 3, loops: int = 50_000) -> int:
    """Pin the calling process to the CPU of ``cpus`` that runs the probe fastest."""
    best_time, best_cpu = None, None
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        t = min(_probe(loops) for _ in range(rounds))
        if best_time is None or t < best_time:
            best_time, best_cpu = t, cpu
    os.sched_setaffinity(0, {best_cpu})
    return best_cpu
