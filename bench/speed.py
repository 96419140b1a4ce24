"""Machine-speed probe, so that timings taken on a shared machine compare.

A shared machine changes speed for seconds to minutes at a time: on the
2-CPU machine the bounds were set on, identical `score-10k` operations took
from 0.50 to 1.03 s within one run, and run medians spread by a third across
seeds. The benchmark therefore times a fixed piece of work, the probe, just
before and just after every set-up and operation, and scales the time in
between by PROBE_REF_S over the mean of the two probes.

The probe never runs inside a timed set-up or operation: whatever the program
does there (threads on the other CPU, child processes, evicting caches) could
slow a probe taken alongside it, and would then be counted as the machine
being slow. Between operations the program runs nothing, so the probe sees
only the machine.
"""

from __future__ import annotations

import time

import numpy as np

PROBE_STEPS = 4000
PROBE_REPEATS = 3
PROBE_REF_S = 0.010  # one probe step's time at reference speed, about its usual time on a 2-CPU x86 machine


def probe() -> float:
    """Mean seconds of PROBE_REPEATS runs of a fixed piece of work; it runs no aeromon code.

    The work mixes what the program spends its time on: Python integer
    arithmetic (the RNG), float formatting (CSV writes) and numpy calls on
    7-vectors (per-row scoring).
    """
    x = np.arange(7.0)
    state = 1
    started = time.perf_counter()
    for _ in range(PROBE_REPEATS):
        for i in range(PROBE_STEPS):
            state = (state * 6364136223846793005 + i) & 0xFFFFFFFFFFFFFFFF
            repr(float(x @ x) + state)
    return (time.perf_counter() - started) / PROBE_REPEATS


def speed_factor(before: float, after: float) -> float:
    """Reference-speed time over measured time, for a stretch between two probes."""
    return 2 * PROBE_REF_S / (before + after)
