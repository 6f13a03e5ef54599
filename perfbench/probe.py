"""A fixed piece of work that times how fast the host runs at the moment.

The benchmark's children share a few cores of a host with other tenants,
and the host's speed drifts by a fifth or more over minutes.  run.py times
this probe between invocations, in its own process and with no child
running, and scales the end-to-end times by the probe's speed in that run.
The probe does the kinds of work the program does (interpreter-bound dict
and tuple traffic, and elementwise numpy on mid-sized arrays) and imports
nothing from the program, so no change to the program can move it.
"""
import time

import numpy as np

# lower quartile of the probe's time on the reference host (2 vCPUs of a
# shared x86-64 machine, Python 3.11, numpy 2.4): the speed the scaled
# times refer to
REFERENCE_S = 0.1


def work():
    table = {}
    for i in range(100_000):
        table[(i % 101, i // 101, i & 3)] = i * 0.5
    total = sum(v for k, v in table.items() if k[2] != 1)
    grid = np.linspace(-1.0, 1.0, 500_000)
    for _ in range(12):
        grid = np.sqrt(grid * grid + 0.5) - np.abs(grid) * 0.25
    return total + float(grid.sum())


def time_once() -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start
