"""A fixed reference computation that measures how fast this box is right now.

The box the benchmark runs on is shared: the same batch can take twice as
long from one second to the next, in phases of seconds to minutes.  The
runner times this kernel next to every op batch and scales the batch's
rate by ``slowdown()`` - the kernel's time over its time on an unloaded
box - so a run in a slow phase and a run in a fast phase report alike.
The kernel is part of the benchmark, not of the program, so a change to
the program never changes it.  It mixes the three kinds of work the
workloads do: interpreted Python, numpy calls on small arrays, and numpy
calls on large arrays.
"""

from __future__ import annotations

import time

import numpy as np

# kernel seconds per part on an unloaded 2-vCPU Xeon box (the fast phase)
NOMINAL_S = {"python": 0.0058, "small_numpy": 0.0055, "large_numpy": 0.0054}

_SMALL = np.random.default_rng(0).random((25, 64))
_LARGE = np.random.default_rng(1).random((256, 1024))


def _python() -> None:
    table = {}
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
        table[i & 255] = acc


def _small_numpy() -> None:
    x = _SMALL
    for _ in range(250):
        c = np.cumsum(x, axis=1)
        x = np.tanh(c / c.max())
        x = np.where(np.abs(x).max(axis=1)[:, None] > 0.5, x, 0.5 * x)


def _large_numpy() -> None:
    for _ in range(2):
        np.tanh(np.cumsum(_LARGE, axis=1) * 1e-3).sum(axis=0)


PARTS = {"python": _python, "small_numpy": _small_numpy, "large_numpy": _large_numpy}


def part_slowdowns() -> dict:
    """Per part of the kernel: time now / unloaded time."""
    ratios = {}
    for name, part in PARTS.items():
        t0 = time.perf_counter()
        part()
        ratios[name] = (time.perf_counter() - t0) / NOMINAL_S[name]
    return ratios


def slowdown(parts: dict) -> float:
    """The box's slowdown from ``part_slowdowns()``: 1.0 on an unloaded box."""
    return sum(parts.values()) / len(parts)
