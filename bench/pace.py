"""Host-speed reference for the end-to-end timings.

The benchmark runs on a few virtual cores of a shared host whose speed
drifts by a third and more over minutes, inside the process's own CPU
time, so neither CPU time nor longer runs remove it.  The timed loops
therefore interleave short chunks of a fixed reference task that shares
no code with chowfiber, so no change to the program can move it:

* for in-process ops, fraction-free elimination of a fixed integer
  matrix, written here (``chunk``);
* for ``chowfiber`` processes, a child with the same environment that
  imports the standard-library modules chowfiber imports and nothing of
  chowfiber (``interpreter``).  It tracks the host's process start-up
  and module loading far better than any in-process task, and a bit
  better than a bare ``python -c pass``.  Start-up speed swings between
  phases of one to a few seconds, so it runs before every op: over
  40-second windows of one 400-second recording, the median op spread
  0.22 of its median raw and 0.01 scaled this way.

A slow phase of the host stretches the chunks and the ops alike, and
every end-to-end time is reported at reference speed: the measured time
times the task's nominal time over the median chunk time in the window
around it.  The nominal times are about the median chunk times of a
2-vCPU x86-64 VM with CPython 3.11, so the reported times read as
seconds on that host at that speed.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import subprocess
import sys
import time
from array import array
from typing import Callable

#: Chunk times, in seconds, of the reference host.
CHUNK_NOMINAL_S = 0.004
INTERPRETER_NOMINAL_S = 0.075
#: What the ``interpreter`` chunk imports.
INTERPRETER_IMPORTS = "import argparse, dataclasses, itertools, json, math, typing"
#: A time is scaled by the median of this many chunks nearest to it.
WINDOW = 9

_N = 12
_MATRIX = [[(7 * i + 13 * j) % 19 - 9 + 40 * (i == j) for j in range(_N)] for i in range(_N)]


def _determinant(rows: list[list[int]]) -> int:
    """Bareiss elimination; the diagonal dominance keeps every pivot nonzero."""
    a = [row[:] for row in rows]
    prev = 1
    for k in range(_N - 1):
        for i in range(k + 1, _N):
            for j in range(k + 1, _N):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return a[-1][-1]


_DETERMINANT = _determinant(_MATRIX)


def chunk() -> None:
    """The reference task: one fixed amount of interpreter and integer work.

    The collector is off meanwhile, so the size of the program's heap
    cannot move the chunk's time.
    """
    gc.disable()
    try:
        for _ in range(36):
            if _determinant(_MATRIX) != _DETERMINANT:
                raise AssertionError("reference determinant changed")
    finally:
        gc.enable()


def interpreter(env: dict[str, str]) -> Callable[[], None]:
    """The reference task for ops that are processes: one fresh interpreter."""

    def run() -> None:
        # The pipe ends the wait when the child exits; with a timeout and
        # no pipe, subprocess polls for the exit in sleeps of up to 50 ms.
        subprocess.run(
            [sys.executable, "-c", INTERPRETER_IMPORTS],
            env=env, stdout=subprocess.PIPE, check=True, timeout=10,
        )

    return run


class Pace:
    """Chunk times of one run, and the scale they give any instant of it.

    A chunk of ``task`` runs before an op once ``every_s`` has passed
    since the last one.
    """

    def __init__(self, task: Callable[[], None] = chunk, nominal_s: float = CHUNK_NOMINAL_S,
                 every_s: float = 0.25) -> None:
        self.task = task
        self.nominal_s = nominal_s
        self.every_s = every_s
        self.at = array("d")
        self.took = array("d")

    def measure(self, times: int = 1) -> None:
        for _ in range(times):
            t0 = time.perf_counter()
            self.task()
            t1 = time.perf_counter()
            self.at.append((t0 + t1) / 2)
            self.took.append(t1 - t0)

    def tick(self) -> None:
        """Run a chunk if none ran for ``every_s``."""
        if not self.at or time.perf_counter() - self.at[-1] >= self.every_s:
            self.measure()

    def scale_at(self, t: float) -> float:
        """Reference speed over host speed around instant ``t``."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - WINDOW // 2, len(self.at) - WINDOW))
        return self.nominal_s / statistics.median(self.took[lo:lo + WINDOW])

    def scale(self) -> float:
        """Reference speed over host speed, over the whole run."""
        return self.nominal_s / statistics.median(self.took)
