"""Host speed, read from fixed reference work timed next to the work measured.

On a shared host the speed of plain-Python code over numpy scalars drifts
by tens of percent within a minute, and the drift between two sets of
runs can exceed any usable bound. Two references follow it:

- the reference loop does the same kind of work as probkit's pure-Python
  kernel fallback (indexing numpy arrays, scalar arithmetic, ``math.exp``),
  so it slows down and speeds up with sampling;
- the reference import is a fresh interpreter importing numpy and the
  standard modules set-up uses, so it follows a set-up probe.

Both are benchmark code: no change to probkit makes them faster or slower.
A gated timing is reported in host-normalised seconds: its wall seconds
times the reference's nominal time over the reference's time measured next
to it, that is, seconds on a host where the reference takes its nominal
time. The raw wall-clock figures stay in each run's record.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time

import numpy as np

# Nominal reference times, about their medians on a 2.0 GHz Xeon vCPU.
REF_S = 0.006
IMPORT_REF_S = 0.12
_IMPORTS = ("import time; t0 = time.perf_counter(); "
            "import csv, dataclasses, json, tempfile, numpy; print(time.perf_counter() - t0)")
_N = 8000
_A = np.linspace(0.1, 1.0, _N)
_P = np.zeros(_N)


def _loop() -> float:
    a, p = _A, _P
    for i in range(1, _N):
        v = a[i]
        p[i] = p[i - 1] * 0.5 + math.exp(-v) * v
    return float(p[-1])


def ref_s(reps: int = 3) -> float:
    """Median wall time of ``reps`` reference loops, now."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        _loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def import_ref_s() -> float:
    """Import time of the reference imports in a fresh interpreter, now."""
    proc = subprocess.run([sys.executable, "-c", _IMPORTS], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def normalised(wall_s: float, ref: float, nominal: float = REF_S) -> float:
    """``wall_s`` scaled to a host on which the reference takes ``nominal``."""
    return wall_s * nominal / ref


class Clock:
    """Wall and host-normalised time of one stretch of work.

    The host's speed switches within seconds, so a stretch is cut into
    segments of about ``every`` seconds: ``tick()``, called from inside the
    work, reads the reference loop when a segment is due. Each segment is
    normalised by the mean of the readings at its two ends; the readings'
    own time is left out of both totals.
    """

    def __init__(self, every: float = 0.25):
        self.every = every

    def start(self) -> None:
        self.wall = self.norm = 0.0
        self.ref = ref_s(reps=1)
        self.mark = time.perf_counter()

    def tick(self) -> None:
        if time.perf_counter() - self.mark >= self.every:
            self._segment()

    def stop(self) -> tuple[float, float]:
        """(wall s, host-normalised s) since ``start``."""
        self._segment()
        return self.wall, self.norm

    def _segment(self) -> None:
        elapsed = time.perf_counter() - self.mark
        ref = ref_s(reps=1)
        self.wall += elapsed
        self.norm += normalised(elapsed, (self.ref + ref) / 2)
        self.ref = ref
        self.mark = time.perf_counter()

    def ticking(self, fn):
        """``fn`` with a ``tick()`` before each call."""
        def ticked(*args, **kwargs):
            self.tick()
            return fn(*args, **kwargs)

        return ticked
