"""Host speed: a fixed reference kernel timed while the workload's commands run.

The reference machine is a shared virtual machine whose speed changes by up
to two and a half times over minutes, and by tens of percent from one second
to the next, as the host's other load comes and goes; CPU time follows wall
time, so the machine itself runs slower (see README.md).  The kernel below
does not use ptsl, so no change to the program moves it.  It does small
non-Hermitian eigenproblems like those of ``sweep`` and interpreted Python
arithmetic like the polynomial products of ``census``, on data that stays
in the first-level cache, so that the program's own use of the caches
changes its time little.

``Sampler`` runs the kernel from a timer signal every ``INTERVAL_S`` seconds
while a command runs, so its repetitions see the speed the command sees.
A run's times are divided by the kernel's speed factor, its median time over
``REFERENCE_REP_S``, so they read as seconds on the reference machine at the
speed it had when ``REFERENCE_REP_S`` was measured.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median wall and CPU seconds of one timed ``rep()`` on the reference machine,
# over the 1,757 samples of one batch of ``evolve`` (README.md, "Noise").
REFERENCE_REP_S = 3.13e-4
REFERENCE_REP_CPU_S = 3.12e-4
# Wall seconds between two repetitions while a command runs.
INTERVAL_S = 0.005

_rng = np.random.default_rng(20140213)
_SMALL = [_rng.standard_normal((q, q)) + 1j * _rng.standard_normal((q, q)) for q in (4, 8, 12)]
_COEFFS = [complex(c) for c in _rng.standard_normal(12)]


def rep() -> float:
    """One fixed unit of work; returns a number so none of it is skipped."""
    total = 0.0
    for m in _SMALL:
        total += float(np.abs(np.linalg.eigvals(m)).max())
    for _ in range(2):
        product = [0j] * (2 * len(_COEFFS) - 1)
        for i, a in enumerate(_COEFFS):
            for j, b in enumerate(_COEFFS):
                product[i + j] += a * b
        total += abs(product[len(_COEFFS)])
    return total


class Sampler:
    """Runs the kernel every ``interval`` wall seconds inside a ``with`` block.

    The kernel runs from a SIGALRM handler, between two bytecodes of
    whatever the block is running.  Each sample runs ``rep`` twice and times
    the second: the first brings the kernel's code and data back into the
    caches, so that the time does not depend on what the command left there.
    ``spent_wall`` and ``spent_cpu`` add up the whole handler, for the caller
    to take out of the block's own time.
    """

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        self.walls: list[float] = []  # wall seconds of every timed repetition
        self.cpus: list[float] = []  # CPU seconds of every timed repetition
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        start_wall, start_cpu = time.perf_counter(), time.process_time()
        rep()
        wall, cpu = time.perf_counter(), time.process_time()
        rep()
        end_wall, end_cpu = time.perf_counter(), time.process_time()
        self.walls.append(end_wall - wall)
        self.cpus.append(end_cpu - cpu)
        self.spent_wall += end_wall - start_wall
        self.spent_cpu += end_cpu - start_cpu

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def speed_factor(walls: list[float], reference: float = REFERENCE_REP_S) -> float:
    """How many times slower than the reference the kernel ran (median repetition)."""
    return statistics.median(walls) / reference
