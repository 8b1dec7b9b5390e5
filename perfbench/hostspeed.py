"""The host's speed, sampled with a fixed kernel while a timed region runs.

The benchmark's host is shared: the same round of work ran up to 1.8x slower
from one second to the next, and for minutes at a time, with no time stolen
from the process (its CPU time slowed as much as its wall time).  So a raw
time says as much about the neighbours as about the program.

While a region runs, a SIGALRM handler runs one of four small kernels every
``INTERVAL_S`` seconds: a Python loop, 129x129 FFTs, an SVD and an ``eigh``,
the kinds of work the workloads do.  The kernels use numpy only,
never slrecon, so a change to the program cannot move them.  Their summed mean
time over the region measures how fast the host ran during that region, and
``scale()`` converts the region's seconds into reference seconds: seconds on
the host at the speed ``REFERENCE_S`` was taken at.  The handler's own time is
left out of every region timed with ``clock()``.

A signal handler runs between bytecodes, so a sample waits for a long native
call (an SVD, a large FFT) to return; it never interrupts one.

The kernels track the workloads' slowdowns only in part, because a busy
neighbour slows some kinds of work more than others.  Over five rounds of each
workload, raw round times ranged over 10-30% of their minimum and scaled ones
over 4-10%.  A fifth kernel that streamed 4 MiB arrays tracked worst on every
workload and was dropped.
"""

from __future__ import annotations

import signal
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

INTERVAL_S = 0.03
MIN_SAMPLES = 3  # per kernel; a region too short for these is topped up after it
# The kernels' summed time on the 2-core host the benchmark was written on
# (Xeon, Python 3.11, numpy 2.4, OpenBLAS 0.3.31, one thread), at a calm time.
REFERENCE_S = 0.0097


def _kernels():
    rng = np.random.default_rng(0)
    image = rng.standard_normal((129, 129)) + 1j * rng.standard_normal((129, 129))
    tall = rng.standard_normal((300, 64)) + 1j * rng.standard_normal((300, 64))
    square = rng.standard_normal((100, 100)) + 1j * rng.standard_normal((100, 100))
    square = square + square.conj().T

    def python_loop():
        total = 0
        for i in range(30000):
            total += i

    def fft():
        for _ in range(4):
            np.fft.ifft2(np.fft.fft2(image))

    def svd():
        np.linalg.svd(tall, full_matrices=False)

    def eigh():
        np.linalg.eigh(square)

    return (python_loop, fft, svd, eigh)


class HostSpeed:
    """Samples the host's speed during ``sampling()`` regions."""

    def __init__(self):
        self.kernels = _kernels()
        self.stolen = 0.0  # seconds spent in the kernels since construction
        self._samples: list[list[float]] = [[] for _ in self.kernels]
        self._next = 0
        for kernel in self.kernels:  # first calls pay for plans and page faults
            kernel()

    def _run(self, i: int):
        t0 = perf_counter()
        self.kernels[i]()
        dt = perf_counter() - t0
        self._samples[i].append(dt)
        self.stolen += dt

    def _on_alarm(self, signum, frame):
        self._run(self._next % len(self.kernels))
        self._next += 1

    def clock(self) -> float:
        """Seconds of wall time, less the time spent sampling."""
        return perf_counter() - self.stolen

    @contextmanager
    def sampling(self):
        """Samples every ``INTERVAL_S`` seconds inside the block; starts afresh each time."""
        for samples in self._samples:
            samples.clear()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self) -> float:
        """Reference seconds per host second over the last ``sampling()`` region."""
        for i, samples in enumerate(self._samples):
            while len(samples) < MIN_SAMPLES:
                self._run(i)
        return REFERENCE_S / sum(statistics.mean(s) for s in self._samples)
