"""Machine-speed reference for the csrecon benchmark.

On a small shared host the CPU's speed drifts by tens of percent within
seconds and minutes, and all code in the process slows and speeds up
together: interpreter loops, LAPACK calls and vectorised numpy alike. The
benchmark therefore times a fixed reference kernel (:func:`reference`)
between the timed pieces of work, and reports each piece's time scaled by
``REF_S`` over the mean of the reference times just before and just after
it. The scaled times read as milliseconds on a machine where the kernel
takes ``REF_S``; the raw wall times go into the report next to them.

The kernel is part of the benchmark, not of csrecon, so a change to csrecon
moves the scaled times exactly as it moves the wall times at a fixed speed.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

# Nominal time of one reference() call: the median of the per-run medians
# of 30 benchmark runs on a 2-vCPU x86_64 VM (single runs: 2.37-3.30 ms).
REF_S = 2.93e-3

_rng = np.random.default_rng(0)
_A = _rng.random((96, 64))
_B = _rng.random(96)
_PHASE = np.linspace(0.0, 1.0, 1 << 14)


def reference() -> float:
    """Run the reference kernel once; returns its wall time in seconds.

    About a third each of interpreter loop, small least-squares solve and
    complex exponential over an array, the three kinds of work csrecon does.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(10_000):
        acc += i * i
    np.linalg.lstsq(_A, _B, rcond=None)
    np.exp(2j * np.pi * _PHASE).sum()
    return time.perf_counter() - t0


class Gauge:
    """The reference times taken so far; ``last`` is the most recent."""

    def __init__(self, kernel: Callable[[], float] = reference) -> None:
        self._kernel = kernel
        kernel()  # untimed: first-call set-up
        self.samples: list[float] = []
        self.last = self.sample()

    def sample(self) -> float:
        self.last = self._kernel()
        self.samples.append(self.last)
        return self.last


class Stopwatch:
    """Wall time of one operation, and the same time at reference speed.

    The operation is timed in segments: :meth:`split` ends one and starts
    the next, with a reference run between them that is not timed. Each
    segment is scaled by ``REF_S`` over the mean of the reference times just
    before and after it. With ``splits=False`` :meth:`split` does nothing,
    so the operation is a single segment.
    """

    def __init__(self, gauge: Gauge, splits: bool = True) -> None:
        self._gauge = gauge
        self._splits = splits
        self.wall = 0.0
        self.scaled = 0.0
        self._pending = 0.0

    def start(self) -> None:
        self._before = self._gauge.last
        self._t0 = time.perf_counter()

    def stop(self) -> None:
        """End the current segment; :meth:`read` takes its reference."""
        self._pending = time.perf_counter() - self._t0

    def split(self) -> None:
        if self._splits:
            self.stop()
            self._settle()
            self.start()

    def _settle(self) -> None:
        after = self._gauge.sample()
        self.wall += self._pending
        self.scaled += self._pending * 2.0 * REF_S / (self._before + after)
        self._pending = 0.0

    def read(self) -> tuple[float, float]:
        """(wall seconds, seconds at reference speed) of the whole operation."""
        self._settle()
        return self.wall, self.scaled


def at_reference_speed(seconds: float) -> float:
    """``seconds`` just measured in this process, scaled by ``REF_S`` over
    the median of five reference runs taken now."""
    gauge = Gauge()
    for _ in range(4):
        gauge.sample()
    return seconds * REF_S / float(np.median(gauge.samples))
