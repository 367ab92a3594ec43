"""A fixed reference workload that gauges how fast the machine runs right now.

The machine the benchmark was tuned on (2 shared cores) changes speed by up
to 2x from one second to the next, and for minutes at a time; CPU time
moves with wall time, so it is the speed of the core, not time lost waiting
for it.  A chunk of this gauge run right next to a call of the program
slows down with it: over 30 s of alternating the two, the program's time
moved by up to 35% and its time over the gauge's by 3%.

So the workloads report each part of a round (one ``run_suite`` call, or
one batch of commands) at the gauge's reference speed: the part's seconds
times ``REFERENCE_SECONDS`` times the mean of ``1 / sample`` over the gauge
samples taken just before it, just after it and, while ``running`` is on,
every ``interval`` seconds during it from a timer signal.  The time the
timer's samples take is not counted in the part.  A program that gets
slower or faster moves that figure; a machine that does moves the part and
the gauge together.

The chunk is built from the same kinds of work as the program's hot loops:
small complex matrices through ``numpy.linalg`` (``norm``, ``eigh``, ``qr``,
``svd``, ``eigvalsh``), ``scipy.linalg.expm``, and frozen dataclasses built
in Python loops.  It uses nothing from ``wstargeo``, so no change to the
program changes the gauge, and it binds its NumPy/SciPy functions on
import, so the tracer does not count its calls.
"""
from __future__ import annotations

import contextlib
import signal
import time
from dataclasses import dataclass

import numpy as np
from numpy.linalg import eigh, eigvalsh, norm, qr, svd
from scipy.linalg import expm

#: Roughly the time of one sample in the fast phase of the tuning machine
#: (2 shared cores, Python 3.11, NumPy 2.4, OpenBLAS with one thread).  It
#: only sets the scale of the reported figures.
REFERENCE_SECONDS = 0.0009

#: Chunks per sample; a sample is their minimum, which drops a chunk that
#: was preempted.  Consecutive chunks run in the same speed phase.
CHUNKS_PER_SAMPLE = 2


@dataclass(frozen=True)
class _Pair:
    matrix: np.ndarray
    weight: float


class SpeedGauge:
    def __init__(self) -> None:
        gen = np.random.default_rng(0)
        self._mats = [gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
                      for _ in range(3)]
        self._herms = [m + m.conj().T for m in self._mats]
        self._pairs = list(zip(self._mats, self._herms)) * 3
        self.samples: list[float] = []
        #: Seconds spent in timer samples.
        self.busy = 0.0

    def _chunk(self) -> float:
        start = time.perf_counter()
        total = 0.0
        for m, h in self._pairs:
            for k in range(6):
                total += norm(m - k * h)
            w, v = eigh(h)
            q, _ = qr(m)
            _, s, _ = svd(m)
            total += float(eigvalsh(h)[0])
            pair = _Pair((v * w) @ v.conj().T, float(s[0]))
            total += pair.weight + abs(complex(np.vdot(pair.matrix, q)))
        total += norm(expm(0.1j * self._herms[0]))
        return time.perf_counter() - start

    def sample(self) -> float:
        """Take one sample, keep it, and return it."""
        value = min(self._chunk() for _ in range(CHUNKS_PER_SAMPLE))
        self.samples.append(value)
        return value

    def _on_timer(self, signum, frame) -> None:
        start = time.perf_counter()
        self.sample()
        self.busy += time.perf_counter() - start

    @contextlib.contextmanager
    def running(self, interval: float | None):
        """Sample every ``interval`` seconds from a timer signal while the
        block runs; ``None`` takes no timer samples."""
        if interval is None:
            yield
            return
        previous = signal.signal(signal.SIGALRM, self._on_timer)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def time(self, fn):
        """Call ``fn()``; return its result, its seconds, and its seconds at
        the reference speed."""
        first = len(self.samples)
        self.sample()
        busy = self.busy
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start - (self.busy - busy)
        self.sample()
        return result, seconds, seconds * self.factor(self.samples[first:])

    @staticmethod
    def factor(samples: list[float]) -> float:
        """Reference seconds per measured second over ``samples``."""
        return REFERENCE_SECONDS * sum(1.0 / s for s in samples) / len(samples)
