"""Host-speed sampling, so that times can be reported in reference seconds.

The shared host the benchmark was built on changes speed by up to +-25%
over seconds to minutes, and a fixed pure-Python loop slows down with it
in wall time and CPU time alike.  So while a timed phase runs, a
wall-clock timer signal runs a short fixed kernel every SAMPLE_INTERVAL_S
and records how long it took.  The handler runs in the main thread between
bytecodes of whatever is running, so it measures the core the timed code
runs on.  A phase's time, less the time its samples took (`stolen`), is
rescaled by  ref_s / median(kernel samples taken during the phase).

Two kernels: `python_kernel` for the set-up phase (numpy is not loaded
yet, and the cold import is mostly interpreter work), `numpy_kernel`
(small-array numpy calls and Python arithmetic, like fiberflow's inner
loops) for the ops.  Their reference times are their usual times on the
machine the baseline was taken on (README.md), so a reference second is
about a second there.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_INTERVAL_S = 0.02
SAMPLE_PAD_S = 0.1  # short ops also use the samples just around them
PYTHON_REF_S = 0.00018
NUMPY_REF_S = 0.00033


def python_kernel() -> None:
    acc = 0
    for i in range(3000):
        acc += i * i % 7


def numpy_kernel() -> None:
    import numpy as np  # loaded by the time ops run
    x = np.linspace(0.1, 1.0, 512)
    acc = 0.0
    for _ in range(20):
        y = np.diff(x)
        z = (y[1:] + y[:-1]) * 0.5
        acc += float(np.sum(z / (x[1:-1] + 1.0)))
        acc += sum(range(50))


class SpeedSampler:
    """Samples `kernel` on SIGALRM between start() and stop()."""

    def __init__(self, kernel, ref_s: float) -> None:
        self.kernel = kernel
        self.ref_s = ref_s
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.stolen = 0.0

    def _handler(self, signum, frame) -> None:
        start = time.perf_counter()
        self.kernel()
        took = time.perf_counter() - start
        self.samples.append((start, took))
        self.stolen += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float = float("-inf"),
               end: float = float("inf")) -> float:
        """Reference seconds per wall second between start and end."""
        near = [took for t, took in self.samples
                if start - SAMPLE_PAD_S <= t <= end + SAMPLE_PAD_S]
        return self.ref_s / statistics.median(near)
