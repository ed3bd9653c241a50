"""Machine-speed calibration for the benchmark's wall-clock metrics.

On a shared host the same grid can run 1.6 times slower for seconds to
minutes at a time, while neither the program nor its input changed.  A fixed
kernel, timed close to each measured piece of work, tracks that speed: a
wall-clock interval ``t`` measured next to a kernel run of ``c`` seconds
counts as ``t * REFERENCE_S / c`` reference seconds, the time it would take
on a machine where the kernel takes REFERENCE_S.  The kernel does the kind of
work gaussfilt's filters do: small dense linear algebra behind Python calls.
"""

import statistics
import time

import numpy as np

from tracer import Patcher

REFERENCE_S = 0.004
INTERVAL_S = 0.25  # at most this long between kernel runs, ~2% of the time
_MATRIX = 5.0 * np.eye(5) + np.ones((5, 5))
_VECTOR = np.arange(5.0)


def kernel_seconds() -> float:
    """Wall time of one run of the fixed calibration kernel."""
    start = time.perf_counter()
    acc = 0.0
    for _ in range(150):
        factor = np.linalg.cholesky(_MATRIX)
        acc += float((factor @ _VECTOR).sum()) + float(np.linalg.eigvalsh(_MATRIX)[0])
        acc += sum(j * j for j in range(20))
    elapsed = time.perf_counter() - start
    if acc != acc:  # consume the result so no step can be skipped
        raise ArithmeticError("calibration kernel produced NaN")
    return elapsed


def reference_seconds(wall_s: float, kernel_s: float) -> float:
    """``wall_s`` measured next to a kernel run of ``kernel_s``, in reference seconds."""
    return wall_s * REFERENCE_S / kernel_s


class StepClock(Patcher):
    """Times every filter step and keeps the kernel measurement current.

    Wraps ``conventional_step`` and ``smoothing_step``.  At a step boundary at
    most every INTERVAL_S the kernel runs again (outside the step's timing),
    and each step counts in reference seconds by the latest kernel run.
    """

    def __init__(self):
        super().__init__()
        self.kernels = []  # seconds of each kernel run
        self.kernel_wall_s = 0.0  # wall time spent calibrating
        self.step_wall_s = 0.0
        self.step_reference_s = 0.0
        self._last = None

    def install(self):
        for name in ("conventional_step", "smoothing_step"):
            self.patch_everywhere("gaussfilt.filters", name, self._wrap)
        return self

    def _wrap(self, original):
        clock = self

        def step(*args, **kwargs):
            now = time.perf_counter()
            if clock._last is None or now - clock._last >= INTERVAL_S:
                clock.kernels.append(kernel_seconds())
                clock._last = time.perf_counter()
                clock.kernel_wall_s += clock._last - now
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                clock.step_wall_s += elapsed
                clock.step_reference_s += reference_seconds(elapsed, clock.kernels[-1])

        return step

    def reference_s(self, wall_s: float) -> float:
        """A timed interval of ``wall_s`` (kernel time excluded) that contains
        every step, in reference seconds; the time between steps counts by
        the median kernel run."""
        between = wall_s - self.step_wall_s
        return self.step_reference_s + reference_seconds(between, statistics.median(self.kernels))
