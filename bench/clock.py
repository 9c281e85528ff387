"""Wall time rescaled to a nominal machine speed.

The hosts this benchmark runs on change speed by tens of percent over
seconds to minutes, and interpreter loops and NumPy kernels do not slow
down by the same amount at the same time.  Raw wall times then measure
the host as much as the program.  :class:`SpeedClock` times a fixed
calibration workload, a pure-Python loop followed by a small NumPy
gather and scatter, between operations.  It rescales each operation's
wall time by the calibration's nominal duration over its local measured
duration, so a timing reads what it would at the nominal speed.  On the
``render`` workload the mix tracked frame times to within 0.5% from one
10-second block to the next, where the loop alone left up to 5%.  The
calibration is the benchmark's own code and never changes, so a change
to the program moves the rescaled times exactly as it moves the raw
ones.  It calls no BLAS routine, whose thread pool would carry state
over from the program's own calls.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Iterations of the Python half of the calibration.
CALIBRATION_ITERATIONS = 20000
#: Operands of the NumPy half, Stage II in miniature: a 2^15-entry
#: two-feature table, eight corner lookups for each of 16384 points, and
#: the cells their blended values are scattered into.
_GENERATOR = np.random.default_rng(0)
_TABLE = _GENERATOR.standard_normal((1 << 15, 2)).astype(np.float32)
_CORNERS = _GENERATOR.integers(0, 1 << 15, (16384, 8))
_CELLS = _GENERATOR.integers(0, 4096, 16384)
#: Duration of one calibration at the nominal speed (about its median on
#: a 2-core x86 cloud VM under Python 3.11 and NumPy 2).
NOMINAL_CALIBRATION_S = 4.0e-3
#: Calibration samples on each side of an interval that set its speed.
WINDOW = 3


def calibrate() -> float:
    """Wall seconds one run of the fixed calibration workload takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_ITERATIONS):
        total += i * i % 7
    features = _TABLE[_CORNERS]
    weights = np.abs(features[..., 0]) * 0.5 + 0.25
    blended = (features[..., 1] * weights).sum(axis=1)
    np.bincount(_CELLS, weights=np.maximum(blended, 0.0), minlength=4096)
    return time.perf_counter() - start


class SpeedClock:
    """Calibration ticks between operations, and the rescaling they give.

    A closed loop calls :meth:`tick` before its first operation and after
    each one, timing the operations itself; interval ``i`` lies between
    ticks ``i`` and ``i + 1``.  A long call that cannot be split, such as
    a service's ``run()``, calls :meth:`start` before it and :meth:`lap`
    from inside it (a completion callback) and after it; :attr:`laps`
    then holds the wall time between ticks.
    """

    def __init__(self, recorder):
        self.recorder = recorder
        self.calibrations = []
        self.laps = []
        self._mark = None

    def tick(self) -> None:
        """Time one calibration, under a ``calibration`` span when tracing."""
        with self.recorder.span("calibration"):
            self.calibrations.append(calibrate())

    def start(self) -> None:
        """Tick, then start the first lap."""
        self.tick()
        self._mark = time.perf_counter()

    def lap(self) -> None:
        """End the running lap, tick, and start the next one."""
        self.laps.append(time.perf_counter() - self._mark)
        self.tick()
        self._mark = time.perf_counter()

    def factor(self, i: int) -> float:
        """Nominal over measured speed around interval ``i``."""
        window = self.calibrations[max(0, i + 1 - WINDOW) : i + 1 + WINDOW]
        return NOMINAL_CALIBRATION_S / statistics.median(window)

    def scaled(self, durations) -> list:
        """Rescale the wall durations of consecutive intervals."""
        return [d * self.factor(i) for i, d in enumerate(durations)]

    @property
    def median_calibration_s(self) -> float:
        """Median calibration time: the host's speed during the run."""
        return statistics.median(self.calibrations)
