"""Rescaling wall time to the nominal machine speed."""

import pytest

from bench.clock import NOMINAL_CALIBRATION_S, SpeedClock, calibrate
from bench.layers import LayerRecorder, NullRecorder, TIMED, layer_stats


def test_operations_on_a_slow_host_are_scaled_down():
    clock = SpeedClock(NullRecorder())
    clock.calibrations = [2 * NOMINAL_CALIBRATION_S] * 4
    assert clock.scaled([0.1, 0.3, 0.2]) == pytest.approx([0.05, 0.15, 0.1])


def test_each_interval_uses_the_calibrations_around_it():
    clock = SpeedClock(NullRecorder())
    nominal = NOMINAL_CALIBRATION_S
    clock.calibrations = [nominal] * 4 + [3 * nominal] * 10
    assert clock.factor(0) == pytest.approx(1.0)
    assert clock.factor(12) == pytest.approx(1 / 3)


def test_laps_exclude_the_calibration_and_tick_under_a_span_when_tracing():
    recorder = LayerRecorder()
    clock = SpeedClock(recorder)
    with recorder.phase(TIMED):
        clock.start()
        clock.lap()
        clock.lap()
    assert len(clock.laps) == 2 and len(clock.calibrations) == 3
    assert layer_stats(recorder.tracer.finished, TIMED)["calibration"].calls == 3
    assert calibrate() > 0.0
