"""INT8 quantization study utilities (Table II machinery)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nerf.quantization import (
    PeriodicQuantizationHook,
    quantize_int8,
    quantize_int8_fixed,
    quantize_model_parameters,
)

_values = st.lists(
    st.floats(-10.0, 10.0, allow_nan=False), min_size=1, max_size=32
)


@given(values=_values)
@settings(max_examples=50, deadline=None)
def test_adaptive_int8_error_bounded_by_half_step(values):
    x = np.array(values)
    q = quantize_int8(x)
    step = np.abs(x).max() / 127.0
    assert np.all(np.abs(q - x) <= step / 2 + 1e-12)


@given(values=_values)
@settings(max_examples=50, deadline=None)
def test_adaptive_int8_idempotent(values):
    x = np.array(values)
    once = quantize_int8(x)
    assert np.allclose(quantize_int8(once), once, atol=1e-12)


def test_adaptive_int8_preserves_zero_tensor():
    z = np.zeros(5)
    assert np.array_equal(quantize_int8(z), z)


def test_fixed_int8_grid():
    x = np.array([0.031, 0.03, 0.94, -0.97])
    q = quantize_int8_fixed(x, step=1.0 / 16.0)
    assert np.allclose(q * 16, np.round(q * 16))


def test_fixed_int8_clips_to_range():
    q = quantize_int8_fixed(np.array([100.0, -100.0]), step=1.0 / 16.0)
    assert q[0] == pytest.approx(127 / 16)
    assert q[1] == pytest.approx(-128 / 16)


def test_fixed_int8_kills_small_updates():
    """The Table II mechanism: sub-half-step deltas are erased."""
    base = np.array([0.5])
    updated = base + 0.01  # much smaller than step/2 = 0.03125
    assert quantize_int8_fixed(updated)[0] == quantize_int8_fixed(base)[0]


def test_fixed_int8_rejects_bad_step():
    with pytest.raises(ValueError):
        quantize_int8_fixed(np.zeros(1), step=0.0)


def test_quantization_error_monotone_in_spread():
    def rms_error(values):
        return float(np.sqrt(np.mean((quantize_int8(values) - values) ** 2)))

    tight = np.linspace(-0.1, 0.1, 64)
    wide = np.linspace(-10.0, 10.0, 64)
    assert rms_error(wide) > rms_error(tight)


def test_quantize_model_parameters_in_place(tiny_model):
    quantize_model_parameters(tiny_model, step=0.25)
    for value in tiny_model.parameters().values():
        assert np.allclose(value * 4, np.round(value * 4), atol=1e-9)


def test_hook_interval_zero_is_noop(tiny_trainer):
    hook = PeriodicQuantizationHook(0)
    tiny_trainer.post_step_hook = hook
    tiny_trainer.train(3)
    assert hook.applications == 0


def test_hook_applies_on_schedule(tiny_trainer):
    hook = PeriodicQuantizationHook(2)
    tiny_trainer.post_step_hook = hook
    tiny_trainer.train(5)
    assert hook.applications == 2


def test_hook_rejects_negative_interval():
    with pytest.raises(ValueError):
        PeriodicQuantizationHook(-1)
