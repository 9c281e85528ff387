"""Quantized-training study utilities (paper Table II).

The paper motivates the mixed-precision datapath (Challenge C2) with an
experiment: quantizing all weights to INT8 every N iterations during
training degrades quality — mild at N=1000, severe at N=200, and
non-convergent when quantizing every iteration.  This module provides the
fake-quantization ops and a trainer hook to reproduce that study.
"""

from __future__ import annotations

import numpy as np


def quantize_int8(values: np.ndarray) -> np.ndarray:
    """Symmetric per-tensor INT8 fake quantization.

    Values are scaled to [-127, 127] by the tensor's max magnitude,
    rounded, and mapped back — exactly the information loss a real INT8
    store/reload of the weights would incur.
    """
    values = np.asarray(values, dtype=np.float64)
    max_abs = np.abs(values).max()
    scale = max_abs / 127.0
    if scale == 0.0:  # all-zero tensor, or subnormal underflow
        return values.copy()
    return np.round(values / scale) * scale


def quantize_int8_fixed(values: np.ndarray, step: float = 1.0 / 16.0) -> np.ndarray:
    """Fixed-point INT8 quantization: the hardware storage format.

    Unlike :func:`quantize_int8`, the scale is a property of the number
    format (Q3.4 by default, step 1/16), not of the tensor — matching
    what an INT8 weight SRAM actually stores.  Two's-complement code
    words make the representable range *asymmetric*:
    ``[-128 * step, 127 * step]``, i.e. ``[-8.0, +7.9375]`` for Q3.4 —
    exactly ``-8.0`` round-trips while ``+8.0`` saturates to the largest
    positive code (``+7.9375``).  Updates smaller than half a step are
    lost entirely, which is what makes quantize-every-iteration training
    non-convergent (paper Table II).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    values = np.asarray(values, dtype=np.float64)
    return np.clip(np.round(values / step), -128, 127) * step


def quantize_model_parameters(model, step: float = 1.0 / 16.0) -> None:
    """INT8-round-trip every learnable tensor of the model, in place.

    Uses the fixed-point hardware format (see :func:`quantize_int8_fixed`).
    """
    for value in model.parameters().values():
        value[...] = quantize_int8_fixed(value, step=step)


class PeriodicQuantizationHook:
    """Trainer ``post_step_hook`` that quantizes every ``interval`` steps.

    ``interval=0`` disables quantization (the "Never" column);
    ``interval=1`` reproduces the non-convergent "Every Iter." column.
    """

    def __init__(self, interval: int, step: float = 1.0 / 16.0):
        if interval < 0:
            raise ValueError("interval must be non-negative")
        self.interval = interval
        self.step = step
        self.applications = 0

    def __call__(self, trainer) -> None:
        if self.interval == 0:
            return
        if trainer.state.iteration % self.interval == 0:
            quantize_model_parameters(trainer.model, step=self.step)
            self.applications += 1
