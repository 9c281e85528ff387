"""Arithmetic unit models, including the FP-INT Efficient Multiplier (FIEM).

Technique T2-2 of the paper replaces the traditional INT2FP-conversion +
full-FP-multiplier datapath (used for the mixed integer/floating-point
products in Stage II, e.g. interpolation-weight x feature) with a unit
that multiplies the integer directly against the float's fraction and then
folds in the exponent.  The paper reports a 55% area and 65% power saving
(Fig. 6(d)).

This module provides both a *functional* model (bit-accurate mantissa
arithmetic, so tests can prove FIEM returns exactly the same product as
convert-then-multiply) and a *cost* model (gate counts / energy composed
from :mod:`repro.hw.technology`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .technology import Technology, TECH_28NM

# IEEE half-precision layout used by the functional model.
_FP16_MANT_BITS = 10
_FP16_EXP_BIAS = 15


def _decompose_fp16(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split fp16 values into (sign, exponent, mantissa-with-hidden-bit)."""
    bits = values.astype(np.float16).view(np.uint16)
    sign = (bits >> 15) & 0x1
    exp = ((bits >> 10) & 0x1F).astype(np.int32)
    frac = (bits & 0x3FF).astype(np.int64)
    normal = exp > 0
    mant = np.where(normal, frac | (1 << _FP16_MANT_BITS), frac)
    eff_exp = np.where(normal, exp, 1)
    return sign, eff_exp, mant


def fiem_multiply(fp_values: np.ndarray, int_values: np.ndarray) -> np.ndarray:
    """Multiply fp16 values by small integers the way the FIEM datapath does.

    The fraction (with hidden bit) is multiplied by the integer in a plain
    integer multiplier; the exponent passes through untouched and is only
    adjusted during the final normalization.  The result is returned as
    float32 (the unit feeds an FP accumulator).

    This is exact: an fp16 mantissa times an integer fits comfortably in
    64-bit intermediate precision, so the product equals
    ``float(fp) * int`` up to fp32 rounding, which the tests assert.
    """
    fp_values = np.asarray(fp_values, dtype=np.float16)
    int_values = np.asarray(int_values)
    if not np.issubdtype(int_values.dtype, np.integer):
        raise TypeError("FIEM integer operand must have an integer dtype")
    sign, exp, mant = _decompose_fp16(fp_values)
    signed_int = int_values.astype(np.int64)
    product = mant * np.abs(signed_int)
    # value = (-1)^sign * product * 2^(exp - bias - mant_bits)
    scale = np.exp2((exp - _FP16_EXP_BIAS - _FP16_MANT_BITS).astype(np.float64))
    result = product.astype(np.float64) * scale
    result = np.where(sign == 1, -result, result)
    result = np.where(signed_int < 0, -result, result)
    return result.astype(np.float32)


def reference_multiply(fp_values: np.ndarray, int_values: np.ndarray) -> np.ndarray:
    """Baseline datapath: convert the integer to float, then FP-multiply."""
    fp_values = np.asarray(fp_values, dtype=np.float16)
    converted = np.asarray(int_values).astype(np.float32)
    return fp_values.astype(np.float32) * converted


@dataclass(frozen=True)
class MultiplierCost:
    """Area (NAND2-equivalent gates) and energy (pJ/op) of one multiplier."""

    gates: float
    energy_pj: float

    def area_mm2(self, tech: Technology = TECH_28NM) -> float:
        """Silicon area of the multiplier's gates."""
        return self.gates / tech.logic.gates_per_mm2


def int2fp_fpmul_cost(tech: Technology = TECH_28NM) -> MultiplierCost:
    """Cost of the traditional INT2FP converter followed by a full FPMUL."""
    gates = tech.logic.int2fp_gates + tech.logic.fp16_mul_gates
    # The conversion's priority encoder + shifter toggles about as much
    # logic as the multiplier array itself, then the FP multiplier runs at
    # full mantissa x mantissa width.
    energy = 1.15 * tech.ops.fp16_mul_pj + tech.ops.fp16_mul_pj
    return MultiplierCost(gates=gates, energy_pj=energy)


def fiem_cost(tech: Technology = TECH_28NM) -> MultiplierCost:
    """Cost of the FP-INT Efficient Multiplier.

    The unit is an 11x8 integer multiplier on the fraction (cheaper than
    the FP multiplier's 11x11 array plus rounding), an exponent adder, and
    a leading-zero normalizer; there is no conversion stage at all.
    """
    fraction_mul_gates = 760  # 11b x 8b array multiplier
    exponent_add_gates = 110
    normalizer_gates = 255
    gates = fraction_mul_gates + exponent_add_gates + normalizer_gates
    # Only the narrow integer array toggles; no conversion, no full
    # mantissa product, no rounding logic.
    energy = 0.40 * tech.ops.fp16_mul_pj + 0.05
    return MultiplierCost(gates=gates, energy_pj=energy)


def fiem_savings(tech: Technology = TECH_28NM) -> dict:
    """Area and power savings of FIEM vs INT2FP+FPMUL (paper: 55% / 65%)."""
    base = int2fp_fpmul_cost(tech)
    fiem = fiem_cost(tech)
    return {
        "baseline_gates": base.gates,
        "fiem_gates": fiem.gates,
        "area_saving": 1.0 - fiem.gates / base.gates,
        "baseline_energy_pj": base.energy_pj,
        "fiem_energy_pj": fiem.energy_pj,
        "power_saving": 1.0 - fiem.energy_pj / base.energy_pj,
    }
