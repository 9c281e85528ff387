"""Energy composition model.

The cycle simulator (:mod:`repro.sim`) emits operation counts per module;
this module folds them with the 28 nm per-op energies into joules, adds
clock/control overhead and SRAM leakage, and produces the power numbers
reported in Figs. 9-10 and Tables III-V.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from .arith import fiem_cost
from .technology import Technology, TECH_28NM


@dataclass
class OpCounts:
    """Dynamic operation counts accumulated while simulating a workload."""

    int8_mac: float = 0.0
    int16_mac: float = 0.0
    fp16_mac: float = 0.0
    fp32_mac: float = 0.0
    fiem_mul: float = 0.0
    int32_add: float = 0.0
    int32_mul: float = 0.0
    int32_div: float = 0.0
    fp32_add: float = 0.0
    fp32_div: float = 0.0
    exp_lookup: float = 0.0
    sram_read_bytes: float = 0.0
    sram_write_bytes: float = 0.0
    noc_bytes: float = 0.0

    def __iadd__(self, other: "OpCounts") -> "OpCounts":
        for name in _OP_FIELDS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def __add__(self, other: "OpCounts") -> "OpCounts":
        result = OpCounts()
        result += self
        result += other
        return result

    def scaled(self, factor: float) -> "OpCounts":
        """Every count multiplied by ``factor``."""
        return OpCounts(*[getattr(self, name) * factor for name in _OP_FIELDS])


#: :class:`OpCounts` field names in declaration order, looked up once.
_OP_FIELDS = tuple(f.name for f in fields(OpCounts))


@dataclass
class EnergyBreakdown:
    """Joules attributed to each physical resource."""

    compute_j: float = 0.0
    sram_j: float = 0.0
    noc_j: float = 0.0
    clock_ctrl_j: float = 0.0
    leakage_j: float = 0.0

    @property
    def total_j(self) -> float:
        """Sum of every resource's joules."""
        return (
            self.compute_j
            + self.sram_j
            + self.noc_j
            + self.clock_ctrl_j
            + self.leakage_j
        )


class EnergyModel:
    """Fold :class:`OpCounts` into energy using a technology instance."""

    #: pJ for one piecewise exponential/sigmoid lookup-table evaluation.
    EXP_LOOKUP_PJ = 0.6
    #: pJ per byte moved over the NoC.
    NOC_PJ_PER_BYTE = 0.08

    def __init__(self, tech: Technology = TECH_28NM):
        self.tech = tech
        #: pJ per FIEM multiply at this (frozen) technology.
        self._fiem_pj = fiem_cost(tech).energy_pj

    def dynamic_energy(self, ops: OpCounts) -> EnergyBreakdown:
        """Dynamic energy only; leakage is added by :meth:`energy`."""
        t = self.tech.ops
        compute_pj = (
            ops.int8_mac * t.mac_pj("int8")
            + ops.int16_mac * t.mac_pj("int16")
            + ops.fp16_mac * t.mac_pj("fp16")
            + ops.fp32_mac * t.mac_pj("fp32")
            + ops.fiem_mul * self._fiem_pj
            + ops.int32_add * t.int32_add_pj
            + ops.int32_mul * t.int32_mul_pj
            + ops.int32_div * t.int32_div_pj
            + ops.fp32_add * t.fp32_add_pj
            + ops.fp32_div * t.fp32_div_pj
            + ops.exp_lookup * self.EXP_LOOKUP_PJ
        )
        sram_pj = (
            ops.sram_read_bytes * self.tech.sram.read_pj_per_byte
            + ops.sram_write_bytes * self.tech.sram.write_pj_per_byte
        )
        noc_pj = ops.noc_bytes * self.NOC_PJ_PER_BYTE
        clock_pj = self.tech.logic.clock_overhead * (compute_pj + noc_pj)
        return EnergyBreakdown(
            compute_j=compute_pj * 1e-12,
            sram_j=sram_pj * 1e-12,
            noc_j=noc_pj * 1e-12,
            clock_ctrl_j=clock_pj * 1e-12,
        )

    def energy(
        self,
        ops: OpCounts,
        runtime_s: float,
        sram_kb: float,
        logic_mgates: float,
    ) -> EnergyBreakdown:
        """Total energy for a workload that ran for ``runtime_s`` seconds."""
        breakdown = self.dynamic_energy(ops)
        leakage_mw = (
            sram_kb * self.tech.sram.leakage_mw_per_kb
            + logic_mgates * self.tech.logic.leakage_mw_per_mgate
        )
        breakdown.leakage_j = leakage_mw * 1e-3 * runtime_s
        return breakdown
