"""Hardware substrate models: technology, arithmetic, memory, links.

These modules play the role the 28 nm silicon characterization plays in
the paper: they supply the per-operation energies, SRAM macro costs, and
link budgets that the cycle simulator composes into chip-level results.
"""

from .technology import (
    Technology,
    TECH_28NM,
    OperationEnergy,
    SramTechnology,
    LogicTechnology,
    technology_at_voltage,
)
from .arith import (
    fiem_multiply,
    reference_multiply,
    fiem_cost,
    int2fp_fpmul_cost,
    fiem_savings,
    MultiplierCost,
)
from .sram import SramBankSpec, BankedSram, AccessStats
from .memory_cluster import MemoryClusterSpec
from .noc import crossbar_area_mm2, one_to_one_area_mm2
from .interconnect import (
    LinkSpec,
    USB_3_2_GEN1,
    PCB_CHIP_LINK,
    CHIPLET_LINK,
    LPDDR4_1866,
    required_bandwidth_gbps,
)
from .energy import OpCounts, EnergyModel, EnergyBreakdown
from .area import AreaModel, ModuleArea, stage2_sharing_ablation
from .yield_model import (
    ProcessDefects,
    die_yield,
    dies_per_wafer,
    cost_per_good_die,
    cost_per_good_mm2,
    compare_scaling,
    ScalingComparison,
)

__all__ = [
    "Technology",
    "TECH_28NM",
    "OperationEnergy",
    "SramTechnology",
    "LogicTechnology",
    "technology_at_voltage",
    "fiem_multiply",
    "reference_multiply",
    "fiem_cost",
    "int2fp_fpmul_cost",
    "fiem_savings",
    "MultiplierCost",
    "SramBankSpec",
    "BankedSram",
    "AccessStats",
    "MemoryClusterSpec",
    "crossbar_area_mm2",
    "one_to_one_area_mm2",
    "LinkSpec",
    "USB_3_2_GEN1",
    "PCB_CHIP_LINK",
    "CHIPLET_LINK",
    "LPDDR4_1866",
    "required_bandwidth_gbps",
    "OpCounts",
    "EnergyModel",
    "EnergyBreakdown",
    "AreaModel",
    "ModuleArea",
    "stage2_sharing_ablation",
    "ProcessDefects",
    "die_yield",
    "dies_per_wafer",
    "cost_per_good_die",
    "cost_per_good_mm2",
    "compare_scaling",
    "ScalingComparison",
]
