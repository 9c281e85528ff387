"""Area composition model.

Composes module areas from SRAM macros plus standard-cell gate counts, and
reports the chip-level breakdown of Fig. 10(c).  Also quantifies the
Stage II sharing ablation (Sec. IV-B3: 87.4% of Stage II area directly
shared between inference and training, 12.6% reused via reconfiguration).
"""

from __future__ import annotations

from dataclasses import dataclass

from .technology import Technology, TECH_28NM


@dataclass(frozen=True)
class ModuleArea:
    """Area of one chip module, split into logic and SRAM."""

    name: str
    logic_mm2: float
    sram_mm2: float

    @property
    def total_mm2(self) -> float:
        """Logic plus SRAM area."""
        return self.logic_mm2 + self.sram_mm2


class AreaModel:
    """Compose chip area from gate counts and SRAM capacities."""

    def __init__(self, tech: Technology = TECH_28NM):
        self.tech = tech

    def logic_area_mm2(self, gates: float) -> float:
        """Area of ``gates`` logic gates."""
        return gates / self.tech.logic.gates_per_mm2

    def sram_area_mm2(self, kb: float) -> float:
        """Area of ``kb`` KB of SRAM macros."""
        return kb * self.tech.sram.area_mm2_per_kb

    def module(self, name: str, gates: float, sram_kb: float) -> ModuleArea:
        """One module's :class:`ModuleArea` from its gates and SRAM."""
        return ModuleArea(
            name=name,
            logic_mm2=self.logic_area_mm2(gates),
            sram_mm2=self.sram_area_mm2(sram_kb),
        )

    @staticmethod
    def chip_total_mm2(modules: list, floorplan_overhead: float = 0.12) -> float:
        """Total die area with routing/floorplan whitespace overhead."""
        raw = sum(module.total_mm2 for module in modules)
        return raw * (1.0 + floorplan_overhead)

    @staticmethod
    def breakdown(modules: list) -> dict:
        """Fractional area per module (Fig. 10(c) style)."""
        total = sum(module.total_mm2 for module in modules)
        if total <= 0:
            raise ValueError("modules have no area")
        return {module.name: module.total_mm2 / total for module in modules}


def stage2_sharing_ablation(tech: Technology = TECH_28NM) -> dict:
    """Stage II area sharing between inference and training (Sec. IV-B3).

    Directly shared: vertex-coordinate generation, feature-index (hash)
    computation, and interpolation-weight units, plus the feature SRAM.
    Reused via reconfiguration: the interpolation array that flips between
    a MAC tree (forward) and a vector-multiply/scatter unit (backward).
    A training-only residue (gradient scaling glue) is what a non-shared
    design would have to duplicate wholesale.
    """
    from .arith import fiem_cost

    area = AreaModel(tech)
    fiem_mm2 = fiem_cost(tech).area_mm2(tech)
    # Logic-area accounting per interpolation core, 8 vertex lanes each
    # (the feature SRAM is excluded: it belongs to the memory clusters).
    coord_gen = area.logic_area_mm2(8 * 800)  # corner offsets + clamping
    hash_unit = area.logic_area_mm2(8 * (2 * 6800 + 500))  # muls + xor/mod
    weight_unit = area.logic_area_mm2(26000)  # fractional weight products
    # The reconfigurable array: 8 FIEMs, a 7-node adder tree that reverses
    # into a scatter network, and the mode-switch muxing.
    interp_array = 8 * fiem_mm2 + area.logic_area_mm2(7 * 1100 + 4000)
    shared = coord_gen + hash_unit + weight_unit
    reconfigured = interp_array
    total = shared + reconfigured
    return {
        "shared_mm2": shared,
        "reconfigured_mm2": reconfigured,
        "shared_fraction": shared / total,
        "reconfigured_fraction": reconfigured / total,
    }
