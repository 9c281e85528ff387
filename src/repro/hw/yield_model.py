"""Die yield and fabrication cost model.

Sec. II-D motivates the multi-chip approach with a yield argument drawn
from the Chiplet Actuary cost model (Feng & Ma, DAC'22): scaling RT-NeRF
up drops yield from 99% to 72%, roughly doubling cost per unit area.  We
implement the classic negative-binomial yield model and a per-good-die
cost comparison between one big chip and N small chips on a board.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class ProcessDefects:
    """Defect statistics of the target process."""

    #: Defect density, defects per mm^2.  Chosen so the paper's anchor
    #: reproduces: a 4x-scaled RT-NeRF die (75.4 mm^2) yields 72%.
    density_per_mm2: float = 0.0046
    #: Clustering parameter of the negative-binomial model.
    clustering_alpha: float = 3.0
    #: Wafer diameter in mm (300 mm wafers).
    wafer_diameter_mm: float = 300.0
    #: Processed-wafer cost in arbitrary cost units.
    wafer_cost: float = 4000.0


def die_yield(area_mm2: float, process: ProcessDefects = ProcessDefects()) -> float:
    """Negative-binomial die yield: ``(1 + A*D0/alpha)^-alpha``."""
    if area_mm2 <= 0:
        raise ValueError("die area must be positive")
    a = process.clustering_alpha
    return (1.0 + area_mm2 * process.density_per_mm2 / a) ** (-a)


def dies_per_wafer(area_mm2: float, process: ProcessDefects = ProcessDefects()) -> int:
    """Gross dies per wafer with the standard edge-loss correction."""
    if area_mm2 <= 0:
        raise ValueError("die area must be positive")
    d = process.wafer_diameter_mm
    wafer_area = math.pi * (d / 2.0) ** 2
    edge_loss = math.pi * d / math.sqrt(2.0 * area_mm2)
    return max(0, int(wafer_area / area_mm2 - edge_loss))


def cost_per_good_die(area_mm2: float, process: ProcessDefects = ProcessDefects()) -> float:
    """Wafer cost amortized over good dies."""
    gross = dies_per_wafer(area_mm2, process)
    if gross == 0:
        raise ValueError("die too large for the wafer")
    good = gross * die_yield(area_mm2, process)
    return process.wafer_cost / good


def cost_per_good_mm2(area_mm2: float, process: ProcessDefects = ProcessDefects()) -> float:
    """Cost per good silicon mm^2 — the paper's doubling metric."""
    return cost_per_good_die(area_mm2, process) / area_mm2


@dataclass(frozen=True)
class ScalingComparison:
    """One big die versus N small dies with the same total area."""

    monolithic_area_mm2: float
    n_chips: int
    monolithic_yield: float
    per_chip_yield: float
    monolithic_cost: float
    multi_chip_cost: float
    packaging_cost: float

    @property
    def cost_saving(self) -> float:
        """Share of the monolithic cost that chiplets plus packaging save."""
        total_multi = self.multi_chip_cost + self.packaging_cost
        return 1.0 - total_multi / self.monolithic_cost


def compare_scaling(
    total_area_mm2: float,
    n_chips: int,
    process: ProcessDefects = ProcessDefects(),
    packaging_cost_per_chip: float = 0.5,
) -> ScalingComparison:
    """Compare building one ``total_area`` die against ``n_chips`` smaller ones."""
    if n_chips < 1:
        raise ValueError("need at least one chip")
    small_area = total_area_mm2 / n_chips
    return ScalingComparison(
        monolithic_area_mm2=total_area_mm2,
        n_chips=n_chips,
        monolithic_yield=die_yield(total_area_mm2, process),
        per_chip_yield=die_yield(small_area, process),
        monolithic_cost=cost_per_good_die(total_area_mm2, process),
        multi_chip_cost=n_chips * cost_per_good_die(small_area, process),
        packaging_cost=n_chips * packaging_cost_per_chip,
    )
