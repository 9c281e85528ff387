"""Memory clusters: the shared, software-connected SRAM pools of Fusion-3D.

Each cluster holds multiple SRAM arrays whose connections to the computing
modules are software-configurable, enabling a ping-pong scheme: while one
array is being filled by stage *k*, its twin is drained by stage *k+1*.
The paper's prototype has two clusters; the scaled-up chip has five.
:class:`MemoryClusterSpec` sizes them: the chip simulator
(:mod:`repro.sim.chip`) adds their capacity to its SRAM area and leakage.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class MemoryClusterSpec:
    """Static configuration of one memory cluster."""

    #: Number of independently connectable SRAM arrays in the cluster.
    n_arrays: int = 4
    #: Banks inside each array (the unit the hash tiling maps onto).
    banks_per_array: int = 8
    #: Capacity of each bank.
    bank_kb: float = 4.0

    @property
    def total_kb(self) -> float:
        """Capacity of the whole cluster, KB."""
        return self.n_arrays * self.banks_per_array * self.bank_kb

