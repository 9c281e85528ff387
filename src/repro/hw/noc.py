"""Area of the on-chip network connecting Fusion-3D's modules.

The NoC links the sampling, feature-interpolation, and post-processing
modules to the memory clusters and the interface/controller.  Sec. V-B's
ablation (Fig. 12(b)) compares a full crossbar against the one-to-one
wiring that the two-level hash tiling makes sufficient; the two area
functions here are that comparison.  Transfer cycles and energy are
billed by the stage models (``noc_bytes`` in
:class:`~repro.hw.energy.OpCounts`), not here.
"""

from __future__ import annotations

from .technology import Technology, TECH_28NM


def crossbar_area_mm2(n_ports: int, width_bits: int, tech: Technology = TECH_28NM) -> float:
    """Area of a full crossbar memory-access unit (the untiled baseline).

    A crossbar needs an ``n x n`` grid of ``width_bits``-wide muxes plus
    per-output arbitration; its area grows quadratically with port count.
    """
    mux_gates = n_ports * n_ports * width_bits * 3.5
    arb_gates = n_ports * 220
    return (mux_gates + arb_gates) / tech.logic.gates_per_mm2


def one_to_one_area_mm2(n_ports: int, width_bits: int, tech: Technology = TECH_28NM) -> float:
    """Area of the direct one-to-one connection enabled by hash tiling.

    With conflict-free bank mapping (Sec. V-B) every interpolation lane
    talks to exactly one bank, so only pipeline registers remain.
    """
    register_gates = n_ports * width_bits * 1.2
    return register_gates / tech.logic.gates_per_mm2
