"""Off-chip and chip-to-chip link models.

Three substrates matter to the paper:

* the **USB 3.2 Gen 1 port** (5 Gbps = 0.625 GB/s) that edge devices
  expose for a plug-in accelerator — the hard budget Fusion-3D lives in;
* the **8-layer PCB traces** connecting the four chips to the FPGA I/O
  module in the multi-chip prototype (characterized at 0.6 GB/s per link,
  2.4 GB/s aggregate intra-system);
* the **chiplet in-package links** of the Sec. VIII discussion, with far
  higher bandwidth and lower pJ/bit.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class LinkSpec:
    """One off-chip link."""

    name: str
    bandwidth_gbps: float  # GB/s usable payload bandwidth
    energy_pj_per_byte: float
    latency_ns: float

    def transfer_s(self, nbytes: float) -> float:
        """Seconds to move ``nbytes`` over the link (bandwidth + latency)."""
        if nbytes < 0:
            raise ValueError("nbytes must be non-negative")
        if nbytes == 0:
            return 0.0
        return self.latency_ns * 1e-9 + nbytes / (self.bandwidth_gbps * 1e9)

    def transfer_energy_j(self, nbytes: float) -> float:
        """Joules to move ``nbytes`` over the link."""
        return nbytes * self.energy_pj_per_byte * 1e-12


#: USB 3.2 Gen 1 (5 Gbps line rate = 0.625 GB/s), the host-side budget.
USB_3_2_GEN1 = LinkSpec(
    name="USB 3.2 Gen 1",
    bandwidth_gbps=0.625,
    energy_pj_per_byte=40.0,  # ~5 pJ/bit for a SuperSpeed PHY
    latency_ns=1500.0,
)

#: One PCB trace between a Fusion-3D chip and the FPGA I/O module.
PCB_CHIP_LINK = LinkSpec(
    name="PCB chip-to-chip",
    bandwidth_gbps=0.6,
    energy_pj_per_byte=16.0,  # ~2 pJ/bit PCB SerDes (Poulton et al.)
    latency_ns=25.0,
)

#: An in-package chiplet link (InFO-class; Lin et al., Hot Chips'16).
CHIPLET_LINK = LinkSpec(
    name="chiplet in-package",
    bandwidth_gbps=89.6,
    energy_pj_per_byte=0.5,  # 0.062 pJ/bit
    latency_ns=4.0,
)

#: LPDDR4-1866: what Instant-3D assumed for off-chip DRAM.
LPDDR4_1866 = LinkSpec(
    name="LPDDR4-1866",
    bandwidth_gbps=59.7,
    energy_pj_per_byte=32.0,  # ~4 pJ/bit DRAM interface
    latency_ns=80.0,
)


def degrade(link: LinkSpec, bandwidth_factor: float) -> LinkSpec:
    """A faulted copy of ``link`` at a fraction of its bandwidth.

    Models a marginal PCB trace or SerDes lane that trained down to a
    lower rate: payload bandwidth scales by ``bandwidth_factor`` in
    (0, 1]; per-byte energy and latency are unchanged.  Used by the
    fault-injection layer (:class:`repro.robustness.ChipletFaultConfig`);
    a factor of 1.0 returns the link itself.
    """
    if not 0.0 < bandwidth_factor <= 1.0:
        raise ValueError("bandwidth_factor must be in (0, 1]")
    if bandwidth_factor == 1.0:
        return link
    return LinkSpec(
        name=f"{link.name} (degraded x{bandwidth_factor:g})",
        bandwidth_gbps=link.bandwidth_gbps * bandwidth_factor,
        energy_pj_per_byte=link.energy_pj_per_byte,
        latency_ns=link.latency_ns,
    )


def required_bandwidth_gbps(nbytes: float, deadline_s: float) -> float:
    """Bandwidth needed to move ``nbytes`` within ``deadline_s``."""
    if deadline_s <= 0:
        raise ValueError("deadline must be positive")
    return nbytes / deadline_s / 1e9
