"""Memory clusters, NoC area, links, technology curves, yield model."""

import numpy as np
import pytest

from repro.hw.interconnect import (
    CHIPLET_LINK,
    PCB_CHIP_LINK,
    USB_3_2_GEN1,
    required_bandwidth_gbps,
)
from repro.hw.memory_cluster import MemoryClusterSpec
from repro.hw.noc import crossbar_area_mm2, one_to_one_area_mm2
from repro.hw.technology import TECH_28NM, Technology
from repro.hw.yield_model import (
    ProcessDefects,
    compare_scaling,
    cost_per_good_die,
    cost_per_good_mm2,
    die_yield,
    dies_per_wafer,
)


# -- memory clusters -------------------------------------------------------

def test_cluster_capacity():
    spec = MemoryClusterSpec(n_arrays=2, banks_per_array=8, bank_kb=4.0)
    assert spec.total_kb == 64.0


# -- NoC --------------------------------------------------------------------



def test_crossbar_vs_one_to_one_area():
    """Fig. 12(b): the direct connection is dramatically smaller."""
    xbar = crossbar_area_mm2(8, 32)
    direct = one_to_one_area_mm2(8, 32)
    assert direct < xbar / 5


def test_crossbar_area_quadratic_in_ports():
    small = crossbar_area_mm2(4, 32)
    big = crossbar_area_mm2(8, 32)
    # Mux area quadruples; the linear arbitration term softens it a bit.
    assert big > 3.0 * small


# -- off-chip links ----------------------------------------------------------

def test_usb_budget_value():
    assert USB_3_2_GEN1.bandwidth_gbps == pytest.approx(0.625)


def test_link_transfer_time():
    t = PCB_CHIP_LINK.transfer_s(0.6e9)
    assert t == pytest.approx(1.0, rel=1e-3)
    assert PCB_CHIP_LINK.transfer_s(0) == 0.0
    with pytest.raises(ValueError):
        PCB_CHIP_LINK.transfer_s(-1)


def test_link_energy():
    assert CHIPLET_LINK.transfer_energy_j(1e9) < PCB_CHIP_LINK.transfer_energy_j(1e9)


def test_fits_link():
    # 1 GB in 2 s = 0.5 GB/s: fits USB, 10 GB in 2 s does not.
    assert required_bandwidth_gbps(1e9, 2.0) == pytest.approx(0.5)
    assert required_bandwidth_gbps(1e9, 2.0) <= USB_3_2_GEN1.bandwidth_gbps
    assert required_bandwidth_gbps(10e9, 2.0) > USB_3_2_GEN1.bandwidth_gbps
    with pytest.raises(ValueError):
        required_bandwidth_gbps(1e9, 0.0)


# -- technology ---------------------------------------------------------------

def test_mac_energy_ordering():
    ops = TECH_28NM.ops
    assert ops.mac_pj("int8") < ops.mac_pj("int16") < ops.mac_pj("fp16") < ops.mac_pj("fp32")
    with pytest.raises(ValueError):
        ops.mac_pj("int4")


def test_vf_curve_anchored_and_monotone():
    tech = Technology()
    assert tech.frequency_at_voltage(0.95) == pytest.approx(600e6, rel=1e-9)
    freqs = [tech.frequency_at_voltage(v) for v in (0.5, 0.7, 0.9, 1.05)]
    assert all(b > a for a, b in zip(freqs, freqs[1:]))
    assert tech.frequency_at_voltage(0.3) == 0.0


def test_cycle_time():
    assert TECH_28NM.cycle_s == pytest.approx(1.0 / 600e6)


# -- yield model ---------------------------------------------------------------

def test_yield_decreases_with_area():
    assert die_yield(10.0) > die_yield(100.0) > die_yield(600.0)


def test_paper_yield_anchor():
    """The scaled RT-NeRF example: 4 x 18.85 mm^2 yields ~72%."""
    assert die_yield(4 * 18.85) == pytest.approx(0.72, abs=0.02)


def test_yield_validates_area():
    with pytest.raises(ValueError):
        die_yield(0.0)


def test_dies_per_wafer_decreasing():
    assert dies_per_wafer(10.0) > dies_per_wafer(100.0) > 0


def test_cost_per_good_mm2_grows_with_area():
    assert cost_per_good_mm2(600.0) > cost_per_good_mm2(20.0)


def test_cost_for_oversized_die_raises():
    with pytest.raises(ValueError):
        cost_per_good_die(80000.0)


def test_compare_scaling_yields():
    cmp = compare_scaling(total_area_mm2=75.4, n_chips=4)
    assert cmp.per_chip_yield > cmp.monolithic_yield
    assert cmp.multi_chip_cost < 4 * cost_per_good_die(75.4)


def test_compare_scaling_validation():
    with pytest.raises(ValueError):
        compare_scaling(100.0, 0)


def test_custom_process_defects():
    dirty = ProcessDefects(density_per_mm2=0.05)
    assert die_yield(100.0, dirty) < die_yield(100.0)


def test_yield_rejects_negative_area():
    with pytest.raises(ValueError):
        die_yield(-1.0)
    with pytest.raises(ValueError):
        dies_per_wafer(-1.0)
    with pytest.raises(ValueError):
        dies_per_wafer(0.0)


def test_yield_stays_in_unit_interval():
    # Even absurd inputs must produce a probability, never over/underflow.
    assert 0.0 < die_yield(1e-6) <= 1.0
    assert 0.0 < die_yield(5000.0) < 1.0
    filthy = ProcessDefects(density_per_mm2=100.0)
    assert 0.0 < die_yield(100.0, filthy) < 1e-3


def test_oversized_die_yields_zero_per_wafer():
    # A die larger than the wafer: zero gross dies, not a negative count.
    assert dies_per_wafer(80000.0) == 0


def test_compare_scaling_single_chip_degenerate():
    cmp = compare_scaling(total_area_mm2=75.4, n_chips=1)
    assert cmp.per_chip_yield == pytest.approx(cmp.monolithic_yield)
    assert cmp.multi_chip_cost == pytest.approx(cmp.monolithic_cost)
    assert cmp.cost_saving < 0  # packaging makes 1-chip "multi" strictly worse
