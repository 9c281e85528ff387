"""Energy and area composition models."""

import numpy as np
import pytest

from repro.hw.area import AreaModel, stage2_sharing_ablation
from repro.hw.energy import EnergyModel, OpCounts


def test_opcounts_add_and_iadd():
    a = OpCounts(fp16_mac=10, sram_read_bytes=4)
    b = OpCounts(fp16_mac=5, int8_mac=2)
    c = a + b
    assert c.fp16_mac == 15
    assert c.int8_mac == 2
    assert c.sram_read_bytes == 4
    a += b
    assert a.fp16_mac == 15


def test_opcounts_scaled():
    a = OpCounts(fp16_mac=10, noc_bytes=6)
    s = a.scaled(2.5)
    assert s.fp16_mac == 25
    assert s.noc_bytes == 15
    assert a.fp16_mac == 10  # original untouched


def test_dynamic_energy_composition():
    model = EnergyModel()
    ops = OpCounts(fp16_mac=1e6)
    breakdown = model.dynamic_energy(ops)
    expected = 1e6 * model.tech.ops.mac_pj("fp16") * 1e-12
    assert breakdown.compute_j == pytest.approx(expected)
    assert breakdown.clock_ctrl_j == pytest.approx(
        expected * model.tech.logic.clock_overhead
    )
    assert breakdown.leakage_j == 0.0


def test_energy_includes_leakage():
    model = EnergyModel()
    ops = OpCounts()
    breakdown = model.energy(ops, runtime_s=1.0, sram_kb=1000.0, logic_mgates=10.0)
    assert breakdown.leakage_j > 0
    assert breakdown.total_j == breakdown.leakage_j


def test_energy_breakdown_total_and_dict():
    model = EnergyModel()
    ops = OpCounts(fp16_mac=1e6, sram_read_bytes=1e6, noc_bytes=1e5)
    breakdown = model.energy(ops, 1e-3, 100.0, 1.0)
    parts = (
        breakdown.compute_j
        + breakdown.sram_j
        + breakdown.noc_j
        + breakdown.clock_ctrl_j
        + breakdown.leakage_j
    )
    assert breakdown.total_j == pytest.approx(parts)


def test_sram_energy_read_write_asymmetry():
    model = EnergyModel()
    read = model.dynamic_energy(OpCounts(sram_read_bytes=1e6)).sram_j
    write = model.dynamic_energy(OpCounts(sram_write_bytes=1e6)).sram_j
    assert write > read


def test_area_model_module_composition():
    area = AreaModel()
    module = area.module("test", gates=2.8e6, sram_kb=100.0)
    assert module.logic_mm2 == pytest.approx(1.0)
    assert module.sram_mm2 == pytest.approx(0.4)
    assert module.total_mm2 == pytest.approx(1.4)


def test_chip_total_includes_floorplan_overhead():
    area = AreaModel()
    modules = [area.module("a", 2.8e6, 0.0)]
    assert AreaModel.chip_total_mm2(modules) == pytest.approx(1.12)


def test_breakdown_sums_to_one():
    area = AreaModel()
    modules = [
        area.module("a", 1e6, 10.0),
        area.module("b", 2e6, 50.0),
    ]
    breakdown = AreaModel.breakdown(modules)
    assert sum(breakdown.values()) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        AreaModel.breakdown([area.module("z", 0.0, 0.0)])


def test_stage2_sharing_matches_paper():
    """Sec. IV-B3: 87.4% directly shared, 12.6% reused."""
    sharing = stage2_sharing_ablation()
    assert sharing["shared_fraction"] == pytest.approx(0.874, abs=0.01)
    assert sharing["shared_fraction"] + sharing["reconfigured_fraction"] == pytest.approx(1.0)
