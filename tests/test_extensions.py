"""Extension features: DVFS technology scaling, the chiplet system, and
the extra experiment runners built on them."""

import numpy as np
import pytest

from repro.core.bandwidth import BandwidthModel
from repro.experiments import runner
from repro.hw.technology import TECH_28NM, technology_at_voltage
from repro.sim.chiplet import ChipletConfig, ChipletSystem
from repro.sim.trace import synthetic_trace


# -- technology_at_voltage ----------------------------------------------------

def test_voltage_scaling_identity_at_nominal():
    tech = technology_at_voltage(TECH_28NM, 0.95)
    assert tech.clock_hz == pytest.approx(600e6)
    assert tech.ops.fp16_mul_pj == pytest.approx(TECH_28NM.ops.fp16_mul_pj)


def test_voltage_scaling_quadratic_energy():
    low = technology_at_voltage(TECH_28NM, 0.7)
    ratio = low.ops.fp16_mul_pj / TECH_28NM.ops.fp16_mul_pj
    assert ratio == pytest.approx((0.7 / 0.95) ** 2)
    assert low.sram.read_pj_per_byte < TECH_28NM.sram.read_pj_per_byte


def test_voltage_scaling_slows_clock():
    low = technology_at_voltage(TECH_28NM, 0.7)
    high = technology_at_voltage(TECH_28NM, 1.05)
    assert low.clock_hz < TECH_28NM.clock_hz < high.clock_hz


def test_voltage_scaling_rejects_subthreshold():
    with pytest.raises(ValueError):
        technology_at_voltage(TECH_28NM, 0.3)
    with pytest.raises(ValueError):
        technology_at_voltage(TECH_28NM, -1.0)


def test_low_voltage_is_more_efficient():
    """The DVFS envelope: lower V means fewer samples/s but better J/sample."""
    from dataclasses import replace

    from repro.sim.chip import ChipConfig, SingleChipAccelerator

    trace = synthetic_trace(2000, 13.0, 0.3, np.random.default_rng(0))
    nominal = SingleChipAccelerator(ChipConfig.scaled()).simulate(trace)
    low_tech = technology_at_voltage(TECH_28NM, 0.7)
    low = SingleChipAccelerator(
        replace(ChipConfig.scaled(), tech=low_tech)
    ).simulate(trace)
    assert low.samples_per_second < nominal.samples_per_second
    assert low.energy_per_sample_j < nominal.energy_per_sample_j


# -- chiplet system ------------------------------------------------------------

@pytest.fixture(scope="module")
def chiplet_trace():
    return synthetic_trace(4000, 13.0, 0.3, np.random.default_rng(1))


@pytest.fixture(scope="module")
def chiplet():
    return ChipletSystem(ChipletConfig())


def test_resident_model_needs_one_pass(chiplet, chiplet_trace):
    bm = BandwidthModel()
    report = chiplet.simulate(chiplet_trace, bm.table_bytes(14))
    assert report.shard_passes == 1
    assert report.io_buffer_bytes == 0.0
    assert report.stream_s == 0.0
    assert report.temporal_reuse_overhead == pytest.approx(1.0)


def test_oversized_model_shards(chiplet, chiplet_trace):
    bm = BandwidthModel()
    report = chiplet.simulate(chiplet_trace, bm.table_bytes(18))
    assert report.shard_passes == 4
    assert report.io_buffer_bytes > 0
    assert report.temporal_reuse_overhead >= 4.0


def test_io_area_grows_with_model(chiplet):
    bm = BandwidthModel()
    small = chiplet.io_module_area_mm2(bm.table_bytes(14))
    large = chiplet.io_module_area_mm2(bm.table_bytes(19))
    assert large > 10 * small


def test_off_package_budget_held(chiplet, chiplet_trace):
    bm = BandwidthModel()
    report = chiplet.simulate(chiplet_trace, bm.table_bytes(19), training=True)
    assert report.off_package_gbps <= 0.625


def test_chiplet_config_validation():
    with pytest.raises(ValueError):
        ChipletConfig(n_chips=0)


# -- new experiment runners ------------------------------------------------------

def test_registry_includes_extensions():
    for name in ("vf_scaling", "scheduler_study", "chiplet_scaling", "moe_scaling"):
        assert name in runner.REGISTRY
    assert len(runner.REGISTRY) == 31


def test_vf_scaling_experiment():
    result = runner.run_experiment("vf_scaling", quick=True)
    s = result.summary
    assert s["clock_at_0.95v_mhz"] == 600
    assert s["throughput_monotone_in_voltage"]
    # Efficiency is best at the lowest usable voltage.
    assert s["best_efficiency_voltage"] == 0.6


def test_scheduler_study_experiment():
    result = runner.run_experiment("scheduler_study", quick=True)
    assert result.summary["dynamic_always_best"]
    assert result.summary["mean_gain_vs_lockstep"] > 1.2


def test_chiplet_scaling_experiment():
    result = runner.run_experiment("chiplet_scaling", quick=True)
    s = result.summary
    assert s["overhead_monotone"]
    assert s["area_monotone"]
    assert s["off_package_fixed_at_gbps"] == 0.6


# -- gradient checker + power breakdown -------------------------------------------

def test_gradcheck_passes_on_reference_models():
    from gradcheck import check_model_gradients
    from repro.nerf import (
        DenseGridConfig,
        DenseGridField,
        HashEncodingConfig,
        InstantNGPModel,
        ModelConfig,
    )

    ngp = InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=3, log2_table_size=8, base_resolution=4,
                finest_resolution=16,
            ),
            hidden_width=16,
            geo_features=8,
        )
    )
    report = check_model_gradients(ngp)
    assert report.passed
    assert report.checked > 10
    dense = DenseGridField(DenseGridConfig(resolution=8, n_features=4, hidden_width=16))
    assert check_model_gradients(dense).passed


def test_gradcheck_detects_broken_backward():
    from gradcheck import check_model_gradients
    from repro.nerf import HashEncodingConfig, InstantNGPModel, ModelConfig

    class Broken(InstantNGPModel):
        def backward(self, grad_sigma, grad_rgb, cache):
            grads = super().backward(grad_sigma, grad_rgb, cache)
            grads["density.w0"] = grads["density.w0"] * 3.0  # wrong scale
            return grads

    model = Broken(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=3, log2_table_size=8, base_resolution=4,
                finest_resolution=16,
            ),
            hidden_width=16,
            geo_features=8,
        )
    )
    report = check_model_gradients(model)
    assert not report.passed
    assert report.worst_parameter == "density.w0"


def test_power_breakdown_sums_to_chip_power():
    from repro.sim import ChipConfig, SingleChipAccelerator

    trace = synthetic_trace(4000, 13.0, 0.3, np.random.default_rng(2))
    chip = SingleChipAccelerator(ChipConfig.scaled())
    breakdown = chip.power_breakdown(trace)
    report = chip.simulate(trace)
    assert sum(breakdown.values()) == pytest.approx(report.power_w, rel=0.02)
    # Stage III's wide MAC array dominates dynamic power.
    assert breakdown["postproc"] > breakdown["sampling"]


def test_power_breakdown_requires_work():
    from repro.sim import ChipConfig, SingleChipAccelerator
    from repro.sim.trace import WorkloadTrace

    chip = SingleChipAccelerator(ChipConfig.scaled())
    empty = WorkloadTrace(
        n_rays=0, pair_durations=[], pairs_per_ray=[], n_samples=0, n_candidates=0
    )
    with pytest.raises(ValueError):
        chip.power_breakdown(empty)


def test_experiment_json_round_trip():
    import json

    result = runner.run_experiment("fig6", quick=True)
    payload = json.loads(result.to_json())
    assert payload["experiment"] == result.experiment
    assert len(payload["rows"]) == len(result.rows)
    assert "area_saving_measured" in payload["summary"]
