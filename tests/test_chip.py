"""The single-chip accelerator: calibration against the paper's silicon-
derived numbers (Table III / Figs. 9-10)."""

import numpy as np
import pytest

from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.trace import synthetic_trace


@pytest.fixture(scope="module")
def paper_trace():
    """The paper's average workload: ~13 samples/ray on synthetic-8."""
    return synthetic_trace(
        20000, 13.0, 0.3, np.random.default_rng(0)
    )


@pytest.fixture(scope="module")
def scaled_chip():
    return SingleChipAccelerator(ChipConfig.scaled())


def test_inference_throughput_near_paper(scaled_chip, paper_trace):
    report = scaled_chip.simulate(paper_trace)
    assert report.samples_per_second / 1e6 == pytest.approx(591, rel=0.10)


def test_training_throughput_near_paper(scaled_chip, paper_trace):
    report = scaled_chip.simulate(paper_trace, training=True)
    assert report.samples_per_second / 1e6 == pytest.approx(199, rel=0.10)


def test_inference_energy_near_paper(scaled_chip, paper_trace):
    report = scaled_chip.simulate(paper_trace)
    assert report.energy_per_sample_j * 1e9 == pytest.approx(2.5, rel=0.15)


def test_training_energy_near_paper(scaled_chip, paper_trace):
    report = scaled_chip.simulate(paper_trace, training=True)
    assert report.energy_per_sample_j * 1e9 == pytest.approx(7.4, rel=0.15)


def test_die_area_near_paper(scaled_chip):
    assert scaled_chip.die_area_mm2() == pytest.approx(8.7, rel=0.10)


def test_sram_matches_paper(scaled_chip):
    assert scaled_chip.config.sram_kb == pytest.approx(1099, rel=0.01)


def test_power_in_realistic_band(scaled_chip, paper_trace):
    for training in (False, True):
        report = scaled_chip.simulate(paper_trace, training=training)
        assert 1.0 < report.power_w < 2.0


def test_interp_is_designed_bottleneck(scaled_chip, paper_trace):
    """The methodology: Stage II sets the pace; I and III keep up."""
    for training in (False, True):
        report = scaled_chip.simulate(paper_trace, training=training)
        cycles = report.stage_cycles()
        assert max(cycles, key=cycles.get) == "interp"


def test_prototype_half_the_interp_cores(paper_trace):
    proto = SingleChipAccelerator(ChipConfig.prototype())
    scaled = SingleChipAccelerator(ChipConfig.scaled())
    p = proto.simulate(paper_trace)
    s = scaled.simulate(paper_trace)
    assert p.samples_per_second == pytest.approx(s.samples_per_second / 2, rel=0.1)
    assert proto.die_area_mm2() < scaled.die_area_mm2()


def test_prototype_meets_realtime_and_instant_targets(paper_trace):
    """36 FPS rendering and <=2 s training (the paper's prototype point).

    The prototype trains its own half-size model (5 of the 10 feature
    tables), so its instant-training budget is half the scaled chip's
    398 M samples.
    """
    from repro.core.metrics import fps_from_throughput

    proto = SingleChipAccelerator(ChipConfig.prototype())
    inf = proto.simulate(paper_trace)
    assert fps_from_throughput(inf.samples_per_second) >= 30.0
    trn = proto.simulate(paper_trace, training=True)
    seconds = 199e6 / trn.samples_per_second
    assert seconds <= 2.2  # paper: 1.8 s on the prototype


def test_workload_scale_is_linear(scaled_chip, paper_trace):
    one = scaled_chip.simulate(paper_trace)
    ten = scaled_chip.simulate(paper_trace, workload_scale=10.0)
    assert ten.total_cycles == pytest.approx(10 * one.total_cycles, rel=1e-6)
    assert ten.n_samples == 10 * one.n_samples
    assert ten.energy_j == pytest.approx(10 * one.energy_j, rel=0.01)
    assert ten.samples_per_second == pytest.approx(one.samples_per_second, rel=1e-6)


def test_workload_scale_validation(scaled_chip, paper_trace):
    with pytest.raises(ValueError):
        scaled_chip.simulate(paper_trace, workload_scale=0.0)


def test_naive_sampling_option_slows_chip(scaled_chip, paper_trace):
    opt = scaled_chip.simulate(paper_trace)
    naive = scaled_chip.simulate(paper_trace, optimized_sampling=False)
    assert naive.total_cycles >= opt.total_cycles


def test_stage_cycles_reported(scaled_chip, paper_trace):
    report = scaled_chip.simulate(paper_trace)
    cycles = report.stage_cycles()
    assert set(cycles) == {"sampling", "interp", "postproc"}
    assert all(v > 0 for v in cycles.values())
    # Pipelining: the makespan sits between the bottleneck and the sum.
    assert max(cycles.values()) <= report.total_cycles <= sum(cycles.values())


def test_area_breakdown_modules(scaled_chip):
    modules = scaled_chip.area()
    names = {m.name for m in modules}
    assert names == {"sampling", "interp", "postproc", "memory_clusters", "noc_ctrl"}
    assert all(m.total_mm2 > 0 for m in modules)


def test_energy_per_sample_zero_guard():
    from repro.sim.chip import ChipReport

    report = ChipReport(
        config_name="x", mode="inference", n_samples=0, n_rays=0, stages=[],
        total_cycles=0.0, runtime_s=0.0, energy_j=0.0, power_w=0.0,
    )
    assert report.samples_per_second == 0.0
    assert report.energy_per_sample_j == 0.0
