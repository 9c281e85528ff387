"""The three stage simulators: sampling (T1), interpolation (T2/T4),
post-processing."""

import numpy as np
import pytest

from repro.nerf.hash_encoding import HashEncodingConfig
from repro.sim.interp_module import InterpModule, InterpModuleConfig
from repro.sim.postproc_module import PostProcModule, PostProcModuleConfig
from repro.sim.sampling_module import SamplingModule, SamplingModuleConfig
from repro.sim.trace import synthetic_trace


# -- Stage I -----------------------------------------------------------------


def _speedup(module, trace) -> float:
    """T1 ablation: naive cycles over optimized cycles (Table VI)."""
    naive = module.simulate(trace, optimized=False)
    return naive.cycles / module.simulate(trace, optimized=True).cycles


def test_optimized_sampling_faster_than_naive(sample_trace):
    module = SamplingModule()
    naive = module.simulate(sample_trace, optimized=False)
    opt = module.simulate(sample_trace, optimized=True)
    assert opt.cycles < naive.cycles


def test_sampling_speedup_larger_on_sparse_scenes(sample_trace, sparse_trace):
    """The Table VI anti-correlation with scene density."""
    module = SamplingModule()
    assert _speedup(module, sparse_trace) > _speedup(module, sample_trace)


def test_sampling_speedup_in_paper_band(sparse_trace, sample_trace):
    module = SamplingModule()
    for trace in (sparse_trace, sample_trace):
        assert 3.0 < _speedup(module, trace) < 40.0


def test_naive_pays_division_energy(sample_trace):
    module = SamplingModule()
    naive = module.simulate(sample_trace, optimized=False)
    opt = module.simulate(sample_trace, optimized=True)
    assert naive.ops.int32_div == 18 * sample_trace.n_rays
    assert opt.ops.int32_div == 0


def test_sampling_march_ops_scale_with_candidates(sample_trace):
    module = SamplingModule()
    report = module.simulate(sample_trace)
    assert report.ops.int16_mac == 3 * sample_trace.n_candidates
    assert report.ops.sram_write_bytes == 10 * sample_trace.n_samples


def test_sampling_utilization_bounded(sample_trace):
    module = SamplingModule()
    for optimized in (True, False):
        report = module.simulate(sample_trace, optimized=optimized)
        assert 0.0 <= report.utilization <= 1.0


def test_sampling_preproc_floor(rng):
    """With almost-empty rays, the pipelined preproc rate binds."""
    trace = synthetic_trace(10000, 0.2, 0.02, rng)
    config = SamplingModuleConfig()
    module = SamplingModule(config)
    report = module.simulate(trace)
    floor = 8.0 * trace.n_rays / config.normalized_tests_per_cycle
    assert report.cycles >= floor


def test_sampling_more_cores_helps_dense(rng):
    trace = synthetic_trace(2000, 20.0, 0.5, rng)
    few = SamplingModule(SamplingModuleConfig(n_cores=4)).simulate(trace)
    many = SamplingModule(SamplingModuleConfig(n_cores=16)).simulate(trace)
    assert many.cycles < few.cycles


# -- Stage II ----------------------------------------------------------------

@pytest.fixture
def interp():
    return InterpModule(
        InterpModuleConfig(n_cores=10),
        HashEncodingConfig(n_levels=16, log2_table_size=14),
    )


def test_interp_forward_cycles(interp):
    # 16 levels / 2 arrays = 8 cycles per sample per core.
    assert interp.forward_cycles_per_sample() == 8


def test_interp_training_adds_rmw(interp, sample_trace):
    inf = interp.simulate(sample_trace, training=False)
    trn = interp.simulate(sample_trace, training=True)
    # Training/inference cycle ratio ~3 (the paper's 591 vs 199 M/s).
    assert trn.cycles / inf.cycles == pytest.approx(3.0, rel=0.05)


def test_tdm_reduces_training_cycles(sample_trace):
    enc = HashEncodingConfig(n_levels=16, log2_table_size=14)
    with_tdm = InterpModule(InterpModuleConfig(use_tdm=True), enc)
    without = InterpModule(InterpModuleConfig(use_tdm=False), enc)
    assert (
        with_tdm.simulate(sample_trace, training=True).cycles
        < without.simulate(sample_trace, training=True).cycles
    )


def test_untiled_banking_inflates_cycles(sample_trace):
    enc = HashEncodingConfig(n_levels=16, log2_table_size=14)
    tiled = InterpModule(InterpModuleConfig(use_two_level_tiling=True), enc)
    untiled = InterpModule(InterpModuleConfig(use_two_level_tiling=False), enc)
    t = tiled.simulate(sample_trace)
    u = untiled.simulate(sample_trace)
    assert t.conflict_factor == 1.0
    assert u.conflict_factor > 1.0
    assert u.cycles > t.cycles


def test_interp_cycles_scale_with_cores(sample_trace):
    enc = HashEncodingConfig(n_levels=16, log2_table_size=14)
    five = InterpModule(InterpModuleConfig(n_cores=5), enc).simulate(sample_trace)
    ten = InterpModule(InterpModuleConfig(n_cores=10), enc).simulate(sample_trace)
    assert five.cycles == pytest.approx(2 * ten.cycles)


def test_interp_ops_accounting(interp, sample_trace):
    inf = interp.simulate(sample_trace, training=False)
    lookups = sample_trace.n_samples * 16
    assert inf.ops.fiem_mul == 8 * 2 * lookups
    assert inf.ops.sram_read_bytes == 8 * 2 * 2 * lookups
    assert inf.ops.sram_write_bytes == 0
    trn = interp.simulate(sample_trace, training=True)
    assert trn.ops.sram_write_bytes > 0


# -- Stage III ----------------------------------------------------------------

def test_postproc_cycles_linear_in_samples(sample_trace):
    module = PostProcModule(PostProcModuleConfig(mac_lanes=1000, macs_per_sample=500))
    report = module.simulate(sample_trace)
    assert report.cycles == pytest.approx(sample_trace.n_samples * 0.5)


def test_postproc_training_triples_macs(sample_trace):
    module = PostProcModule()
    inf = module.simulate(sample_trace)
    trn = module.simulate(sample_trace, training=True)
    assert trn.ops.fp16_mac == pytest.approx(3 * inf.ops.fp16_mac)
    assert trn.cycles == pytest.approx(3 * inf.cycles)


def test_postproc_exp_lookups_per_sample(sample_trace):
    report = PostProcModule().simulate(sample_trace)
    assert report.ops.exp_lookup == sample_trace.n_samples
