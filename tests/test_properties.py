"""Cross-cutting property-based tests on core invariants."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.volume_rendering import composite, segment_starts
from repro.sim.engine import (
    schedule_dynamic,
    schedule_lockstep_batches,
    flow_shop_makespan,
)

_durations = st.lists(
    st.lists(st.floats(0.1, 20.0), min_size=1, max_size=3),
    min_size=1,
    max_size=40,
)


@given(groups=_durations, n_cores=st.integers(4, 32))
@settings(max_examples=50, deadline=None)
def test_dynamic_schedule_bounds(groups, n_cores):
    """Any schedule is bounded below by work/cores and the longest job,
    and above by fully serial execution."""
    result = schedule_dynamic(groups, n_cores)
    total = sum(sum(g) for g in groups)
    longest = max(max(g) for g in groups)
    assert result.makespan >= total / n_cores - 1e-9
    assert result.makespan >= longest - 1e-9
    assert result.makespan <= total + 1e-9
    assert 0.0 <= result.utilization <= 1.0 + 1e-9


@given(groups=_durations, n_cores=st.integers(4, 32))
@settings(max_examples=50, deadline=None)
def test_dynamic_never_slower_than_lockstep(groups, n_cores):
    flat = np.array([d for g in groups for d in g])
    dynamic = schedule_dynamic([[d] for d in flat], n_cores)
    lockstep = schedule_lockstep_batches(flat, n_cores)
    assert dynamic.makespan <= lockstep.makespan + 1e-9


@given(
    cycles=st.lists(
        st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
        min_size=1,
        max_size=20,
    )
)
@settings(max_examples=50, deadline=None)
def test_pipeline_makespan_bounds(cycles):
    """Flow-shop makespan >= every stage's total and <= the serial sum."""
    arr = np.array(cycles)
    makespan = flow_shop_makespan(cycles, arr.shape[1])
    for s in range(arr.shape[1]):
        assert makespan >= arr[:, s].sum() - 1e-9
    assert makespan <= arr.sum() + 1e-9


@given(
    seed=st.integers(0, 10_000),
    max_samples=st.integers(4, 64),
)
@settings(max_examples=40, deadline=None)
def test_marcher_budget_and_bounds(seed, max_samples):
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-2.0, 3.0, (8, 3))
    directions = rng.normal(size=(8, 3))
    directions[np.linalg.norm(directions, axis=-1) < 1e-6] = [1.0, 0.0, 0.0]
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    batch = marcher.sample(origins, directions)
    assert np.all(batch.samples_per_ray <= max_samples)
    if len(batch):
        assert batch.positions.min() >= 0.0
        assert batch.positions.max() <= 1.0
        # ray_idx sorted, ts increasing within each ray
        fences = segment_starts(batch.ray_idx, batch.n_rays)
        for a, b in zip(fences[:-1], fences[1:]):
            assert np.all(np.diff(batch.ts[a:b]) > -1e-12)


@given(seed=st.integers(0, 10_000), background=st.floats(0.0, 1.0))
@settings(max_examples=40, deadline=None)
def test_composite_color_bounded_by_inputs(seed, background):
    """With colors in [0,1] and any densities, output stays in [0,1]."""
    rng = np.random.default_rng(seed)
    n = 30
    ray_idx = np.sort(rng.integers(0, 5, n))
    result = composite(
        rng.uniform(0, 100, n),
        rng.uniform(0, 1, (n, 3)),
        rng.uniform(0.001, 0.1, n),
        np.sort(rng.uniform(0, 1, n)),
        ray_idx,
        5,
        background=background,
    )
    assert result.colors.min() >= -1e-9
    assert result.colors.max() <= 1.0 + 1e-9
    assert np.all(result.opacity <= 1.0 + 1e-12)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_composite_energy_conservation(seed):
    """Weights plus residual transmittance account for all the light."""
    rng = np.random.default_rng(seed)
    n = 24
    ray_idx = np.sort(rng.integers(0, 4, n))
    result = composite(
        rng.uniform(0, 50, n),
        rng.uniform(0, 1, (n, 3)),
        rng.uniform(0.001, 0.1, n),
        np.sort(rng.uniform(0, 1, n)),
        ray_idx,
        4,
    )
    fences = segment_starts(ray_idx, 4)
    for r, (a, b) in enumerate(zip(fences[:-1], fences[1:])):
        if b == a:
            continue
        weight_sum = result.weights[a:b].sum()
        final_T = result.transmittance[b - 1] * (1.0 - result.alphas[b - 1])
        np.testing.assert_allclose(weight_sum + final_T, 1.0, rtol=1e-9)


@given(
    n_experts=st.integers(1, 6),
    background=st.floats(0.0, 1.0),
    seed=st.integers(0, 1000),
)
@settings(max_examples=40, deadline=None)
def test_moe_fusion_linearity(n_experts, background, seed):
    """The I/O module is exactly an adder: fusing is linear in every
    expert's output with unit coefficient."""
    from repro.nerf.moe import MoENeRF

    rng = np.random.default_rng(seed)
    colors = [rng.uniform(0, 1, (3, 3)) for _ in range(n_experts)]
    fused = MoENeRF.fuse(colors, background)
    manual = background + sum(c - background for c in colors)
    assert np.allclose(fused, manual)


@given(log2_a=st.integers(10, 20), log2_b=st.integers(10, 20))
@settings(max_examples=40, deadline=None)
def test_bandwidth_monotone_in_table_size(log2_a, log2_b):
    from repro.core.bandwidth import BandwidthModel, WorkloadVolume

    model = BandwidthModel()
    workload = WorkloadVolume.instant_training()
    small, big = sorted((log2_a, log2_b))
    bw_small = model.required_training_bandwidth_gbps(
        workload, model.table_bytes(small)
    )
    bw_big = model.required_training_bandwidth_gbps(
        workload, model.table_bytes(big)
    )
    assert bw_big >= bw_small - 1e-12


@given(
    fp=st.lists(st.floats(-50, 50, allow_nan=False, width=16), min_size=1, max_size=16),
    scale=st.integers(1, 64),
)
@settings(max_examples=40, deadline=None)
def test_fiem_distributes_over_addition(fp, scale):
    """FIEM(f, a+b) == FIEM(f, a) + FIEM(f, b) up to fp32 rounding —
    the linearity the interpolation adder tree relies on."""
    from repro.hw.arith import fiem_multiply

    f = np.array(fp, dtype=np.float16)
    a = np.full(len(fp), scale)
    b = np.full(len(fp), 2 * scale)
    combined = fiem_multiply(f, a + b)
    split = fiem_multiply(f, a) + fiem_multiply(f, b)
    np.testing.assert_allclose(combined, split, rtol=1e-6, atol=1e-6)
