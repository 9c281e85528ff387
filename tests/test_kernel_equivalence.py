"""Equivalence oracle for the hot-path kernel overhaul.

Every optimized kernel is checked against its frozen pre-overhaul
reference (:mod:`repro.perf.reference`): bit-identical where the math
reassociates nothing, PSNR-identical where it does (ERT).  Duplicate
indices get explicit coverage — they are exactly where a wrong scatter
would silently drop contributions.
"""

import numpy as np
import pytest

from repro.nerf.aabb import intersect_unit_cube
from repro.nerf.early_termination import render_batch_adaptive
from repro.nerf.hash_encoding import HashEncoding, HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.precision import LowPrecisionField
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.volume_rendering import composite, psnr, segment_sum
from repro.perf import reference
from repro.pipeline import wrap_model
from repro.sim.engine import schedule_dynamic
from repro.sim.sampling_module import SamplingModuleConfig
from repro.sim.trace import distribute_samples_over_pairs, synthetic_trace
from repro.sim.trace_traversal import cells_per_ray


#: The seeded sweep every hash-encoding kernel is checked over.  Tiny
#: tables (2**4 entries) make hash collisions, and so duplicate scatter
#: indices, the common case.
SWEEP_CONFIGS = [
    HashEncodingConfig(
        n_levels=n_levels, n_features=n_features, log2_table_size=log2_t,
        base_resolution=4, finest_resolution=64,
    )
    for n_levels in (1, 2, 4, 8)
    for n_features in (1, 2, 4)
    for log2_t in (4, 10, 14)
]
SWEEP_SIZES = (0, 1, 7, 257, 4096)


def _sweep_points(n, dtype, seed):
    """``n`` seeded points; from ``n = 3`` on, the last two sit at 0 and
    at the largest value below 1."""
    points = np.random.default_rng(seed).random((n, 3)).astype(dtype)
    if n >= 3:
        points[-2] = 0.0
        points[-1] = np.nextafter(dtype(1), dtype(0))
    return points


def _encoding_pair(config, seed):
    """Optimized and reference encodings with identical tables."""
    opt = HashEncoding(config, rng=np.random.default_rng(seed))
    ref = reference.ReferenceHashEncoding(config, rng=np.random.default_rng(seed))
    assert np.array_equal(opt.tables, ref.tables)
    return opt, ref


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_hash_forward_bit_identical(dtype):
    for seed, config in enumerate(SWEEP_CONFIGS):
        opt, ref = _encoding_pair(config, seed)
        for n in SWEEP_SIZES:
            where = (config, n)
            points = _sweep_points(n, dtype, seed)
            f_opt, t_opt = opt.forward(points)
            f_ref, t_ref = ref.forward(points)
            assert f_opt.dtype == f_ref.dtype and np.array_equal(f_opt, f_ref), where
            assert t_opt.n_points == n and len(t_opt.indices) == config.n_levels
            for level in range(config.n_levels):
                corners, _, _ = opt.level_lookup(points, level)
                got_by_name = {
                    "indices": t_opt.indices[level],
                    "weights": t_opt.weights[level],
                    "corners": corners,
                }
                for name, got in got_by_name.items():
                    want = getattr(t_ref, name)[level]
                    assert got.dtype == want.dtype, (where, level, name)
                    assert np.array_equal(got, want), (where, level, name)


def test_hash_backward_bit_identical_on_duplicate_indices():
    rng = np.random.default_rng(11)
    for seed, config in enumerate(SWEEP_CONFIGS):
        opt, ref = _encoding_pair(config, seed)
        # Duplicate-heavy: many points in one cell, so many samples
        # scatter into the same table rows.
        points = rng.random((300, 3))
        points[:150] = points[0]
        _, t_opt = opt.forward(points)
        _, t_ref = ref.forward(points)
        grad = rng.normal(size=(300, config.output_dim))
        assert np.array_equal(
            opt.backward(grad, t_opt), ref.backward(grad, t_ref)
        ), config


def test_hash_backward_bit_identical_on_float32_snapshot():
    """The training step's datapath: a float32 snapshot's encoding
    traces float32 points and scatters float32 upstream gradients into
    float64 table gradients, bit-identical to the per-level reference
    over the master's float64 tables."""
    rng = np.random.default_rng(12)
    config = HashEncodingConfig(
        n_levels=4, n_features=2, log2_table_size=4,
        base_resolution=4, finest_resolution=64,
    )
    model = InstantNGPModel(ModelConfig(encoding=config), seed=3)
    snapshot = LowPrecisionField(model, mode="full")
    ref = reference.ReferenceHashEncoding(config)
    ref.tables = model.encoding.tables
    points = rng.random((300, 3)).astype(np.float32)
    points[:150] = points[0]
    grad = rng.normal(size=(300, config.output_dim)).astype(np.float32)
    _, t_opt = snapshot.encoding.forward(points)
    _, t_ref = ref.forward(points)
    got = snapshot.encoding.backward(grad, t_opt)
    want = ref.backward(grad, t_ref)
    assert got.dtype == want.dtype == np.float64
    assert np.array_equal(got, want)


def test_fp16_forward_matches_float32_per_level_blend():
    """The fp16 snapshot's encoding runs the training kernel on its
    rounded float32 tables, on the float32 points the snapshot casts
    its inputs to: bit-identical to the per-level reference over the
    same tables."""
    for seed, config in enumerate(SWEEP_CONFIGS):
        model = InstantNGPModel(
            ModelConfig(encoding=config, hidden_width=4, geo_features=2),
            seed=seed,
        )
        fp16 = LowPrecisionField(model, mode="fp16").encoding
        assert fp16.tables.dtype == np.float32
        assert np.array_equal(
            fp16.tables, model.encoding.tables.astype(np.float16)
        )
        for dtype in (np.float64, np.float32):
            for n in SWEEP_SIZES:
                points = _sweep_points(n, dtype, seed).astype(np.float32)
                features, _ = fp16.forward(points)
                expected, _ = reference.hash_forward_reference(fp16, points)
                assert features.dtype == np.float32
                assert np.array_equal(features, expected), (config, n, dtype)


def test_segment_sum_bit_identical_to_add_at_on_duplicates():
    rng = np.random.default_rng(5)
    n, size = 5_000, 40
    index = np.sort(rng.integers(0, size, size=n))  # every bin duplicated
    flat = rng.normal(size=n)
    stacked = rng.normal(size=(n, 3))
    assert np.array_equal(
        segment_sum(flat, index, size),
        reference.scatter_add_reference(flat, index, size),
    )
    assert np.array_equal(
        segment_sum(stacked, index, size),
        reference.scatter_add_reference(stacked, index, size),
    )


def test_pair_durations_bit_identical():
    rng = np.random.default_rng(13)
    n_rays = 64
    pairs_per_ray = rng.integers(0, 4, size=n_rays)
    pair_ray_idx = np.repeat(np.arange(n_rays), pairs_per_ray)
    spans = rng.random(pair_ray_idx.shape[0])
    # Include zero-span pairs to exercise the guarded division.
    spans[::5] = 0.0
    kept = rng.integers(0, 40, size=n_rays)
    opt = distribute_samples_over_pairs(pair_ray_idx, spans, kept, n_rays)
    ref = reference.pair_durations_reference(pair_ray_idx, spans, kept, n_rays)
    assert opt.dtype == np.float64
    assert opt.tobytes() == np.array(
        [d for pairs in ref for d in pairs], dtype=np.float64
    ).tobytes()
    counts = np.bincount(pair_ray_idx, minlength=n_rays)
    assert counts.tolist() == [len(pairs) for pairs in ref]


def _schedule_sweep(seed):
    """``(groups, n_cores)`` cases of one seed: tie-heavy ray widths up
    to ``k == n_cores`` (empty rays included) over a few distinct
    durations, continuous durations, and a Stage I trace's cube-pairs."""
    rng = np.random.default_rng(seed)
    cases = []
    for n_cores in (1, 2, 3, 5, 16, 17, 32):
        widths = rng.integers(0, n_cores + 1, size=48)
        cases.append(
            ([(0.5 * rng.integers(1, 4, size=k)).tolist() for k in widths], n_cores)
        )
        cases.append(([rng.random(k).tolist() for k in widths], n_cores))
    cfg = SamplingModuleConfig()
    trace = synthetic_trace(96, 6.0, 0.3, rng)
    groups = trace.ray_groups(
        cfg.pair_setup_cycles + trace.pair_durations / cfg.points_per_core_cycle
    )
    cases.append((groups, cfg.n_cores))
    return cases


@pytest.mark.parametrize("seed", range(4))
def test_dynamic_schedule_bit_identical_to_core_pool_oracle(seed):
    for groups, n_cores in _schedule_sweep(seed):
        opt = schedule_dynamic(groups, n_cores)
        ref = reference.schedule_dynamic_reference(groups, n_cores)
        assert opt.makespan == ref.makespan, (seed, n_cores)
        assert opt.busy_cycles == ref.busy_cycles, (seed, n_cores)
        assert opt.n_cores == ref.n_cores
    for schedule in (schedule_dynamic, reference.schedule_dynamic_reference):
        with pytest.raises(ValueError):
            schedule([[1.0], [1.0, 1.0, 1.0]], 2)


def test_traverse_grid_identical_to_boolean_mask_reference():
    def traverse_reference(origins, directions, grid, t_starts, t_ends):
        # The DDA walk the closed-form count replaced, in its
        # pre-compaction form: full-width boolean masks and a t copy
        # per step.
        origins = np.atleast_2d(origins)
        directions = np.atleast_2d(directions)
        t_starts = np.asarray(t_starts, dtype=np.float64).reshape(-1)
        t_ends = np.asarray(t_ends, dtype=np.float64).reshape(-1)
        n = origins.shape[0]
        res = grid.resolution
        counts = np.zeros(n, dtype=np.int64)
        eps = 1e-9
        t = np.maximum(t_starts, 0.0) + eps
        active = t < t_ends
        safe_dir = np.where(np.abs(directions) < 1e-12, 1e-12, directions)
        for _ in range(3 * res + 2):
            if not active.any():
                break
            counts[active] += 1
            pos = origins[active] + t[active, None] * directions[active]
            cell = np.clip(np.floor(pos * res), 0, res - 1)
            next_boundary = np.where(
                safe_dir[active] > 0, (cell + 1) / res, cell / res
            )
            t_axis = (next_boundary - origins[active]) / safe_dir[active]
            t_new = np.maximum(t_axis.min(axis=1), t[active]) + eps
            t_full = t.copy()
            t_full[active] = t_new
            t = t_full
            active = active & (t < t_ends)
        return counts

    rng = np.random.default_rng(17)
    grid = OccupancyGrid(resolution=16)
    n = 200
    origins = rng.random((n, 3))
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    t_starts = np.zeros(n)
    t_ends = rng.uniform(0.0, 1.8, size=n)
    # Past the cube's exit the walk steps 1e-9 at a time along the
    # clamped boundary cell until its step cap, 3r + 2, so it counts
    # cells only on segments inside the cube: there the counts agree,
    # and on every ray's segment cut at the exit.
    _, exit_t, _ = intersect_unit_cube(origins, directions)
    inside = t_ends <= exit_t
    counts = cells_per_ray(origins, directions, grid, t_starts, t_ends)
    walk = traverse_reference(origins, directions, grid, t_starts, t_ends)
    assert np.array_equal(counts[inside], walk[inside])
    assert np.all(walk[~inside] == 3 * grid.resolution + 2)
    cut = np.minimum(t_ends, exit_t)
    assert np.array_equal(
        cells_per_ray(origins, directions, grid, t_starts, cut),
        traverse_reference(origins, directions, grid, t_starts, cut),
    )
    assert inside.sum() > 50 and (~inside).sum() > 50
    # No ray counts more cells than the grid's corner diagonal has.
    assert counts.max() <= 3 * grid.resolution - 2


class _Scaled:
    """A field scaled to opacity, so termination actually happens."""

    def __init__(self, field, scale=500.0):
        self.field = field
        self.scale = scale

    def forward(self, p, d):
        s, c, cache = self.field.forward(p, d)
        return s * self.scale, c, cache


def _ert_batch(seed, n=64, max_samples=48):
    """Jittered rays along +x through the unit cube."""
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    rng = np.random.default_rng(seed)
    origins = np.tile([[-1.0, 0.0, 0.0]], (n, 1)) + rng.normal(0, 0.2, (n, 3))
    directions = np.tile([[1.0, 0.0, 0.0]], (n, 1)) + rng.normal(0, 0.2, (n, 3))
    return marcher.sample(origins, directions)


def test_ert_colors_match_truncated_composite(tiny_model):
    """Round-based ERT == composite over the exact live-sample prefix."""
    batch = _ert_batch(19)
    assert len(batch) > 0
    field = _Scaled(tiny_model)
    sigma, rgb, _ = field.forward(batch.positions, batch.directions)
    threshold = 1e-2
    full = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    # The reference: a sample is live while its ray's entry transmittance
    # is at least the threshold; composite the live samples alone.
    live = full.transmittance >= threshold
    assert live.sum() < len(batch)  # some work was actually skipped
    expected = composite(
        sigma[live], rgb[live], batch.deltas[live], batch.ts[live],
        batch.ray_idx[live], batch.n_rays,
    )
    colors, stats = render_batch_adaptive(
        field, None, batch, threshold=threshold, round_size=8
    )
    np.testing.assert_allclose(colors, expected.colors, atol=1e-9)
    assert stats.lowp_samples == 0
    assert stats.live_samples == live.sum()
    evaluated = stats.full_samples + stats.lowp_samples
    assert stats.live_samples <= evaluated < stats.total_samples
    assert stats.terminated_fraction > 0.0


@pytest.mark.parametrize("threshold", [1e-3, 1e-2])
@pytest.mark.parametrize("round_size", [1, 4, 32])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ert_live_count_matches_full_transmittance(
    tiny_model, seed, round_size, threshold
):
    """The round loop's live count is the full composite's live count,
    whatever the round size: round size only sets host batching."""
    batch = _ert_batch(seed)
    field = _Scaled(tiny_model)
    sigma, rgb, _ = field.forward(batch.positions, batch.directions)
    full = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    _, stats = render_batch_adaptive(
        field, None, batch, threshold=threshold, round_size=round_size
    )
    live = int((full.transmittance >= threshold).sum())
    assert 0 < live < len(batch)
    assert stats.live_samples == live
    assert stats.live_samples <= stats.full_samples + stats.lowp_samples


def test_ert_frame_psnr_identical_to_full_render(tiny_model, mic_dataset):
    """With a tight threshold the ERT frame is PSNR-identical (<=1e-4 dB
    against a shared target) to the exact full render."""
    marcher = RayMarcher(SamplerConfig(max_samples=24))
    camera = mic_dataset.cameras[0]
    target = mic_dataset.images[0]
    full = wrap_model(tiny_model, marcher=marcher).render_image(
        camera, mic_dataset.normalizer
    )
    ert = wrap_model(tiny_model, marcher=marcher, ert_threshold=1e-7).render_image(
        camera, mic_dataset.normalizer
    )
    assert full.dtype == np.float32
    assert np.max(np.abs(full.astype(np.float64) - ert.astype(np.float64))) < 1e-5
    assert abs(psnr(full, target) - psnr(ert, target)) <= 1e-4


def test_ert_off_is_bitwise_default(tiny_model, mic_dataset):
    """ert_threshold=None must leave the exact path untouched: one
    forward of the float32 snapshot over the marched batch plus the
    segmented composite, the snapshot holding the master cast to
    float32."""
    marcher = RayMarcher(SamplerConfig(max_samples=24))
    renderer = wrap_model(tiny_model, marcher=marcher, ert_threshold=None)
    snapshot = renderer.compositor.lowp_field
    assert snapshot.precision == "full"
    stored = snapshot.parameters()
    for name, value in tiny_model.parameters().items():
        assert np.array_equal(stored[name], value.astype(np.float32)), name
    colors, batch, live = renderer.render_rays(
        np.full((16, 3), -0.5), np.tile([1.0, 0.9, 0.8], (16, 1))
    )
    sigma, rgb, _ = snapshot.forward(batch.positions, batch.directions)
    expected = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    assert len(batch) > 0 and live == len(batch)
    assert np.array_equal(colors, expected.colors)


def test_render_rays_ert_returns_no_per_sample_result(tiny_model):
    marcher = RayMarcher(SamplerConfig(max_samples=16))
    renderer = wrap_model(tiny_model, marcher=marcher, ert_threshold=1e-3)
    colors, batch, live = renderer.render_rays(
        np.array([[-1.0, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]])
    )
    assert colors.shape == (1, 3)
    assert len(batch) > 0
    assert 0 < live <= len(batch)
