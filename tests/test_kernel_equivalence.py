"""Equivalence oracle for the hot-path kernel overhaul.

Every optimized kernel is checked against its frozen pre-overhaul
reference (:mod:`repro.perf.reference`): bit-identical where the math
reassociates nothing, PSNR-identical where it does (ERT).  Duplicate
indices get explicit coverage — they are exactly where a wrong scatter
would silently drop contributions.
"""

import numpy as np
import pytest

from repro.nerf.early_termination import render_batch_adaptive, truncate_batch
from repro.nerf.hash_encoding import (
    Fp16HashEncoding,
    HashEncoding,
    HashEncodingConfig,
)
from repro.nerf.occupancy import OccupancyGrid, traverse_grid
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.volume_rendering import composite, psnr, segment_sum
from repro.perf import reference
from repro.pipeline import wrap_model
from repro.sim.trace import distribute_samples_over_pairs


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
                for name in ("indices", "weights", "corners"):
                    got = getattr(t_opt, name)[level]
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


def test_fp16_forward_matches_float32_per_level_blend():
    """The fp16 snapshot runs the training kernel on its float32 mirror:
    bit-identical to the per-level reference over ``_tables_f32``."""
    for seed, config in enumerate(SWEEP_CONFIGS):
        fp16 = Fp16HashEncoding(HashEncoding(config, rng=np.random.default_rng(seed)))
        mirror = HashEncoding(config)
        mirror.tables = fp16._tables_f32
        for dtype in (np.float64, np.float32):
            for n in SWEEP_SIZES:
                points = _sweep_points(n, dtype, seed)
                features, trace = fp16.forward(points)
                expected, _ = reference.hash_forward_reference(
                    mirror, points.astype(np.float32)
                )
                assert trace is None and features.dtype == np.float32
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
    assert opt == ref


def test_traverse_grid_identical_to_boolean_mask_reference():
    def traverse_reference(origins, directions, grid, t_starts, t_ends):
        # The pre-compaction implementation, verbatim: full-width boolean
        # masks and a t copy per step.
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
    assert np.array_equal(
        traverse_grid(origins, directions, grid, t_starts, t_ends),
        traverse_reference(origins, directions, grid, t_starts, t_ends),
    )


def test_ert_colors_match_truncated_composite(tiny_model):
    """Round-based ERT == composite over the exact live-sample prefix."""
    marcher = RayMarcher(SamplerConfig(max_samples=48))
    rng = np.random.default_rng(19)
    n = 64
    origins = np.tile([[-1.0, 0.0, 0.0]], (n, 1)) + rng.normal(0, 0.2, (n, 3))
    directions = np.tile([[1.0, 0.0, 0.0]], (n, 1)) + rng.normal(0, 0.2, (n, 3))
    batch = marcher.sample(origins, directions)
    assert len(batch) > 0
    sigma, rgb, _ = tiny_model.forward(batch.positions, batch.directions)
    # Opaque-ify the scene so termination actually happens.
    sigma = sigma * 500.0

    class Scaled:
        def forward(self, p, d):
            s, c, cache = tiny_model.forward(p, d)
            return s * 500.0, c, cache

    threshold = 1e-2
    full = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    truncated = truncate_batch(batch, full, threshold)
    assert len(truncated) < len(batch)  # some work was actually skipped
    sigma_t, rgb_t, _ = Scaled().forward(truncated.positions, truncated.directions)
    expected = composite(
        sigma_t, rgb_t, truncated.deltas, truncated.ts, truncated.ray_idx,
        truncated.n_rays,
    )
    colors, stats = render_batch_adaptive(
        Scaled(), None, batch, threshold=threshold, round_size=8
    )
    np.testing.assert_allclose(colors, expected.colors, atol=1e-9)
    assert stats.lowp_samples == 0
    assert stats.evaluated < stats.total_samples
    assert stats.terminated_fraction > 0.0


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
    forward over the marched batch plus the segmented composite."""
    marcher = RayMarcher(SamplerConfig(max_samples=24))
    renderer = wrap_model(tiny_model, marcher=marcher, ert_threshold=None)
    colors, batch, result = renderer.render_rays(
        np.full((16, 3), -0.5), np.tile([1.0, 0.9, 0.8], (16, 1))
    )
    sigma, rgb, _ = tiny_model.forward(batch.positions, batch.directions)
    expected = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    assert len(batch) > 0 and result is not None
    assert np.array_equal(colors, expected.colors)


def test_render_rays_ert_returns_no_per_sample_result(tiny_model):
    marcher = RayMarcher(SamplerConfig(max_samples=16))
    renderer = wrap_model(tiny_model, marcher=marcher, ert_threshold=1e-3)
    colors, batch, result = renderer.render_rays(
        np.array([[-1.0, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]])
    )
    assert colors.shape == (1, 3)
    assert len(batch) > 0
    assert result is None
