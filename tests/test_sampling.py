"""The ray marcher (Stage I core)."""

import numpy as np
import pytest

from repro.nerf.aabb import intersect_unit_cube
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import RayMarcher, SamplerConfig


@pytest.fixture
def marcher():
    return RayMarcher(SamplerConfig(max_samples=32))


def _axis_rays(n=4):
    origins = np.tile([[-1.0, 0.5, 0.5]], (n, 1))
    directions = np.tile([[1.0, 0.0, 0.0]], (n, 1))
    return origins, directions


def test_samples_lie_inside_unit_cube(marcher):
    o, d = _axis_rays()
    batch = marcher.sample(o, d)
    assert np.all(batch.positions >= 0.0)
    assert np.all(batch.positions < 1.0)


def test_sample_count_bounded_by_budget(marcher):
    o, d = _axis_rays(1)
    batch = marcher.sample(o, d)
    assert 0 < len(batch) <= 32


def test_ray_idx_sorted_and_contiguous(marcher):
    o, d = _axis_rays(5)
    batch = marcher.sample(o, d)
    assert np.all(np.diff(batch.ray_idx) >= 0)
    assert batch.n_rays == 5


def test_samples_ordered_front_to_back(marcher):
    o, d = _axis_rays(1)
    batch = marcher.sample(o, d)
    assert np.all(np.diff(batch.ts) > 0)


def test_directions_are_unit(marcher):
    o = np.array([[-2.0, 0.5, 0.5]])
    d = np.array([[3.0, 0.0, 0.0]])  # unnormalized on purpose
    batch = marcher.sample(o, d)
    assert np.allclose(np.linalg.norm(batch.directions, axis=-1), 1.0)


def test_long_diagonal_ray_fits_budget(marcher):
    o = np.array([[-0.01, -0.01, -0.01]])
    d = np.array([[1.0, 1.0, 1.0]])
    batch = marcher.sample(o, d)
    assert len(batch) <= 32


def test_miss_produces_empty_batch(marcher):
    batch = marcher.sample(
        np.array([[5.0, 5.0, 5.0]]), np.array([[1.0, 0.0, 0.0]])
    )
    assert len(batch) == 0
    assert batch.candidates == 0
    assert batch.n_rays == 1


def test_occupancy_gating_drops_empty_cells(marcher):
    grid = OccupancyGrid(resolution=4, threshold=0.5)
    grid.density_ema[:] = 0.0
    grid.mask[:] = False
    grid.mask[2, 2, 2] = True  # only one occupied cell on the chord
    o, d = _axis_rays(1)
    gated = marcher.sample(o, d, occupancy=grid)
    ungated = marcher.sample(o, d)
    assert 0 < len(gated) < len(ungated)
    assert gated.candidates == ungated.candidates
    cells = grid.cell_indices(gated.positions)
    assert np.all(cells == 2)


def test_jitter_moves_samples(marcher):
    config = SamplerConfig(max_samples=32, jitter=True)
    jittered = RayMarcher(config)
    o, d = _axis_rays(1)
    a = jittered.sample(o, d, rng=np.random.default_rng(1))
    b = jittered.sample(o, d, rng=np.random.default_rng(2))
    assert not np.allclose(a.ts, b.ts)


def test_deterministic_without_jitter(marcher):
    o, d = _axis_rays(2)
    a = marcher.sample(o, d)
    b = marcher.sample(o, d)
    assert np.array_equal(a.ts, b.ts)


def test_deltas_are_uniform_spatial_step(marcher):
    o, d = _axis_rays(1)
    batch = marcher.sample(o, d)
    expected = np.sqrt(3.0) / 32
    assert np.allclose(batch.deltas, expected)


def test_samples_per_ray_sums_to_total(marcher):
    o, d = _axis_rays(7)
    batch = marcher.sample(o, d)
    assert batch.samples_per_ray.sum() == len(batch)


def test_origin_inside_cube(marcher):
    batch = marcher.sample(
        np.array([[0.5, 0.5, 0.5]]), np.array([[0.0, 0.0, 1.0]])
    )
    assert len(batch) > 0
    assert np.all(batch.positions[:, 2] >= 0.5)


def _sweep_rays(seed: int, n: int):
    """Random rays around the cube, with zero and non-finite directions."""
    rng = np.random.default_rng(seed)
    origins = rng.uniform(-1.0, 2.0, (n, 3))
    directions = rng.normal(size=(n, 3))
    directions[0] = 0.0
    directions[1, 1] = np.nan
    directions[2, 0] = np.inf
    origins[3] = 0.5  # starts inside the cube
    return origins, directions


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("max_samples", [1, 7, 32])
@pytest.mark.parametrize("live", [0.0, 0.15, 0.6, 1.0])
@pytest.mark.parametrize("jitter", [False, True])
def test_march_invariants_sweep(seed, max_samples, live, jitter):
    """Occupancy gating only drops samples: an ungated march of the same
    rays and RNG stream counts the candidates, every kept sample lies in
    a live cell, and every candidate in a live cell is kept."""
    origins, directions = _sweep_rays(seed, 257)
    grid = OccupancyGrid(resolution=(8, 16)[seed % 2])
    grid.mask = np.random.default_rng(seed + 10).random(grid.mask.shape) < live
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples, jitter=jitter))
    ungated_rng = np.random.default_rng(seed)
    ungated = marcher.sample(origins, directions, occupancy=None, rng=ungated_rng)
    rng = np.random.default_rng(seed)
    batch = marcher.sample(origins, directions, occupancy=grid, rng=rng)

    # The analytic candidate count is the ungated batch size.
    assert batch.candidates == ungated.candidates == len(ungated)
    assert ungated.samples_per_ray[:3].sum() == 0  # zero / NaN / inf miss
    assert ungated.samples_per_ray.max() <= max_samples
    # Jittered marching draws exactly ``candidates`` uniforms.
    reference = np.random.default_rng(seed)
    offsets = 0.5
    if jitter:
        offsets = reference.uniform(0.0, 1.0, size=batch.candidates)
    assert rng.bit_generator.state == reference.bit_generator.state
    assert ungated_rng.bit_generator.state == reference.bit_generator.state
    # Every candidate is the float32 ray equation at its ``t``, and
    # ``t`` steps by ``sqrt(3)/max_samples`` from the ray's cube entry,
    # clamped inside its exit.
    step = np.sqrt(3.0) / max_samples
    ray = ungated.ray_idx
    unit = directions[ray] / np.linalg.norm(directions[ray], axis=-1, keepdims=True)
    expected = (origins[ray] + ungated.ts[:, None] * unit).astype(np.float32)
    np.clip(expected, 0.0, np.nextafter(np.float32(1.0), np.float32(0.0)), out=expected)
    assert np.array_equal(ungated.positions, expected)
    assert np.array_equal(ungated.directions, unit.astype(np.float32))
    t_enter, t_exit, hit = intersect_unit_cube(origins[ray], unit)
    assert hit.all()
    within = np.arange(len(ray)) - np.searchsorted(ray, ray)
    expected_t = np.minimum(t_enter + (within + offsets) * step, t_exit - 1e-9)
    assert np.array_equal(ungated.ts, expected_t)
    assert np.all(ungated.deltas == step)
    # Gating keeps exactly the candidates in live cells, in order.
    live_candidates = grid.query(ungated.positions)
    assert grid.query(batch.positions).all()
    assert len(batch) == int(live_candidates.sum())
    for name in ("positions", "directions", "deltas", "ts", "ray_idx"):
        assert np.array_equal(
            getattr(batch, name), getattr(ungated, name)[live_candidates]
        ), name
    assert batch.positions.dtype == batch.directions.dtype == np.float32
    assert batch.positions.flags.c_contiguous
    assert batch.ts.dtype == batch.deltas.dtype == np.float64
    assert batch.ray_idx.dtype == np.int64
    # The bench's sampling.kept_per_ray / keep_ratio bases.
    assert batch.samples_per_ray.sum() == len(batch)
