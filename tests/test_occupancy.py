"""Occupancy grid: gating for Stage I and the MoE gate."""

import numpy as np
import pytest

from repro.nerf.occupancy import OccupancyGrid


def test_new_grid_is_fully_occupied():
    grid = OccupancyGrid(resolution=4)
    assert grid.occupancy_fraction == 1.0
    assert grid.query(np.array([[0.5, 0.5, 0.5]]))[0]


def test_cell_indices_clamped_to_grid():
    grid = OccupancyGrid(resolution=4)
    cells = grid.cell_indices(np.array([[1.5, -0.5, 0.999]]))
    assert np.array_equal(cells[0], [3, 0, 3])


def test_update_marks_dense_cells():
    grid = OccupancyGrid(resolution=4, threshold=0.5)
    grid.density_ema[:] = 0.0
    grid.mask[:] = False
    points = np.array([[0.1, 0.1, 0.1]])
    grid.update(points, np.array([5.0]))
    assert grid.query(points)[0]
    assert not grid.query(np.array([[0.9, 0.9, 0.9]]))[0]


def test_ema_decay_eventually_clears_stale_cells():
    grid = OccupancyGrid(resolution=2, threshold=0.5, ema_decay=0.5)
    grid.update(np.array([[0.1, 0.1, 0.1]]), np.array([1.0]))
    assert grid.occupancy_fraction > 0
    for _ in range(8):
        grid.update(np.empty((0, 3)), np.empty(0))
    assert grid.occupancy_fraction == 0.0


def test_update_uses_max_density_per_cell():
    grid = OccupancyGrid(resolution=2, threshold=0.5)
    pts = np.array([[0.1, 0.1, 0.1], [0.2, 0.2, 0.2]])
    grid.update(pts, np.array([0.1, 3.0]))
    assert grid.density_ema[0, 0, 0] == pytest.approx(3.0)


def test_update_requires_aligned_arrays():
    grid = OccupancyGrid(resolution=2)
    with pytest.raises(ValueError):
        grid.update(np.zeros((2, 3)), np.zeros(3))


def test_set_from_function_sphere():
    grid = OccupancyGrid(resolution=16, threshold=0.5)

    def density(points):
        r = np.linalg.norm(points - 0.5, axis=-1)
        return np.where(r < 0.25, 10.0, 0.0)

    grid.set_from_function(density)
    assert grid.query(np.array([[0.5, 0.5, 0.5]]))[0]
    assert not grid.query(np.array([[0.05, 0.05, 0.05]]))[0]
    # Sphere of radius 0.25 fills about 6.5% of the cube.
    assert 0.02 < grid.occupancy_fraction < 0.2


def test_invalid_construction_args():
    with pytest.raises(ValueError):
        OccupancyGrid(resolution=0)
    with pytest.raises(ValueError):
        OccupancyGrid(ema_decay=1.0)


def test_query_on_boundary_points():
    grid = OccupancyGrid(resolution=4)
    result = grid.query(np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]]))
    assert result.shape == (2,)


def test_n_cells():
    assert OccupancyGrid(resolution=8).n_cells == 512


# -- DDA traversal ------------------------------------------------------------

def test_traverse_axis_ray_visits_resolution_cells():
    from repro.nerf.occupancy import traverse_grid

    grid = OccupancyGrid(resolution=8)
    origins = np.array([[-1.0, 0.55, 0.55]])
    directions = np.array([[1.0, 0.0, 0.0]])
    counts = traverse_grid(origins, directions, grid, np.array([1.0]), np.array([2.0]))
    assert counts[0] == 8


def test_traverse_generic_ray_bounded():
    """Any unit-cube chord visits between 1 and 3*res cells."""
    from repro.nerf.aabb import intersect_unit_cube
    from repro.nerf.occupancy import traverse_grid

    rng = np.random.default_rng(0)
    grid = OccupancyGrid(resolution=8)
    origins = rng.uniform(-1.5, -0.5, (16, 3))
    directions = rng.uniform(0.2, 1.0, (16, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    counts = traverse_grid(origins[hit], directions[hit], grid, t0[hit], t1[hit])
    assert np.all(counts >= 1)
    assert np.all(counts <= 3 * 8)


def test_traverse_cell_count_scales_with_resolution():
    from repro.nerf.occupancy import traverse_grid

    origins = np.array([[-1.0, 0.51, 0.52]])
    directions = np.array([[1.0, 0.0, 0.0]])
    coarse = traverse_grid(
        origins, directions, OccupancyGrid(resolution=4),
        np.array([1.0]), np.array([2.0]),
    )
    fine = traverse_grid(
        origins, directions, OccupancyGrid(resolution=16),
        np.array([1.0]), np.array([2.0]),
    )
    assert fine[0] == 4 * coarse[0]


def test_traverse_empty_segment():
    from repro.nerf.occupancy import traverse_grid

    grid = OccupancyGrid(resolution=4)
    counts = traverse_grid(
        np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]]),
        grid, np.array([2.0]), np.array([1.0]),  # t_start > t_end
    )
    assert counts[0] == 0


def test_traverse_validates_alignment():
    from repro.nerf.occupancy import traverse_grid

    grid = OccupancyGrid(resolution=4)
    with pytest.raises(ValueError):
        traverse_grid(
            np.zeros((2, 3)), np.ones((2, 3)), grid,
            np.zeros(1), np.ones(2),
        )


# -- column-wise grid kernels: bit-identical to the row-wise forms -------------

def _traverse_rows(origins, directions, grid, t_starts, t_ends):
    """The DDA walk with its per-step minimum over the length-3 row axis,
    as the column kernel replaced it."""
    res = grid.resolution
    counts = np.zeros(origins.shape[0], dtype=np.int64)
    t = np.maximum(t_starts, 0.0) + 1e-9
    safe_dir = np.where(np.abs(directions) < 1e-12, 1e-12, directions)
    live = np.flatnonzero(t < t_ends)
    for _ in range(3 * res + 2):
        if live.size == 0:
            break
        counts[live] += 1
        o = origins[live]
        sd = safe_dir[live]
        pos = o + t[live, None] * directions[live]
        cell = np.clip(np.floor(pos * res), 0, res - 1)
        next_boundary = np.where(sd > 0, (cell + 1) / res, cell / res)
        t_next = ((next_boundary - o) / sd).min(axis=1)
        t_new = np.maximum(t_next, t[live]) + 1e-9
        t[live] = t_new
        live = live[t_new < t_ends[live]]
    return counts


def _seeded_grid(resolution, seed):
    rng = np.random.default_rng(seed)
    grid = OccupancyGrid(resolution=resolution, threshold=0.5)
    grid.update(rng.random((4 * resolution**3, 3)), rng.random(4 * resolution**3))
    return grid, rng


@pytest.mark.parametrize("resolution", [1, 5, 24])
def test_traverse_grid_matches_row_wise_min(resolution):
    from repro.nerf.aabb import intersect_unit_cube
    from repro.nerf.occupancy import traverse_grid

    grid, rng = _seeded_grid(resolution, seed=resolution)
    origins = rng.normal(0.5, 1.0, size=(2000, 3))
    directions = rng.normal(size=(2000, 3))
    directions[::9, 1] = 0.0
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    args = (origins[hit], directions[hit], grid, t0[hit], t1[hit])
    counts = traverse_grid(*args)
    assert np.array_equal(counts, _traverse_rows(*args))
    assert hit.sum() > 100 and np.all(counts >= 1)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("resolution", [1, 5, 16, 24, 32])
def test_traverse_grid_matches_row_wise_walk_seeded(resolution, seed):
    """Rays with one or two zero direction components and origins on
    cell boundaries, from inside and outside the unit cube."""
    from repro.nerf.aabb import intersect_unit_cube
    from repro.nerf.occupancy import traverse_grid

    grid, rng = _seeded_grid(resolution, seed=1000 * resolution + seed)
    n = 300
    origins = rng.uniform(-0.5, 1.5, size=(n, 3))
    on_boundary = rng.random((n, 3)) < 0.4
    origins[on_boundary] = (
        rng.integers(0, resolution + 1, size=on_boundary.sum()) / resolution
    )
    directions = rng.normal(size=(n, 3))
    directions[rng.random((n, 3)) < 0.2] = 0.0
    directions[::7, :2] = 0.0
    directions[np.abs(directions).sum(axis=1) == 0.0, 2] = 1.0
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    args = (origins[hit], directions[hit], grid, t0[hit], t1[hit])
    assert hit.sum() > 30
    assert np.array_equal(traverse_grid(*args), _traverse_rows(*args))


@pytest.mark.parametrize("resolution", [1, 5, 24])
def test_query_and_update_match_strided_indexing(resolution):
    grid, rng = _seeded_grid(resolution, seed=resolution)
    # Points inside and outside [0, 1]^3, in both float widths the
    # callers pass.
    points = rng.uniform(-0.5, 1.5, size=(5000, 3))
    for p in (points, points.astype(np.float32)):
        cells = grid.cell_indices(p)
        expected = grid.mask[cells[:, 0], cells[:, 1], cells[:, 2]]
        assert np.array_equal(grid.query(p), expected)
    densities = rng.random(5000).astype(np.float32)
    cells = grid.cell_indices(points)
    flat = np.ravel_multi_index(
        (cells[:, 0], cells[:, 1], cells[:, 2]), grid.mask.shape
    )
    updates = np.zeros(grid.n_cells, dtype=np.float32)
    np.maximum.at(updates, flat, densities)
    expected_ema = np.maximum(grid.density_ema.reshape(-1) * grid.ema_decay, updates)
    grid.update(points, densities)
    assert grid.density_ema.reshape(-1).tobytes() == expected_ema.tobytes()


@pytest.mark.parametrize("resolution", [1, 5, 24, 32])
def test_fills_match_freshly_built_cell_origins(resolution):
    """The cached cell origins give the fills the per-call ``meshgrid``
    gave, and nothing can write to them."""
    r = resolution
    base = (
        np.stack(np.meshgrid(*([np.arange(r)] * 3), indexing="ij"), axis=-1)
        .reshape(-1, 3)
        .astype(np.float64)
    )

    def density(points):
        return np.exp(-8.0 * ((points - 0.4) ** 2).sum(axis=1))

    grid = OccupancyGrid(resolution=r, threshold=0.3)
    grid.set_from_function(density, samples_per_cell=2, rng=np.random.default_rng(3))
    rng = np.random.default_rng(3)
    best = np.zeros(r**3, dtype=np.float32)
    for _ in range(2):
        points = (base + rng.uniform(0.0, 1.0, size=base.shape)) / r
        np.maximum(best, density(points).astype(np.float32), out=best)
    assert grid.density_ema.reshape(-1).tobytes() == best.tobytes()

    reference = OccupancyGrid(resolution=r, threshold=0.3)
    reference.density_ema = grid.density_ema.copy()
    grid.refresh_from_density(density, np.random.default_rng(4))
    points = (base + np.random.default_rng(4).uniform(0.0, 1.0, size=base.shape)) / r
    reference.update(points, density(points))
    assert grid.density_ema.tobytes() == reference.density_ema.tobytes()

    from repro.nerf.occupancy import _cell_origins

    assert _cell_origins(r) is _cell_origins(r)
    assert np.array_equal(_cell_origins(r), base)
    with pytest.raises(ValueError):
        _cell_origins(r)[0, 0] = 1.0
