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


# -- cell counts: the closed form of the DDA walk ------------------------------

def test_traverse_axis_ray_visits_resolution_cells():
    from repro.sim.trace_traversal import cells_per_ray

    grid = OccupancyGrid(resolution=8)
    origins = np.array([[-1.0, 0.55, 0.55]])
    directions = np.array([[1.0, 0.0, 0.0]])
    counts = cells_per_ray(origins, directions, grid, np.array([1.0]), np.array([2.0]))
    assert counts[0] == 8


def test_traverse_generic_ray_bounded():
    """Any unit-cube chord visits between 1 and 3*res cells."""
    from repro.nerf.aabb import intersect_unit_cube
    from repro.sim.trace_traversal import cells_per_ray

    rng = np.random.default_rng(0)
    grid = OccupancyGrid(resolution=8)
    origins = rng.uniform(-1.5, -0.5, (16, 3))
    directions = rng.uniform(0.2, 1.0, (16, 3))
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    counts = cells_per_ray(origins[hit], directions[hit], grid, t0[hit], t1[hit])
    assert np.all(counts >= 1)
    assert np.all(counts <= 3 * 8)


def test_traverse_cell_count_scales_with_resolution():
    from repro.sim.trace_traversal import cells_per_ray

    origins = np.array([[-1.0, 0.51, 0.52]])
    directions = np.array([[1.0, 0.0, 0.0]])
    coarse = cells_per_ray(
        origins, directions, OccupancyGrid(resolution=4),
        np.array([1.0]), np.array([2.0]),
    )
    fine = cells_per_ray(
        origins, directions, OccupancyGrid(resolution=16),
        np.array([1.0]), np.array([2.0]),
    )
    assert fine[0] == 4 * coarse[0]


def test_traverse_empty_segment():
    from repro.sim.trace_traversal import cells_per_ray

    grid = OccupancyGrid(resolution=4)
    counts = cells_per_ray(
        np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]]),
        grid, np.array([2.0]), np.array([1.0]),  # t_start > t_end
    )
    assert counts[0] == 0


def test_traverse_validates_alignment():
    from repro.sim.trace_traversal import cells_per_ray

    grid = OccupancyGrid(resolution=4)
    with pytest.raises(ValueError):
        cells_per_ray(
            np.zeros((2, 3)), np.ones((2, 3)), grid,
            np.zeros(1), np.ones(2),
        )



@pytest.mark.parametrize("resolution", [1, 2, 8, 24, 32])
def test_cell_counts_on_exact_edge_and_vertex_crossings(resolution):
    """A ray through cell edges or vertices counts one cell per axis
    crossing: the grid's corner diagonal visits 3r - 2 cells and a face
    diagonal (x and y cross together, z fixed mid-cell) 2r - 1.  A
    segment that ends exactly on a cell face (x = 1/2 when r is even)
    does not count the cell beyond it: ceil(r/2) cells, as the walk."""
    from repro.nerf.aabb import intersect_unit_cube
    from repro.sim.trace_traversal import cells_per_ray, count_cells_visited

    r = resolution
    grid = OccupancyGrid(resolution=r)
    z = (0.5 + r // 2) / r
    origins = np.array([[-0.5, -0.5, -0.5], [-0.5, -0.5, z], [1.5, 1.5, z]])
    directions = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]])
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    assert hit.all()
    counts = cells_per_ray(origins, directions, grid, t0, t1)
    assert counts.tolist() == [3 * r - 2, 2 * r - 1, 2 * r - 1]
    assert count_cells_visited(origins, directions, grid) == 7 * r - 4

    half = (np.array([[-1.0, z, z]]), np.array([[1.0, 0.0, 0.0]]), grid,
            np.array([1.0]), np.array([1.5]))
    assert cells_per_ray(*half).tolist() == [(r + 1) // 2]
    assert _traverse_rows(*half).tolist() == [(r + 1) // 2]


# -- column-wise grid kernels: bit-identical to the row-wise forms -------------

def _traverse_rows(origins, directions, grid, t_starts, t_ends):
    """The DDA walk the closed-form count replaced, with its per-step
    minimum over the length-3 row axis: the oracle for every ray that
    crosses no cell edge or vertex exactly."""
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
    from repro.sim.trace_traversal import cells_per_ray

    grid, rng = _seeded_grid(resolution, seed=resolution)
    origins = rng.normal(0.5, 1.0, size=(2000, 3))
    directions = rng.normal(size=(2000, 3))
    directions[::9, 1] = 0.0
    directions /= np.linalg.norm(directions, axis=-1, keepdims=True)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    args = (origins[hit], directions[hit], grid, t0[hit], t1[hit])
    counts = cells_per_ray(*args)
    assert np.array_equal(counts, _traverse_rows(*args))
    assert hit.sum() > 100 and np.all(counts >= 1)


@pytest.mark.parametrize("seed", range(20))
@pytest.mark.parametrize("resolution", [1, 5, 16, 24, 32])
def test_traverse_grid_matches_row_wise_walk_seeded(resolution, seed):
    """Rays with one or two zero direction components and origins on
    cell boundaries, from inside and outside the unit cube."""
    from repro.nerf.aabb import intersect_unit_cube
    from repro.sim.trace_traversal import cells_per_ray

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
    assert np.array_equal(cells_per_ray(*args), _traverse_rows(*args))


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


def _old_fill(grid, density_fn, rng, samples_per_cell=2):
    """The fill as it was: each round's ``(base + jitter) / r`` as one
    ``(n, 3)`` array, max-folded into float32."""
    r = grid.resolution
    base = (
        np.stack(np.meshgrid(*([np.arange(r)] * 3), indexing="ij"), axis=-1)
        .reshape(-1, 3)
        .astype(np.float64)
    )
    best = np.zeros(r**3, dtype=np.float32)
    for _ in range(samples_per_cell):
        points = (base + rng.uniform(0.0, 1.0, size=base.shape)) / r
        density = np.asarray(density_fn(points), dtype=np.float32).reshape(-1)
        np.maximum(best, density, out=best)
    return best.reshape((r,) * 3)


@pytest.mark.parametrize("resolution", [16, 24, 32])
def test_scene_fills_match_the_row_wise_fill(resolution):
    """Every analytic scene's fill through ``density_unit`` equals the
    row-wise fill through ``from_unit``'s ``/ scale + offset``, bit for
    bit, and ``density_unit`` leaves its input as it was."""
    from repro.datasets import nerf360, synthetic
    from repro.datasets.generator import AnalyticScene, Primitive

    scenes = [synthetic.make_scene(n) for n in synthetic.SYNTHETIC_SCENES]
    scenes += [nerf360.make_scene(n) for n in nerf360.NERF360_SCENES]
    # Every registered scene's scale is a power of two; this box's is not.
    scenes.append(
        AnalyticScene(
            name="odd_box",
            primitives=[Primitive("sphere", (0.1, -0.05, 0.4), (0.55,), (1, 0, 0))],
            world_min=(-1.3, -0.7, -0.9),
            world_max=(1.1, 0.6, 1.7),
        )
    )
    for i, scene in enumerate(scenes):
        normalizer = scene.normalizer()

        def row_wise(points, scene=scene, normalizer=normalizer):
            world = np.asarray(points, dtype=np.float64) / normalizer.scale
            return scene.density(world + normalizer.offset)

        grid = OccupancyGrid(resolution=resolution, threshold=0.5)
        grid.set_from_function(scene.density_unit, rng=np.random.default_rng(i))
        expected = _old_fill(grid, row_wise, np.random.default_rng(i))
        assert grid.density_ema.tobytes() == expected.tobytes(), scene.name
        assert np.array_equal(grid.mask, expected > 0.5), scene.name
        # The float64 densities themselves, on rows, on a transposed
        # column block and on float32 points.
        points = np.random.default_rng(i).uniform(-0.1, 1.1, size=(4000, 3))
        for p in (points, np.ascontiguousarray(points.T).T, points.astype(np.float32)):
            assert scene.density_unit(p).tobytes() == row_wise(p).tobytes(), scene.name

    points = np.random.default_rng(0).random((3, 500)).T
    kept = points.copy()
    scenes[0].density_unit(points)
    assert points.tobytes() == kept.tobytes()


def test_row_wise_density_fill_matches_the_old_fill():
    """A density that is not column-wise (it reduces over each point's
    row and reads ``points`` twice) fills as it did."""

    def density(points):
        centred = points - np.array([0.45, 0.5, 0.55])
        return 3.0 * np.exp(-9.0 * (centred * centred).sum(axis=1)) + points[:, 0]

    for r in (16, 24, 32):
        grid = OccupancyGrid(resolution=r, threshold=1.0)
        grid.set_from_function(density, samples_per_cell=3, rng=np.random.default_rng(r))
        expected = _old_fill(grid, density, np.random.default_rng(r), samples_per_cell=3)
        assert grid.density_ema.tobytes() == expected.tobytes()
