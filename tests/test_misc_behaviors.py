"""Remaining distinct behaviours across small public surfaces."""

import numpy as np
import pytest

from repro.datasets.generator import AnalyticScene, Primitive, SceneDataset
from repro.hw.interconnect import LPDDR4_1866
from repro.nerf.camera import Camera, look_at
from repro.nerf.occupancy import OccupancyGrid
from repro.sim.multichip import MultiChipConfig, MultiChipSystem
from repro.sim.trace import synthetic_trace
from repro.sim.trace_traversal import count_cells_visited


def test_lpddr4_spec_matches_instant3d_assumption():
    """The DRAM Instant-3D assumed: 59.7 GB/s (Table I)."""
    assert LPDDR4_1866.bandwidth_gbps == pytest.approx(59.7)
    assert LPDDR4_1866.transfer_energy_j(1.0) > 0


def test_count_cells_visited_no_hits():
    grid = OccupancyGrid(resolution=8)
    total = count_cells_visited(
        np.array([[5.0, 5.0, 5.0]]), np.array([[1.0, 0.0, 0.0]]), grid
    )
    assert total == 0


def test_count_cells_visited_positive_for_crossing_rays():
    grid = OccupancyGrid(resolution=8)
    total = count_cells_visited(
        np.array([[-1.0, 0.5, 0.5]]), np.array([[2.0, 0.0, 0.0]]), grid
    )
    assert total >= 8


def test_count_cells_visited_zero_and_nan_directions_are_misses():
    """A zero-length or NaN direction visits no cell and warns nothing;
    the other rays' counts are those of a batch without it."""
    rng = np.random.default_rng(5)
    grid = OccupancyGrid(resolution=8)
    origins = rng.uniform(-0.5, 1.5, size=(64, 3))
    directions = rng.normal(size=(64, 3))
    bad = np.array([3, 17, 40])
    directions[bad[0]] = 0.0
    directions[bad[1]] = [np.nan, 0.5, 0.5]
    directions[bad[2]] = [np.nan, np.nan, np.nan]
    good = np.setdiff1d(np.arange(64), bad)
    with np.errstate(all="raise"):
        total = count_cells_visited(origins, directions, grid)
        assert count_cells_visited(origins[bad], directions[bad], grid) == 0
    assert total == count_cells_visited(origins[good], directions[good], grid)
    assert total > 0


def test_multichip_report_energy_property():
    system = MultiChipSystem(MultiChipConfig(n_chips=2))
    traces = [
        synthetic_trace(2000, 10.0, 0.3, np.random.default_rng(i))
        for i in range(2)
    ]
    report = system.simulate(traces)
    assert report.energy_j == pytest.approx(report.power_w * report.runtime_s)
    assert report.n_rays == 2000


def test_scene_dataset_default_normalizer():
    scene = AnalyticScene(
        name="t",
        primitives=[Primitive("sphere", (0, 0, 0), (0.3,), (1, 0, 0))],
        world_min=(-1, -1, -1),
        world_max=(1, 1, 1),
    )
    camera = Camera(width=4, height=4, focal=4.0, c2w=look_at((0, -3, 0), (0, 0, 0)))
    dataset = SceneDataset(scene=scene, cameras=[camera], images=np.zeros((1, 4, 4, 3)))
    assert dataset.normalizer is not None
    assert dataset.normalizer.scale == pytest.approx(0.5)
    assert dataset.name == "t"


def test_scene_color_neutral_in_empty_space():
    scene = AnalyticScene(
        name="t",
        primitives=[Primitive("sphere", (0.5, 0, 0), (0.1,), (1, 0, 0))],
        world_min=(-1, -1, -1),
        world_max=(1, 1, 1),
        color_frequency=0.0,
    )
    _, far = scene.density_and_color(np.array([[-0.9, -0.9, -0.9]]))
    assert np.allclose(far, 0.5)  # neutral albedo where nothing contributes


def test_encoding_growth_factor_above_one(tiny_encoding_config):
    assert tiny_encoding_config.growth_factor > 1.0


def test_camera_directions_unit_for_every_pixel():
    from repro.nerf.rays import generate_rays

    camera = Camera(width=9, height=7, focal=6.0, c2w=look_at((2, 2, 2), (0, 0, 0)))
    rays = generate_rays(camera)
    assert np.allclose(np.linalg.norm(rays.directions, axis=-1), 1.0)


def test_synthetic_trace_deterministic_per_seed():
    a = synthetic_trace(500, 5.0, 0.2, np.random.default_rng(9))
    b = synthetic_trace(500, 5.0, 0.2, np.random.default_rng(9))
    assert a.n_samples == b.n_samples
    assert np.array_equal(a.pair_durations, b.pair_durations)
    assert np.array_equal(a.pairs_per_ray, b.pairs_per_ray)
