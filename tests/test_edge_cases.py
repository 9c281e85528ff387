"""Failure injection and degenerate-input behaviour across the stack."""

import warnings

import numpy as np
import pytest

from repro.nerf.hash_encoding import HashEncoding, HashEncodingConfig
from repro.nerf.model import InstantNGPModel
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.volume_rendering import composite
from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.sampling_module import SamplingModule
from repro.sim.trace import WorkloadTrace


@pytest.fixture
def empty_trace():
    """A batch where every ray missed or was fully gated away."""
    return WorkloadTrace(
        n_rays=16,
        pair_durations=[],
        pairs_per_ray=np.zeros(16),
        n_samples=0,
        n_candidates=0,
    )


def test_chip_survives_empty_workload(empty_trace):
    chip = SingleChipAccelerator(ChipConfig.scaled())
    report = chip.simulate(empty_trace)
    assert report.n_samples == 0
    assert report.energy_per_sample_j == 0.0
    assert np.isfinite(report.total_cycles)


def test_sampling_module_empty_workload(empty_trace):
    module = SamplingModule()
    opt = module.simulate(empty_trace, optimized=True)
    naive = module.simulate(empty_trace, optimized=False)
    # Naive still pays the per-ray intersections; optimized only preproc.
    assert naive.cycles > 0
    assert opt.cycles > 0


def test_marcher_zero_direction_does_not_crash():
    """Zero-length, underflowing and non-finite directions are silent
    misses; the valid ray beside them still marches."""
    marcher = RayMarcher(SamplerConfig(max_samples=8))
    directions = [[0, 0, 1e-300], [0, 0, 0], [np.nan, 0, 1], [0, 0, 1]]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        batch = marcher.sample(np.full((4, 3), 0.5), np.array(directions))
    assert batch.samples_per_ray.tolist() == [0, 0, 0, 3]
    assert np.isfinite(batch.positions).all()


def test_marcher_grazing_ray():
    """A ray exactly along a cube face must not produce out-of-range
    samples."""
    marcher = RayMarcher(SamplerConfig(max_samples=16))
    batch = marcher.sample(
        np.array([[0.0, 0.5, -1.0]]), np.array([[0.0, 0.0, 1.0]])
    )
    if len(batch):
        assert batch.positions.min() >= 0.0


def test_composite_single_sample_rays():
    """One sample per ray: the paper's sparse-scene extreme (4-5/ray)."""
    n = 6
    result = composite(
        np.full(n, 2.0),
        np.full((n, 3), 0.5),
        np.full(n, 0.1),
        np.arange(n, dtype=float),
        np.arange(n),
        n,
    )
    alpha = 1.0 - np.exp(-0.2)
    assert np.allclose(result.opacity, alpha)


def test_composite_extreme_density_no_overflow():
    result = composite(
        np.array([1e30]),
        np.array([[1.0, 0.0, 0.0]]),
        np.array([1.0]),
        np.array([0.0]),
        np.array([0]),
        1,
        background=0.0,
    )
    assert np.isfinite(result.colors).all()
    assert result.opacity[0] == pytest.approx(1.0)


def test_model_extreme_coordinates(tiny_model):
    """Clamped boundary coordinates must stay finite end to end."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0 - 1e-12, 1.0 - 1e-12, 1.0 - 1e-12]])
    dirs = np.tile([0.0, 0.0, 1.0], (2, 1))
    sigma, rgb, _ = tiny_model.forward(pts, dirs)
    assert np.isfinite(sigma).all()
    assert np.isfinite(rgb).all()


def test_model_huge_batch_consistency(tiny_model, rng):
    """Chunked and monolithic evaluation agree (renderer relies on it)."""
    pts = rng.uniform(0, 1, (257, 3))
    dirs = np.tile([1.0, 0.0, 0.0], (257, 1))
    full, _, _ = tiny_model.forward(pts, dirs)
    parts = np.concatenate(
        [tiny_model.forward(pts[i : i + 100], dirs[i : i + 100])[0] for i in range(0, 257, 100)]
    )
    assert np.allclose(full, parts)


def test_encoding_out_of_range_points_clamped(tiny_encoding):
    """Points outside [0,1] clamp instead of indexing out of bounds."""
    pts = np.array([[-0.5, 1.7, 0.5], [2.0, -1.0, 3.0]])
    feats, trace = tiny_encoding.forward(pts)
    assert np.isfinite(feats).all()
    for level_idx in trace.indices:
        assert level_idx.min() >= 0
        assert level_idx.max() < tiny_encoding.config.table_size


def test_single_level_encoding():
    cfg = HashEncodingConfig(
        n_levels=1, log2_table_size=6, base_resolution=4, finest_resolution=4
    )
    enc = HashEncoding(cfg)
    assert cfg.growth_factor == 1.0
    feats, _ = enc.forward(np.array([[0.5, 0.5, 0.5]]))
    assert feats.shape == (1, 2)


def test_occupancy_grid_resolution_one():
    grid = OccupancyGrid(resolution=1)
    assert grid.n_cells == 1
    assert grid.query(np.array([[0.3, 0.9, 0.1]])).shape == (1,)


def test_nan_free_training_step_with_hard_batch(lego_dataset):
    """A batch dominated by background rays must not produce NaNs."""
    from repro.nerf.hash_encoding import HashEncodingConfig
    from repro.nerf.model import ModelConfig
    from repro.nerf.trainer import Trainer, TrainerConfig

    model = InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=2, log2_table_size=6, base_resolution=4,
                finest_resolution=8,
            ),
            hidden_width=8,
            geo_features=4,
        )
    )
    trainer = Trainer(
        model,
        lego_dataset.cameras,
        lego_dataset.images,
        lego_dataset.normalizer,
        TrainerConfig(batch_rays=32, max_samples_per_ray=8, occupancy_resolution=4),
    )
    for _ in range(5):
        loss = trainer.train_step()
        assert np.isfinite(loss)
    for value in model.parameters().values():
        assert np.isfinite(value).all()
