"""Chunked/sharded evaluation must be bit-identical to one-shot."""

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.nerf.camera import Camera, sphere_poses
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.rays import generate_rays
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.parallel import chunk_spans, parallel_map_chunks
from repro.pipeline import wrap_model
from repro.sim.trace import trace_from_rays


@pytest.fixture(scope="module")
def scene_rays():
    scene = synthetic.make_scene("lego")
    normalizer = scene.normalizer()
    occupancy = OccupancyGrid(resolution=32, threshold=0.5)
    occupancy.set_from_function(
        scene.density_unit, rng=np.random.default_rng(0)
    )
    camera = Camera(
        width=32, height=32, focal=35.2, c2w=sphere_poses(1, radius=2.6)[0]
    )
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    return scene, normalizer, occupancy, camera, origins, directions


def test_chunk_spans_cover_range():
    assert chunk_spans(10, 4) == [(0, 4), (4, 8), (8, 10)]
    assert chunk_spans(4, 4) == [(0, 4)]
    assert chunk_spans(0, 4) == []
    with pytest.raises(ValueError):
        chunk_spans(4, 0)


def test_parallel_map_chunks_order_independent_of_jobs():
    serial = parallel_map_chunks(lambda a, b: (a, b), 100, 7, jobs=1)
    threaded = parallel_map_chunks(lambda a, b: (a, b), 100, 7, jobs=4)
    assert serial == threaded == chunk_spans(100, 7)


@pytest.mark.parametrize("chunk,jobs", [(100, 1), (100, 3), (257, 2)])
def test_sample_chunked_bit_identical(scene_rays, chunk, jobs):
    _, _, occupancy, _, origins, directions = scene_rays
    marcher = RayMarcher(SamplerConfig(max_samples=48))
    one_shot = marcher.sample(origins, directions, occupancy=occupancy)
    chunked = marcher.sample_chunked(
        origins, directions, occupancy=occupancy, chunk=chunk, jobs=jobs
    )
    assert np.array_equal(one_shot.positions, chunked.positions)
    assert np.array_equal(one_shot.directions, chunked.directions)
    assert np.array_equal(one_shot.deltas, chunked.deltas)
    assert np.array_equal(one_shot.ts, chunked.ts)
    assert np.array_equal(one_shot.ray_idx, chunked.ray_idx)
    assert one_shot.candidates == chunked.candidates
    assert one_shot.n_rays == chunked.n_rays


def test_sample_chunked_jitter_falls_back_to_one_shot(scene_rays):
    _, _, occupancy, _, origins, directions = scene_rays
    marcher = RayMarcher(SamplerConfig(max_samples=32, jitter=True))
    one_shot = marcher.sample(
        origins, directions, occupancy=occupancy,
        rng=np.random.default_rng(3),
    )
    chunked = marcher.sample_chunked(
        origins, directions, occupancy=occupancy,
        rng=np.random.default_rng(3), chunk=100, jobs=2,
    )
    # Same RNG stream because the chunked call must not split it.
    assert np.array_equal(one_shot.ts, chunked.ts)


def test_trace_from_rays_chunked_identical(scene_rays):
    _, _, occupancy, _, origins, directions = scene_rays
    one_shot = trace_from_rays(origins, directions, occupancy, max_samples=48)
    chunked = trace_from_rays(
        origins, directions, occupancy, max_samples=48, chunk=128, jobs=2
    )
    assert one_shot.pair_durations == chunked.pair_durations
    assert one_shot.n_samples == chunked.n_samples
    assert one_shot.n_candidates == chunked.n_candidates
    assert one_shot.n_cells_visited == chunked.n_cells_visited
    assert np.array_equal(one_shot.samples_per_ray, chunked.samples_per_ray)


def test_render_image_jobs_invariant(scene_rays, tiny_model):
    _, normalizer, occupancy, camera, _, _ = scene_rays
    marcher = RayMarcher(SamplerConfig(max_samples=24))
    renderer = wrap_model(tiny_model, marcher=marcher, occupancy=occupancy)
    serial = renderer.render_image(camera, normalizer, chunk=200, jobs=1)
    threaded = renderer.render_image(camera, normalizer, chunk=200, jobs=4)
    assert np.array_equal(serial, threaded)
    assert serial.shape == (camera.height, camera.width, 3)
