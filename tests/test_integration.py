"""Cross-module integration: algorithm -> trace -> hardware, and the
renderer round trip."""

import numpy as np
import pytest

from repro.nerf.sampling import RayMarcher, SamplerConfig, batch_to_stats
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.nerf.volume_rendering import psnr
from repro.pipeline import wrap_model
from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.trace import trace_from_rays


def test_training_then_rendering_improves_psnr(lego_dataset, tiny_model):
    trainer = Trainer(
        tiny_model,
        lego_dataset.cameras[:5],
        lego_dataset.images[:5],
        lego_dataset.normalizer,
        TrainerConfig(
            batch_rays=256, lr=5e-3, max_samples_per_ray=24,
            occupancy_resolution=16, occupancy_interval=8,
        ),
    )
    camera = lego_dataset.cameras[5]
    target = lego_dataset.images[5]

    def held_out_psnr():
        image = wrap_model(
            tiny_model, marcher=trainer.marcher, occupancy=trainer.occupancy
        ).render_image(camera, lego_dataset.normalizer)
        return psnr(image, target)

    before = held_out_psnr()
    trainer.train(80)
    after = held_out_psnr()
    assert after > before + 1.0


def test_render_rays_returns_batch_and_result(tiny_model):
    marcher = RayMarcher(SamplerConfig(max_samples=16))
    origins = np.array([[-1.0, 0.5, 0.5]])
    directions = np.array([[1.0, 0.0, 0.0]])
    colors, batch, result = wrap_model(tiny_model, marcher=marcher).render_rays(
        origins, directions
    )
    assert colors.shape == (1, 3)
    assert len(batch) > 0
    assert result is not None
    stats = batch_to_stats(batch)
    assert stats["n_rays"] == 1
    assert stats["n_samples"] == len(batch)


def test_render_rays_all_miss_gives_background(tiny_model):
    marcher = RayMarcher(SamplerConfig(max_samples=16))
    renderer = wrap_model(tiny_model, marcher=marcher, background=0.5)
    colors, batch, result = renderer.render_rays(
        np.array([[9.0, 9.0, 9.0]]), np.array([[1.0, 0.0, 0.0]])
    )
    assert np.allclose(colors, 0.5)
    assert result is None


def test_render_image_chunking_invariant(tiny_model, mic_dataset):
    marcher = RayMarcher(SamplerConfig(max_samples=12))
    camera = mic_dataset.cameras[0]
    renderer = wrap_model(tiny_model, marcher=marcher)
    small = renderer.render_image(camera, mic_dataset.normalizer, chunk=64)
    large = renderer.render_image(camera, mic_dataset.normalizer, chunk=100000)
    assert np.allclose(small, large)
    with pytest.raises(ValueError):
        renderer.render_image(camera, mic_dataset.normalizer, chunk=0)


def test_real_scene_trace_drives_chip_simulation(tiny_trainer, mic_dataset):
    """The full co-simulation path: trained occupancy -> Stage I trace ->
    cycle simulation with sensible outputs."""
    tiny_trainer.train(10)
    from repro.nerf.rays import generate_rays

    camera = mic_dataset.cameras[0]
    rays = generate_rays(camera)
    origins, directions = mic_dataset.normalizer.rays_to_unit(
        rays.origins, rays.directions
    )
    trace = trace_from_rays(
        origins, directions, tiny_trainer.occupancy,
        encoding=tiny_trainer.model.encoding, max_samples=24,
    )
    assert trace.n_rays == camera.n_pixels
    chip = SingleChipAccelerator(ChipConfig.scaled())
    inf = chip.simulate(trace)
    trn = chip.simulate(trace, training=True)
    assert inf.runtime_s > 0
    assert trn.runtime_s > inf.runtime_s
    assert 0 < inf.energy_per_sample_j < 1e-7
