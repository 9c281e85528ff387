"""The Fusion3D facade: end-to-end integration at miniature scale."""

import numpy as np
import pytest

from repro.core.fusion3d import Fusion3D, Fusion3DConfig
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import ModelConfig
from repro.nerf.trainer import TrainerConfig


def _mini_config(**overrides):
    return Fusion3DConfig(
        model=ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=3, log2_table_size=8, base_resolution=4,
                finest_resolution=16,
            ),
            hidden_width=16,
            geo_features=8,
        ),
        trainer=TrainerConfig(
            batch_rays=128, lr=5e-3, max_samples_per_ray=16,
            occupancy_resolution=8, occupancy_interval=8,
        ),
        **overrides,
    )


@pytest.fixture(scope="module")
def single_chip_run(mic_dataset_module):
    system = Fusion3D(_mini_config())
    rec = system.reconstruct(mic_dataset_module, iterations=20)
    return system, rec


@pytest.fixture(scope="module")
def mic_dataset_module():
    from repro.datasets import synthetic

    return synthetic.make_dataset("mic", n_views=6, width=24, height=24, gt_steps=64)


def test_reconstruct_reports(single_chip_run):
    _, rec = single_chip_run
    assert rec.iterations == 20
    assert rec.total_samples > 0
    assert np.isfinite(rec.psnr) and rec.psnr > 5.0
    assert rec.simulated_training_s > 0
    assert rec.simulated_power_w > 0
    assert rec.throughput_samples_per_s > 1e8  # hundreds of M samples/s


def test_mini_run_is_instant(single_chip_run):
    """A 20-iteration demo is far inside the 2-second envelope."""
    _, rec = single_chip_run
    assert rec.meets_instant_target


def test_render_after_reconstruct(single_chip_run, mic_dataset_module):
    system, _ = single_chip_run
    ren = system.render(mic_dataset_module, view=0)
    h = mic_dataset_module.cameras[0].height
    w = mic_dataset_module.cameras[0].width
    assert ren.image.shape == (h, w, 3)
    assert ren.image.min() >= 0.0 and ren.image.max() <= 1.0
    assert ren.meets_realtime_target
    assert ren.simulated_fps_800p > 30.0


def test_render_requires_reconstruct(mic_dataset_module):
    system = Fusion3D(_mini_config())
    with pytest.raises(RuntimeError):
        system.render(mic_dataset_module)
    with pytest.raises(RuntimeError):
        _ = system.model


def test_multi_chip_facade(mic_dataset_module):
    system = Fusion3D(_mini_config(multi_chip=True, n_chips=2))
    rec = system.reconstruct(mic_dataset_module, iterations=10)
    assert rec.total_samples >= 0
    assert rec.simulated_training_s > 0
    ren = system.render(mic_dataset_module, view=1)
    assert ren.image.shape[2] == 3
    # The fused frame comes out of the same float32 frame buffer as a
    # single chip's.
    assert ren.image.dtype == np.float32
    assert np.isfinite(ren.psnr)


def test_factory_methods():
    single = Fusion3D.single_chip()
    multi = Fusion3D.multi_chip(n_chips=2)
    assert not single.config.multi_chip
    assert multi.config.multi_chip
    assert multi.config.n_chips == 2
