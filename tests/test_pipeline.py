"""The staged Renderer abstraction: registry, render paths, round trips.

The registry/wrap/checkpoint surfaces of ``repro.pipeline`` preserve
renderer names and frames across round trips; served-equals-offline
for every stage config lives in ``tests/test_stage_configs.py``.
"""

import numpy as np
import pytest

from repro import pipeline
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.tensorf import DenseGridConfig, DenseGridField, TensoRFConfig, TensoRFModel
from repro.pipeline import (
    OccupancySampler,
    Renderer,
    RendererRegistry,
    UnknownRendererError,
    VolumeCompositor,
)


@pytest.fixture
def marcher():
    return RayMarcher(SamplerConfig(max_samples=24))


@pytest.fixture
def unit_rays(mic_dataset):
    """A small batch of unit-cube rays from the shared dataset."""
    from repro.nerf.rays import generate_rays

    rays = generate_rays(mic_dataset.cameras[0])
    origins, directions = mic_dataset.normalizer.rays_to_unit(
        rays.origins, rays.directions
    )
    return origins[:64], directions[:64]


# ---------------------------------------------------------------- registry


def test_default_registry_ships_both_renderers():
    assert pipeline.available() == ["ngp", "tensorf"]


def test_create_ngp_by_name():
    renderer = pipeline.create(
        "ngp",
        config={
            "encoding": {
                "n_levels": 3,
                "n_features": 2,
                "log2_table_size": 8,
                "base_resolution": 4,
                "finest_resolution": 16,
            },
            "hidden_width": 16,
            "geo_features": 8,
            "max_samples": 24,
        },
        seed=0,
    )
    assert renderer.name == "ngp"
    assert renderer.marcher.config.max_samples == 24
    assert renderer.n_parameters > 0


def test_create_tensorf_by_name():
    renderer = pipeline.create(
        "tensorf", config={"resolution": 8, "n_components": 2, "hidden_width": 16}
    )
    assert renderer.name == "tensorf"
    assert isinstance(renderer.field, TensoRFModel)
    assert renderer.encoding is renderer.field.encoding


def test_unknown_renderer_raises():
    with pytest.raises(UnknownRendererError):
        pipeline.create("nerfacto")
    # UnknownRendererError is a KeyError so generic handlers still work.
    with pytest.raises(KeyError):
        pipeline.create("nerfacto")


def test_custom_registry_register_and_create(tiny_model):
    registry = RendererRegistry()
    assert registry.available() == []
    registry.register("custom", lambda config, seed: pipeline.wrap_model(tiny_model, name="custom"))
    assert registry.available() == ["custom"]
    assert registry.create("custom").name == "custom"
    with pytest.raises(ValueError):
        registry.register("", lambda config, seed: None)


def test_renderer_name_for_known_and_fallback(tiny_model):
    assert pipeline.renderer_name_for(tiny_model) == "ngp"
    assert (
        pipeline.renderer_name_for(
            TensoRFModel(TensoRFConfig(resolution=8, n_components=2, hidden_width=16))
        )
        == "tensorf"
    )
    assert (
        pipeline.renderer_name_for(
            DenseGridField(DenseGridConfig(resolution=8, n_features=2, hidden_width=16))
        )
        == "tensorf"
    )
    assert pipeline.renderer_name_for(object()) == "object"


def test_wrap_model_infers_name(tiny_model):
    assert pipeline.wrap_model(tiny_model).name == "ngp"
    assert pipeline.wrap_model(tiny_model, name="ngp-frozen").name == "ngp-frozen"


# ------------------------------------------------------------ render paths


def test_render_rays_empty_batch_background(tiny_model, marcher, unit_rays):
    origins, directions = unit_rays
    dead = OccupancyGrid(resolution=4)
    dead.mask[...] = False
    renderer = pipeline.wrap_model(
        tiny_model, marcher=marcher, occupancy=dead, background=0.25
    )
    colors, batch, result = renderer.render_rays(origins, directions)
    assert len(batch) == 0 and result is None
    assert colors.shape == (len(origins), 3)
    assert np.all(colors == 0.25)


def test_tensorf_renderer_renders_frames(mic_dataset):
    renderer = pipeline.create(
        "tensorf",
        config={"resolution": 8, "n_components": 2, "hidden_width": 16, "max_samples": 16},
    )
    frame = renderer.render_image(mic_dataset.cameras[0], mic_dataset.normalizer)
    camera = mic_dataset.cameras[0]
    assert frame.shape == (camera.height, camera.width, 3)
    assert np.all(np.isfinite(frame))
    assert np.all((frame >= 0.0) & (frame <= 1.0))


# ------------------------------------------------------------- round trips


def test_checkpoint_round_trip_preserves_name_and_frames(
    tmp_path, marcher, mic_dataset, full_occupancy
):
    original = pipeline.create(
        "tensorf",
        config={"resolution": 8, "n_components": 2, "hidden_width": 16, "max_samples": 24},
        seed=3,
    )
    original.sampler = OccupancySampler(marcher, full_occupancy)
    path = tmp_path / "scene.npz"
    original.save(path, normalizer=mic_dataset.normalizer)
    loaded, normalizer = pipeline.load_renderer(path)
    assert loaded.name == "tensorf"
    assert loaded.occupancy is not None
    assert np.array_equal(loaded.occupancy.mask, full_occupancy.mask)
    # Pin the same marcher on both sides: the proof is about the field
    # weights and occupancy surviving the round trip bit-for-bit.
    loaded.sampler = OccupancySampler(marcher, loaded.occupancy)
    camera = mic_dataset.cameras[1]
    assert np.array_equal(
        loaded.render_image(camera, normalizer),
        original.render_image(camera, mic_dataset.normalizer),
    )


def test_stage_base_classes_are_abstract(tiny_model):
    from repro.pipeline.stages import Compositor, Encoding, Field, Sampler

    with pytest.raises(NotImplementedError):
        Sampler().sample(np.zeros((1, 3)), np.zeros((1, 3)))
    with pytest.raises(NotImplementedError):
        Compositor().render(tiny_model, None, 1.0)
    with pytest.raises(NotImplementedError):
        Encoding().forward(np.zeros((1, 3)))
    with pytest.raises(NotImplementedError):
        Field().forward(np.zeros((1, 3)), np.zeros((1, 3)))


def test_direct_assembly_defaults(tiny_model):
    renderer = Renderer("ngp", tiny_model)
    assert isinstance(renderer.sampler, OccupancySampler)
    assert isinstance(renderer.compositor, VolumeCompositor)
    assert renderer.occupancy is None
    assert renderer.background == 1.0
