"""Served frame == offline frame, for every renderer stage config.

One scene is deployed as each stage config the pipeline assembles and
served through both :class:`RenderService` and :class:`FleetController`.
Each full-quality served frame must equal that renderer's own offline
``render_image`` at the serving slice size, and every non-exact config
must change the pixels, so the configured stages made the frame.
"""

import dataclasses

import numpy as np
import pytest

from repro import pipeline
from repro.fleet import FleetConfig, FleetController
from repro.nerf.aabb import SceneNormalizer
from repro.nerf.model import InstantNGPModel
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.serve import (
    BatchPolicy,
    RenderService,
    SceneRegistry,
    ServiceConfig,
    demo_camera,
    run_closed_loop,
)

#: Slice granularity of both tiers; the 16x16 probe frame spans 4 slices.
SLICE_RAYS = 64

#: name -> ``wrap_model`` stage keywords.
STAGE_CONFIGS = {
    "full": {},
    "ert": {"ert_threshold": 1e-2},
    "fp16": {"precision": "fp16"},
    "fp16-int8": {"precision": "fp16-int8"},
    "adaptive": {"precision": "fp16-int8", "switch_threshold": 0.5},
}

NORMALIZER = SceneNormalizer(offset=np.array([-1.0, -1.0, -1.0]), scale=0.5)


def _renderer(model, config: str):
    return pipeline.wrap_model(
        model,
        marcher=RayMarcher(SamplerConfig(max_samples=32)),
        occupancy=OccupancyGrid(resolution=8),
        **STAGE_CONFIGS[config],
    )


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("tier", ["serve", "fleet"])
@pytest.mark.parametrize("config", sorted(STAGE_CONFIGS))
def test_served_frame_equals_offline_for_every_stage_config(
    config, tier, seed, tiny_model_config
):
    # Opaque enough that ERT and the precision switch actually fire.
    model = InstantNGPModel(
        dataclasses.replace(tiny_model_config, density_bias=10.0), seed=seed
    )
    renderer = _renderer(model, config)
    registry = SceneRegistry()
    registry.deploy("scene", renderer=renderer, normalizer=NORMALIZER)
    assert registry.scenes()[0]["precision"] == renderer.precision
    if tier == "serve":
        batch = BatchPolicy(slice_rays=SLICE_RAYS, max_batch_rays=256)
        server = RenderService(
            registry, config=ServiceConfig(keep_frames=True, batch=batch)
        )
    else:
        server = FleetController(
            registry, config=FleetConfig(slice_rays=SLICE_RAYS, keep_frames=True)
        )
    camera = demo_camera(16, 16)
    report = run_closed_loop(server, "scene", n_frames=2, camera=camera)

    offline = renderer.render_image(camera, NORMALIZER, chunk=SLICE_RAYS)
    assert report.completed == 2
    for response in report.responses:
        assert response.degrade_level == 0
        assert np.array_equal(response.frame, offline)
    exact = _renderer(model, "full").render_image(
        camera, NORMALIZER, chunk=SLICE_RAYS
    )
    assert np.array_equal(offline, exact) == (config == "full")
