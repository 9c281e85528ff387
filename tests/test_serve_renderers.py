"""Renderer-aware serving: tags, per-(scene, renderer) admission, hot-swap.

The serving-side contract of ``repro.pipeline``: deployed scenes carry
a renderer tag (inferred from the model type), the admission EWMA is
keyed per ``(scene, renderer)`` so one slow renderer cannot poison
another's deadline feasibility, and an ``ngp`` → ``tensorf`` hot-swap
drains cleanly with served frames bit-identical to each renderer's own
offline ``Renderer.render_image``.
"""

import numpy as np
import pytest

from repro.nerf.aabb import SceneNormalizer
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.tensorf import TensoRFConfig, TensoRFModel
from repro.pipeline import wrap_model
from repro.serve import (
    RenderRequest,
    RenderService,
    SceneRegistry,
    ServiceConfig,
    build_demo_registry,
    demo_camera,
    run_closed_loop,
)
from repro.serve.admission import REJECT_DEADLINE_INFEASIBLE
from repro.serve.registry import SceneRegistryError
from repro.serve.loadgen import demo_model


def _tensorf_model(seed=1):
    return TensoRFModel(
        TensoRFConfig(resolution=8, n_components=2, hidden_width=16), seed=seed
    )


def _normalizer():
    return SceneNormalizer(offset=np.array([-1.0, -1.0, -1.0]), scale=0.5)


def _permissive_occupancy(resolution=8):
    return OccupancyGrid(resolution=resolution)


# ----------------------------------------------------------- renderer tags


def test_deploy_infers_renderer_tags():
    registry = SceneRegistry()
    registry.deploy(
        "hash-scene",
        model=demo_model(seed=0),
        occupancy=_permissive_occupancy(),
        normalizer=_normalizer(),
    )
    registry.deploy(
        "vm-scene",
        model=_tensorf_model(),
        occupancy=_permissive_occupancy(),
        normalizer=_normalizer(),
    )
    tags = {s["name"]: s["renderer"] for s in registry.scenes()}
    assert tags == {"hash-scene": "ngp", "vm-scene": "tensorf"}
    handle = registry.acquire("vm-scene")
    assert handle.renderer.name == "tensorf"
    handle.release()


def test_deploy_accepts_explicit_renderer_tag():
    """A deployed renderer's own name is the scene's tag."""
    registry = SceneRegistry()
    renderer = wrap_model(demo_model(seed=0), name="ngp-int8")
    registry.deploy("scene", renderer=renderer, normalizer=_normalizer())
    assert registry.scenes()[0]["renderer"] == "ngp-int8"
    with pytest.raises(SceneRegistryError):  # a renderer carries its model
        registry.deploy(
            "scene", renderer=renderer, model=demo_model(), normalizer=_normalizer()
        )


# --------------------------------------- per-(scene, renderer) admission


def _two_renderer_service():
    registry = build_demo_registry(n_scenes=1)
    ngp_scene = registry.scenes()[0]["name"]
    handle = registry.acquire(ngp_scene)
    normalizer = handle.normalizer
    handle.release()
    registry.deploy(
        "vm-scene",
        model=_tensorf_model(),
        occupancy=_permissive_occupancy(),
        normalizer=normalizer,
    )
    service = RenderService(registry, config=ServiceConfig())
    return service, ngp_scene, "vm-scene"


def _terminal_status(service, scene, deadline_s, request_id):
    statuses = []
    request = RenderRequest(
        request_id=request_id,
        scene=scene,
        camera=demo_camera(8, 8),
        arrival_s=0.0,
        deadline_s=deadline_s,
    )
    service.submit(request, on_complete=lambda r: statuses.append(r.status))
    service.run()
    return statuses[-1]


def test_slow_renderer_estimate_does_not_poison_other_renderer():
    """Regression: a poisoned tensorf EWMA must not reject ngp requests.

    Before keying the EWMA per (scene, renderer), one estimate covered
    the whole service: a slow renderer's observation made every
    deadline look infeasible, including for scenes served by a fast
    renderer.
    """
    service, ngp_scene, vm_scene = _two_renderer_service()
    # One observed second-per-ray from a pathologically slow renderer.
    service.estimator.observe((vm_scene, "tensorf", "full"), 1, 1.0e3)
    # The ngp key has no estimate yet, so feasibility cannot be judged
    # -- the request must be admitted and complete, not rejected.
    assert (
        _terminal_status(service, ngp_scene, deadline_s=1.0, request_id=0)
        == "completed"
    )
    # The poisoned key itself *is* rejected as infeasible: the keying
    # isolates renderers without disabling the feasibility check.
    assert (
        _terminal_status(service, vm_scene, deadline_s=1.0, request_id=1)
        == REJECT_DEADLINE_INFEASIBLE
    )


def test_ewma_tracked_per_scene_and_renderer_key():
    service, ngp_scene, vm_scene = _two_renderer_service()
    camera = demo_camera(8, 8)
    run_closed_loop(service, ngp_scene, n_frames=1, camera=camera)
    run_closed_loop(service, vm_scene, n_frames=1, camera=camera)
    by_key = service.stats()["ewma_s_per_ray_by_key"]
    assert f"{ngp_scene}/ngp/full" in by_key
    assert f"{vm_scene}/tensorf/full" in by_key
    assert all(v > 0 for v in by_key.values())


# ------------------------------------------------------------- hot-swap


def test_hot_swap_ngp_to_tensorf_drains_bit_identically():
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    service = RenderService(registry, config=ServiceConfig(keep_frames=True))
    camera = demo_camera(12, 12)
    chunk = service.config.batch.slice_rays

    # Serve a frame from the ngp generation and pin its handle.
    before = run_closed_loop(service, scene, n_frames=1, camera=camera)
    old = registry.acquire(scene)
    assert old.renderer.name == "ngp"
    direct_ngp = old.renderer.render_image(camera, old.normalizer, chunk=chunk)
    assert np.array_equal(before.responses[0].frame, direct_ngp)

    # Hot-swap the scene to a tensorf generation while the old handle
    # is still live: the registry must retag and keep the old
    # generation intact until its refcount drains.
    registry.deploy(
        scene,
        model=_tensorf_model(seed=7),
        occupancy=_permissive_occupancy(),
        normalizer=old.normalizer,
    )
    row = next(s for s in registry.scenes() if s["name"] == scene)
    assert row["renderer"] == "tensorf"
    still_old = old.renderer.render_image(camera, old.normalizer, chunk=chunk)
    assert np.array_equal(still_old, direct_ngp)
    old.release()

    # Frames served after the swap come from the tensorf generation,
    # bit-identical to its own offline render.
    after = run_closed_loop(service, scene, n_frames=1, camera=camera)
    new = registry.acquire(scene)
    assert new.renderer.name == "tensorf"
    direct_tensorf = new.renderer.render_image(camera, new.normalizer, chunk=chunk)
    new.release()
    assert np.array_equal(after.responses[0].frame, direct_tensorf)
    assert not np.array_equal(direct_tensorf, direct_ngp)
