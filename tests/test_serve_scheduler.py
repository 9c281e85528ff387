"""Scheduler and admission edge cases.

Covers the four serving corner cases the subsystem must get right:
max-wait expiry with an empty queue, deadlines already expired at
admission, scenes evicted mid-request, and single-ray frames.
"""

import numpy as np
import pytest

from repro.serve import (
    BatchPolicy,
    DynamicRayBatchScheduler,
    RenderRequest,
    RenderService,
    ServiceConfig,
    build_demo_registry,
    demo_camera,
    run_closed_loop,
)
from repro.serve.admission import (
    AdmissionController,
    AdmissionPolicy,
    REJECT_DEADLINE_EXPIRED,
    REJECT_SHED,
)
from repro.serve.batching import activate_request, slice_request
from repro.serve.scheduler import ACTION_DISPATCH, ACTION_IDLE, ACTION_WAIT


@pytest.fixture(scope="module")
def registry():
    return build_demo_registry(n_scenes=1)


@pytest.fixture(scope="module")
def scene(registry):
    return registry.scenes()[0]["name"]


def _active(registry, scene, camera, now=0.0, request_id=0, priority=1):
    handle = registry.acquire(scene)
    request = RenderRequest(
        request_id=request_id,
        scene=scene,
        camera=camera,
        arrival_s=now,
        priority=priority,
    )
    return activate_request(
        request, handle, handle.renderer,
        handle.marcher.config.max_samples, 1.0, 0, now,
    )


# -- edge case 1: max-wait expiry with an empty queue ----------------------------


def test_empty_queue_never_flushes_a_batch(registry, scene):
    scheduler = DynamicRayBatchScheduler(BatchPolicy(max_wait_s=1e-3))
    # Far past any max-wait horizon: still idle, never a zero-ray dispatch.
    assert scheduler.next_action(1e6) == (ACTION_IDLE, None)
    assert scheduler.next_action(1e6, next_arrival_s=1e6 + 1.0) == (
        ACTION_WAIT, 1e6 + 1.0,
    )
    # Drain a real queue, then expire the timer again: idle, not dispatch.
    active = _active(registry, scene, demo_camera(4, 4))
    scheduler.enqueue(scene, slice_request(active, 64), now=0.0)
    action, batch = scheduler.next_action(0.5)
    assert action == ACTION_DISPATCH and batch.n_rays == 16
    assert scheduler.next_action(10.0) == (ACTION_IDLE, None)
    assert scheduler.batches_formed == 1
    active.handle.release()


def test_partial_batch_waits_then_flushes(registry, scene):
    policy = BatchPolicy(slice_rays=64, max_batch_rays=4096, max_wait_s=2e-3)
    scheduler = DynamicRayBatchScheduler(policy)
    active = _active(registry, scene, demo_camera(4, 4))
    scheduler.enqueue(scene, slice_request(active, policy.slice_rays), now=1.0)
    # Under the batch cap and inside the wait window: hold for coalescing.
    action, wake = scheduler.next_action(1.0)
    assert action == ACTION_WAIT and wake == pytest.approx(1.0 + 2e-3)
    # Window expired: flush whatever is pooled.
    action, batch = scheduler.next_action(wake)
    assert action == ACTION_DISPATCH and batch.n_rays == 16
    active.handle.release()


def test_batches_coalesce_across_requests_up_to_cap(registry, scene):
    policy = BatchPolicy(slice_rays=8, max_batch_rays=32, max_wait_s=1e-3)
    scheduler = DynamicRayBatchScheduler(policy)
    actives = [
        _active(registry, scene, demo_camera(4, 4), request_id=i)
        for i in range(4)
    ]
    for active in actives:  # 16 rays each -> 2 slices of 8
        scheduler.enqueue(scene, slice_request(active, 8), now=0.0)
    action, batch = scheduler.next_action(0.0)
    assert action == ACTION_DISPATCH
    assert batch.n_rays == 32  # capped, slices never split
    assert batch.n_requests == 2
    for active in actives:
        active.handle.release()


# -- edge case 2: deadline already expired at admission --------------------------


def test_deadline_expired_rejected_at_admission():
    controller = AdmissionController(AdmissionPolicy())
    request = RenderRequest(
        request_id=0, scene="s", camera=demo_camera(4, 4),
        arrival_s=5.0, deadline_s=4.0,
    )
    decision = controller.decide(request, now=5.0, queued_rays=0,
                                 full_samples_per_ray=32)
    assert not decision.admitted
    assert decision.status == REJECT_DEADLINE_EXPIRED
    assert controller.rejected_deadline == 1


def test_deadline_expired_end_to_end(registry, scene):
    service = RenderService(registry)
    request = RenderRequest(
        request_id=7, scene=scene, camera=demo_camera(4, 4),
        arrival_s=0.0, deadline_s=0.0,
    )
    service.submit(request)
    service.run()
    assert service.responses[7].status == REJECT_DEADLINE_EXPIRED
    assert service.slo.completed == 0


def test_shed_above_queue_cap_spares_interactive():
    policy = AdmissionPolicy(
        max_queue_rays=100, degrade_rays=10, heavy_degrade_rays=50,
        shed_spares_priority=0,
    )
    controller = AdmissionController(policy)
    camera = demo_camera(4, 4)
    batch_req = RenderRequest(request_id=0, scene="s", camera=camera, priority=2)
    inter_req = RenderRequest(request_id=1, scene="s", camera=camera, priority=0)
    shed = controller.decide(batch_req, 0.0, queued_rays=101,
                             full_samples_per_ray=32)
    assert not shed.admitted and shed.status == REJECT_SHED
    spared = controller.decide(inter_req, 0.0, queued_rays=101,
                               full_samples_per_ray=32)
    assert spared.admitted and spared.degrade_level == 2
    assert spared.samples_per_ray == 16 and spared.resolution_scale == 0.5


# -- edge case 3: scene evicted mid-request --------------------------------------


def test_scene_evicted_mid_request_fails_cleanly():
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    service = RenderService(registry)
    service._admit(
        RenderRequest(
            request_id=3, scene=scene, camera=demo_camera(8, 8), arrival_s=0.0
        )
    )
    assert service.scheduler.queued_rays() == 64
    registry.undeploy(scene, force=True)
    service.run()
    response = service.responses[3]
    assert response.status == "failed_scene_evicted"
    assert service.slo.status_counts()["failed_scene_evicted"] == 1
    # The dead request's slices never reached the hardware.
    assert service.hardware_busy_s == 0.0
    # The handle was released: the retired generation is fully freed.
    assert registry.memory_bytes == 0


def test_unknown_scene_fails_at_admission(registry):
    service = RenderService(registry)
    service.submit(
        RenderRequest(request_id=1, scene="ghost", camera=demo_camera(4, 4))
    )
    service.run()
    assert service.responses[1].status == "failed_unknown_scene"


# -- edge case 4: single-ray frames ----------------------------------------------


def test_single_ray_frame_serves_end_to_end():
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    service = RenderService(registry, config=ServiceConfig(keep_frames=True))
    camera = demo_camera(1, 1)
    report = run_closed_loop(service, scene, n_frames=2, camera=camera)
    assert report.completed == 2
    frame = report.responses[0].frame
    assert frame.shape == (1, 1, 3)
    assert np.all((frame >= 0.0) & (frame <= 1.0))


def test_single_ray_slice_boundaries(registry, scene):
    active = _active(registry, scene, demo_camera(1, 1))
    slices = slice_request(active, 4096)
    assert len(slices) == 1
    assert slices[0].n_rays == 1
    active.handle.release()
