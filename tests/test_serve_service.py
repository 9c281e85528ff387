"""End-to-end service behavior: bit-identity, overload, SLO reporting, CLI."""

import numpy as np
import pytest

from repro.experiments import runner
from repro.serve import (
    AdmissionPolicy,
    BatchPolicy,
    PRIORITY_BATCH,
    RenderRequest,
    RenderService,
    ServiceConfig,
    build_demo_registry,
    demo_camera,
    run_closed_loop,
    run_open_loop,
)


@pytest.fixture(scope="module")
def registry():
    return build_demo_registry(n_scenes=2)


@pytest.fixture(scope="module")
def scenes(registry):
    return [s["name"] for s in registry.scenes()]


def _fresh_service(**config_kwargs):
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    service = RenderService(registry, config=ServiceConfig(**config_kwargs))
    return registry, scene, service


# -- the acceptance anchor: served pixels == direct render -----------------------


def test_closed_loop_frame_bit_identical_to_render_image():
    registry, scene, service = _fresh_service(keep_frames=True)
    camera = demo_camera(16, 16)
    report = run_closed_loop(service, scene, n_frames=2, camera=camera)
    handle = registry.acquire(scene)
    direct = handle.renderer.render_image(
        camera, handle.normalizer, chunk=service.config.batch.slice_rays
    )
    handle.release()
    assert report.completed == 2
    for response in report.responses:
        assert np.array_equal(response.frame, direct)


def test_coalesced_batches_keep_pixels_bit_identical():
    """Two competing requests coalesce into one dispatch; pixels must not
    change (each slice still renders through its own forward pass)."""
    registry, scene, service = _fresh_service(
        keep_frames=True,
        batch=BatchPolicy(slice_rays=64, max_batch_rays=512, max_wait_s=1e-3),
    )
    camera = demo_camera(8, 8)
    for i in range(2):
        service.submit(
            RenderRequest(
                request_id=i, scene=scene, camera=camera, arrival_s=0.0
            )
        )
    service.run()
    handle = registry.acquire(scene)
    direct = handle.renderer.render_image(camera, handle.normalizer, chunk=64)
    handle.release()
    assert service.batches_dispatched == 1  # genuinely coalesced
    for i in range(2):
        assert np.array_equal(service.responses[i].frame, direct)


def test_tile_request_matches_full_frame_crop():
    registry, scene, service = _fresh_service(keep_frames=True)
    camera = demo_camera(16, 16)
    tile = (4, 6, 12, 14)  # x0, y0, x1, y1
    service.submit(
        RenderRequest(
            request_id=0, scene=scene, camera=camera, arrival_s=0.0, tile=tile
        )
    )
    service.run()
    handle = registry.acquire(scene)
    full = handle.renderer.render_image(
        camera, handle.normalizer, chunk=service.config.batch.slice_rays
    )
    handle.release()
    frame = service.responses[0].frame
    assert frame.shape == (8, 8, 3)
    assert np.array_equal(frame, full[6:14, 4:12])


# -- overload: shed-or-degrade, bounded queues, finite tails ---------------------


def test_overload_sheds_and_degrades_without_unbounded_queues(scenes, registry):
    policy = AdmissionPolicy(
        max_queue_rays=2048,
        degrade_rays=512,
        heavy_degrade_rays=1024,
    )
    service = RenderService(registry, config=ServiceConfig(admission=policy))
    report = run_open_loop(
        service,
        scenes,
        rate_hz=4000.0,
        duration_s=0.1,
        camera=demo_camera(16, 16),
        rng=np.random.default_rng(7),
        hw_scale=2000.0,
    )
    row = report.row()
    assert service.admission.shed > 0
    assert service.admission.degraded > 0
    assert row["completed"] > 0
    assert np.isfinite(row["p99_ms"])
    # Bounded backpressure: the queue never exceeded cap + one request,
    # and everything admitted eventually drained.
    assert service.scheduler.queued_rays() == 0
    assert (
        row["completed"] + row["shed"] + row["rejected"] == report.n_offered
    )


def test_degraded_requests_render_smaller_frames():
    registry, scene, service = _fresh_service(
        keep_frames=True,
        admission=AdmissionPolicy(
            max_queue_rays=4096, degrade_rays=32, heavy_degrade_rays=64
        ),
    )
    camera = demo_camera(16, 16)
    # First request fills the queue past both degrade thresholds; the
    # second is admitted at half samples and half resolution.
    service.submit(
        RenderRequest(request_id=0, scene=scene, camera=camera, arrival_s=0.0)
    )
    service.submit(
        RenderRequest(request_id=1, scene=scene, camera=camera, arrival_s=0.0)
    )
    service.run()
    assert service.responses[0].degrade_level == 0
    assert service.responses[0].frame.shape == (16, 16, 3)
    assert service.responses[1].degrade_level == 2
    assert service.responses[1].frame.shape == (8, 8, 3)


def test_hw_scale_bills_more_board_time():
    results = []
    for hw_scale in (1.0, 50.0):
        _, scene, service = _fresh_service()
        run_closed_loop(
            service, scene, n_frames=2, camera=demo_camera(8, 8),
            hw_scale=hw_scale,
        )
        results.append(service.hardware_busy_s)
    assert results[1] > 10 * results[0]


# -- SLO reporting ---------------------------------------------------------------


def test_slo_report_greppable(scenes, registry):
    service = RenderService(registry)
    run_open_loop(
        service, scenes, rate_hz=100.0, duration_s=0.2,
        camera=demo_camera(8, 8), rng=np.random.default_rng(0),
    )
    text = service.report()
    assert "completed requests:" in text
    completed = int(
        next(
            line for line in text.splitlines()
            if line.startswith("completed requests:")
        ).split(":")[1]
    )
    assert completed == service.slo.completed > 0
    assert "interactive" in text and "p99" in text


def test_latency_throughput_rows_have_expected_columns(scenes, registry):
    service = RenderService(registry)
    report = run_open_loop(
        service, scenes, rate_hz=50.0, duration_s=0.2,
        camera=demo_camera(8, 8), rng=np.random.default_rng(1),
    )
    row = report.row()
    for key in ("offered_hz", "completed", "shed", "degraded",
                "achieved_fps", "p50_ms", "p95_ms", "p99_ms", "slo_met"):
        assert key in row
    assert report.achieved_fps > 0


# -- CLI -------------------------------------------------------------------------


def test_runner_serve_open_loop_cli(capsys):
    code = runner.main(
        ["serve", "--rate", "100", "--duration", "0.2", "--probe", "8",
         "--scenes", "1"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "completed requests:" in out
    assert "SLO attainment report" in out


def test_runner_serve_closed_loop_cli(capsys):
    code = runner.main(["serve", "--closed-loop", "2", "--probe", "8"])
    out = capsys.readouterr().out
    assert code == 0
    assert "completed requests: 2" in out


def test_serving_study_registered():
    assert "serving_study" in runner.REGISTRY


# -- stale cost estimates across hot-swaps ---------------------------------------


def test_hot_swap_snaps_stale_cost_estimate_and_blocks_doomed_deadlines():
    """A 2x-cost hot-swap must not cause a deadline-miss storm.

    Regression test for the stale-EWMA fix: after a hot-swap the old
    generation's s/ray estimate is kept only as an admission prior, and
    the first post-swap observation *replaces* it outright.  Without the
    snap, deadline admission would keep using the cheap generation's
    estimate for ~1/alpha dispatches, admitting requests that are
    already doomed under the expensive new weights.
    """
    from repro.nerf.occupancy import OccupancyGrid
    from repro.serve.admission import EWMA_ALPHA, REJECT_DEADLINE_INFEASIBLE
    from repro.serve.loadgen import demo_model

    registry, scene, service = _fresh_service()
    camera = demo_camera(8, 8)  # 64-ray probes
    key = (scene, "ngp", "full")
    for i in range(3):  # calibrate the estimate against generation 1
        service.submit(
            RenderRequest(
                request_id=i, scene=scene, camera=camera,
                arrival_s=service.now_s,
            )
        )
        service.run()
    est_old = service.estimator.estimate(key, 1)

    # Hot-swap a much costlier generation: a full occupancy grid keeps
    # every sample, so each ray bills far more board time.
    handle = registry.acquire(scene)
    normalizer, background = handle.normalizer, handle.background
    handle.release()
    registry.deploy(
        scene,
        model=demo_model(seed=1),
        occupancy=OccupancyGrid(resolution=16),
        normalizer=normalizer,
        background=background,
    )
    # the stale estimate is kept as the new generation's admission prior
    assert service.estimator.estimate(key, 2) == est_old

    busy_before = service.hardware_busy_s
    service.submit(
        RenderRequest(
            request_id=10, scene=scene, camera=camera,
            arrival_s=service.now_s,
        )
    )
    service.run()
    est_new = service.estimator.estimate(key, 2)
    observed = (service.hardware_busy_s - busy_before) / 64
    assert service.estimator.reblends == 1
    assert service.stats()["ewma_reblends"] == 1
    # snapped to the measurement, not EWMA-crawled toward it
    assert est_new == pytest.approx(observed)
    assert est_new > est_old * 1.5
    assert est_new > EWMA_ALPHA * observed + (1 - EWMA_ALPHA) * est_old

    # Deadlines sized between the stale and true cost: the stale
    # estimate would have admitted all of them (64 * est_old < slack),
    # dooming them to miss; the snapped estimate rejects them up front.
    t = service.now_s
    slack = 64 * (est_old + est_new) / 2
    for i in range(20, 26):
        service.submit(
            RenderRequest(
                request_id=i, scene=scene, camera=camera,
                arrival_s=t, deadline_s=t + slack,
            )
        )
    service.run()
    for i in range(20, 26):
        assert service.responses[i].status == REJECT_DEADLINE_INFEASIBLE
    # zero admitted-then-late requests: the storm never happens
    assert service.slo.completed == 4
