"""Serving study: latency–throughput curve and SLO attainment under load.

The paper's real-time claim is a *service-level* property: sustained FPS
within a latency budget.  This experiment drives the serve subsystem
(:mod:`repro.serve`) with an open-loop Poisson sweep over offered rates —
each row is one operating point of the latency–throughput curve, with
the admission ladder's shed/degrade counts — plus one single-client
closed-loop run whose frames are checked bit-identical against the
scene renderer's offline
:meth:`~repro.pipeline.renderer.Renderer.render_image` (the end-to-end
correctness anchor of the whole request path).

Overload behavior is the point of the top rates: queue growth is bounded
by admission control, p99 stays finite, and the service sheds or
degrades instead of collapsing.
"""

from __future__ import annotations

import math

import numpy as np

from ..serve import (
    AdmissionPolicy,
    RenderService,
    ServiceConfig,
    build_demo_registry,
    demo_camera,
    run_closed_loop,
    run_open_loop,
)
from .base import ExperimentResult

#: Billing multiplier: each probe frame is charged to the board as this
#: many probe frames' worth of samples, standing in for full-resolution
#: frames (the usual workload_scale linear extrapolation).
HW_SCALE = 400.0

#: Admission thresholds for the sweep, in rays — small enough that the
#: top offered rates actually exercise the degrade and shed rungs.
STUDY_ADMISSION = AdmissionPolicy(
    max_queue_rays=1 << 16,
    degrade_rays=1 << 14,
    heavy_degrade_rays=1 << 15,
)


def _open_loop_row(rate_hz: float, duration_s: float, n_scenes: int, camera):
    """One operating point: fresh registry + service at one offered rate."""
    registry = build_demo_registry(n_scenes=n_scenes)
    service = RenderService(
        registry, config=ServiceConfig(admission=STUDY_ADMISSION)
    )
    report = run_open_loop(
        service,
        [s["name"] for s in registry.scenes()],
        rate_hz=rate_hz,
        duration_s=duration_s,
        camera=camera,
        rng=np.random.default_rng(1000 + int(rate_hz)),
        hw_scale=HW_SCALE,
    )
    return report.row()


def run(quick: bool = True) -> ExperimentResult:
    """Sweep offered load and verify the closed-loop bit-identity anchor."""
    if quick:
        rates = (150.0, 400.0, 900.0, 2000.0)
        duration_s = 0.4
        n_scenes = 2
        camera = demo_camera(24, 24)
        n_frames = 3
    else:
        rates = (100.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0)
        duration_s = 1.0
        n_scenes = 4
        camera = demo_camera(32, 32)
        n_frames = 6
    rows = [
        _open_loop_row(rate, duration_s, n_scenes, camera) for rate in rates
    ]

    # Single closed-loop client: the latency floor of the curve, and the
    # bit-identity anchor — the served frame must equal a direct chunked
    # render of the same scene and camera exactly.
    registry = build_demo_registry(n_scenes=1)
    service = RenderService(registry, config=ServiceConfig(keep_frames=True))
    scene = registry.scenes()[0]["name"]
    closed = run_closed_loop(service, scene, n_frames=n_frames, camera=camera)
    handle = registry.acquire(scene)
    direct = handle.renderer.render_image(
        camera, handle.normalizer, chunk=service.config.batch.slice_rays
    )
    handle.release()
    bit_identical = all(
        r.completed and np.array_equal(r.frame, direct)
        for r in closed.responses
    )
    rows.append(closed.row())

    overload = rows[len(rates) - 1]
    summary = {
        "closed_loop_bit_identical": bool(bit_identical),
        "closed_loop_p50_ms": closed.row()["p50_ms"],
        "peak_achieved_fps": max(r["achieved_fps"] for r in rows[: len(rates)]),
        "overload_offered_hz": overload["offered_hz"],
        "overload_shed_or_degraded": bool(
            overload["shed"] + overload["rejected"] + overload["degraded"] > 0
        ),
        "overload_p99_finite": bool(math.isfinite(overload["p99_ms"])),
        "overload_p99_ms": overload["p99_ms"],
    }
    return ExperimentResult(
        experiment="serving_study",
        paper_ref="extension: serving latency-throughput & SLO attainment",
        rows=rows,
        summary=summary,
    )
