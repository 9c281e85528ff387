"""The four workloads: render, train, serve and fleet.

Every workload follows the same shape.  It builds its inputs from the
seed (views, arrival schedules; not timed), sets the program up
:data:`SETUP_REPEATS` times (timed; the last instance is the one
measured), runs its measured part inside the recorder's ``timed`` phase,
then checks the program's outputs.  It drives the program only through
its public API, in one process, with ``jobs=1`` and no thread pools of
its own.

``render`` and ``train`` are closed loops with one client: the next
frame or step starts when the previous one returns, and latency is wall
time.  ``serve`` and ``fleet`` are open loops: the whole arrival
schedule is submitted on the virtual clock before ``run()``, so the
generator cannot run late, and latency is virtual time from each
request's scheduled arrival to its completion.  Every wall time is
rescaled to the nominal machine speed by :class:`bench.clock.SpeedClock`.
"""

from __future__ import annotations

import math
import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.datasets import synthetic
from repro.datasets.generator import build_dataset, camera_on_sphere_poses
from repro.experiments.fleet_churn import churn_fleet_config
from repro.fleet import FleetController, HashRing
from repro.fleet.controller import status_bucket
from repro.nerf.camera import Camera, sphere_poses
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.nerf.volume_rendering import psnr
from repro.pipeline import wrap_model
from repro.robustness.faults import FaultPlan, FleetFaultConfig
from repro.serve.batching import RenderRequest
from repro.serve.loadgen import (
    DEFAULT_PRIORITY_MIX,
    build_demo_registry,
    demo_camera,
    demo_model,
)
from repro.serve.service import RenderService
from repro.serve.slo import DEFAULT_TARGETS

from .clock import SpeedClock
from .layers import SETUP, TIMED

#: Set-up runs this many times per run; ``setup_s`` is the median.
SETUP_REPEATS = 5
#: Closed loops run at least this many operations, so that p90 has ten
#: samples beyond it.
MIN_OPS = 100

#: The online session's field: 4 levels x 2 features, 2^12-entry tables,
#: resolutions 8..64, 32-wide MLPs.
SESSION_MODEL = ModelConfig(
    encoding=HashEncodingConfig(
        n_levels=4,
        n_features=2,
        log2_table_size=12,
        base_resolution=8,
        finest_resolution=64,
    ),
    hidden_width=32,
    geo_features=15,
)
MAX_SAMPLES = 32
TRAINER = TrainerConfig(
    batch_rays=512, max_samples_per_ray=MAX_SAMPLES, occupancy_interval=8
)
#: Training and held-out views: 32x32 pixels on the sphere cap the
#: object datasets are captured from.
VIEW_PIXELS = 32
VIEW_RADIUS = 2.6
VIEW_ELEVATIONS = (0.2, 1.1)

#: ``mic`` is sparse and ``ship`` dense.  Three sparse frames to two
#: dense ones put p50 inside the mic frame times and p90 inside the ship
#: frame times; a 50/50 mix would put the median in the gap between them.
RENDER_SCENES = ("mic", "ship")
RENDER_PATTERN = ("mic", "ship", "mic", "ship", "mic")
RENDER_PIXELS = 64
RENDER_TRAIN_STEPS = 150
RENDER_HOLDOUT_VIEWS = 4
#: Mean held-out PSNR each rendered scene must reach: about halfway
#: between an untrained field (mic 23 dB: it is mostly background; ship
#: 8 dB) and the reconstruction (mic 33 dB, ship 18 dB).
RENDER_MIN_PSNR_DB = {"mic": 28.0, "ship": 13.0}

TRAIN_SCENE = "lego"
TRAIN_SWEEP_VIEWS = 14
#: Interior views of the sweep, held out: the training views surround them.
TRAIN_HOLDOUT = (2, 5, 8, 11)
TRAIN_STEPS = 400
TRAIN_EVAL_EVERY = 25
TRAIN_TARGET_PSNR_DB = 23.0

#: Requests carry 16x16 probes billed as ``HW_SCALE`` probe frames each.
PROBE_PIXELS = 16
SERVE_SCENES = ("mic", "ship")
SERVE_RATE_HZ = 240.0
SERVE_HW_SCALE = 1600.0
#: Requests per ``--seconds`` of run length.
SERVE_REQUESTS_PER_S = 100
FLEET_SCENES = ("mic", "ship", "lego", "chair")
FLEET_RATE_HZ = 200.0
FLEET_HW_SCALE = 400.0
FLEET_REQUESTS_PER_S = 50
#: Shares of the arrival horizon at which the primary of ``mic`` crashes
#: and ``ship`` is hot-swapped to a costlier generation.
FLEET_KILL_AT = 0.15
FLEET_SWAP_AT = 0.2
#: Completed full-quality frames per scene (and generation) compared
#: against an offline render.
CHECKED_FRAMES = 2
#: Serve and fleet time the machine's speed every this many terminal
#: responses (see :mod:`bench.clock`).
LAP_EVERY = 25


@dataclass
class Outcome:
    """What one workload run measured, before it becomes metrics."""

    #: Operations offered, and those that errored (frames or losses that
    #: are not finite; requests the program accepted and could not finish).
    attempted: int
    failed: int
    #: Operations that succeeded within their deadline (render and train
    #: operations have none).
    good: int
    setup_s: list
    #: Per-operation latency: rescaled wall time for render/train, virtual
    #: time for serve/fleet.
    latency_ms: list
    #: Rescaled wall seconds the measured operations took.
    busy_s: float
    checks: dict
    #: Per-layer numbers the program reports itself (virtual time, counts).
    counters: dict = field(default_factory=dict)


def rng(seed: int, stream: str) -> np.random.Generator:
    """An independent generator for one input stream of one seed."""
    return np.random.default_rng([seed, zlib.crc32(stream.encode())])


def timed_setup(build, recorder):
    """Run ``build`` :data:`SETUP_REPEATS` times; return the last result and the times."""
    clock = SpeedClock(recorder)
    clock.tick()
    raw = []
    for _ in range(SETUP_REPEATS):
        with recorder.phase(SETUP):
            start = time.perf_counter()
            built = build()
            raw.append(time.perf_counter() - start)
        clock.tick()
    return built, clock.scaled(raw)


def view_poses(seed: int, stream: str, n: int) -> list:
    """``n`` seeded camera poses on the capture cap, looking at the object."""
    return camera_on_sphere_poses(
        n, VIEW_RADIUS, rng(seed, stream), elevation_range=VIEW_ELEVATIONS
    )


def camera_stream(seed: int, stream: str, pixels: int):
    """An endless seeded camera sequence; its prefixes do not depend on length."""
    gen = rng(seed, stream)
    while True:
        (pose,) = camera_on_sphere_poses(
            1, VIEW_RADIUS, gen, elevation_range=VIEW_ELEVATIONS
        )
        yield Camera(pixels, pixels, 1.1 * pixels, pose)


def apportion(n: int, weights) -> list:
    """Split ``n`` into integer counts proportional to ``weights``."""
    total = float(sum(weights))
    shares = [n * w / total for w in weights]
    counts = [math.floor(s) for s in shares]
    by_remainder = sorted(range(len(shares)), key=lambda i: counts[i] - shares[i])
    for i in by_remainder[: n - sum(counts)]:
        counts[i] += 1
    return counts


def open_loop_schedule(seed: int, stream: str, n: int, rate_hz: float, scenes) -> list:
    """``(arrival_s, scene, priority)`` for ``n`` open-loop requests.

    Arrival times are a Poisson process at ``rate_hz`` given exactly
    ``n`` arrivals in ``[0, n / rate_hz)``: sorted uniform draws.  Scenes
    are equally represented and priorities follow
    ``DEFAULT_PRIORITY_MIX`` exactly, each in a seeded order, so the
    offered work does not change from seed to seed; only its order and
    burstiness do.
    """
    gen = rng(seed, stream)
    arrivals = np.sort(gen.uniform(0.0, n / rate_hz, size=n))
    picks = gen.permutation(np.arange(n) % len(scenes))
    classes = [p for p, _ in DEFAULT_PRIORITY_MIX]
    counts = apportion(n, [w for _, w in DEFAULT_PRIORITY_MIX])
    priorities = gen.permutation(np.repeat(classes, counts))
    return [
        (float(t), scenes[int(s)], int(p))
        for t, s, p in zip(arrivals, picks, priorities)
    ]


def sweep_poses(seed: int, stream: str, n: int) -> list:
    """A golden-angle sweep of the capture cap, turned about the vertical
    axis by a seeded angle and jittered by the same generator."""
    gen = rng(seed, stream)
    angle = gen.uniform(0.0, 2.0 * np.pi)
    turn = np.eye(4)
    turn[:2, :2] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
    return [turn @ pose for pose in sphere_poses(n, VIEW_RADIUS, rng=gen)]


def _request(i: int, arrival_s: float, scene: str, priority: int, camera, hw_scale: float):
    return RenderRequest(
        request_id=i,
        scene=scene,
        camera=camera,
        arrival_s=arrival_s,
        priority=priority,
        deadline_s=arrival_s + DEFAULT_TARGETS[priority].latency_s,
        hw_scale=hw_scale,
    )


def _within_slo(response) -> bool:
    return (
        response.completed
        and response.latency_s <= DEFAULT_TARGETS[response.priority].latency_s
    )


def _serving_outcome(responses, n: int, setup_s, clock, checks, counters) -> Outcome:
    responses = list(responses)
    counters["machine.calibration_ms"] = clock.median_calibration_s * 1e3
    return Outcome(
        attempted=n,
        failed=sum(status_bucket(r.status) == "failed" for r in responses),
        good=sum(_within_slo(r) for r in responses),
        setup_s=setup_s,
        latency_ms=[r.latency_s * 1e3 for r in responses if r.completed],
        busy_s=sum(clock.scaled(clock.laps)),
        checks=checks,
        counters=counters,
    )


def _scene_state(registry, name: str) -> tuple:
    """What an offline render of the current generation of ``name`` needs."""
    handle = registry.acquire(name)
    try:
        return (
            handle.model,
            handle.occupancy,
            handle.marcher,
            handle.background,
            handle.normalizer,
        )
    finally:
        handle.release()


def _served_equals_offline(frames, state, camera, chunk: int) -> bool:
    """Whether every captured frame equals the scene rendered outside serving."""
    model, occupancy, marcher, background, normalizer = state
    renderer = wrap_model(
        model, marcher=marcher, occupancy=occupancy, background=background
    )
    reference = renderer.render_image(camera, normalizer, chunk=chunk)
    return len(frames) == CHECKED_FRAMES and all(
        np.array_equal(frame, reference) for frame in frames
    )


# -- render ----------------------------------------------------------------


def render(seed: int, seconds: float, recorder) -> Outcome:
    """Closed-loop 64x64 frames of a trained sparse and a trained dense scene.

    The scenes are reconstructed first from a fixed view sweep with the
    trainer's default seed (not timed), so the seed only picks the views
    rendered.  Set-up is ``wrap_model`` plus the first frame of each
    scene.  Frames follow :data:`RENDER_PATTERN` until ``seconds`` have
    passed and at least :data:`MIN_OPS` were rendered.
    """
    scenes = {}
    for name in RENDER_SCENES:
        data = synthetic.make_dataset(
            name, n_views=10, width=VIEW_PIXELS, height=VIEW_PIXELS
        )
        trainer = Trainer(
            InstantNGPModel(SESSION_MODEL), data.cameras, data.images, data.normalizer, TRAINER
        )
        trainer.train_steps(RENDER_TRAIN_STEPS)
        holdout = build_dataset(
            data.scene,
            view_poses(seed, f"render.holdout.{name}", RENDER_HOLDOUT_VIEWS),
            width=VIEW_PIXELS,
            height=VIEW_PIXELS,
        )
        scenes[name] = (trainer, data.normalizer, holdout)
    first = Camera(
        RENDER_PIXELS, RENDER_PIXELS, 1.1 * RENDER_PIXELS, sphere_poses(1, VIEW_RADIUS)[0]
    )

    def build():
        renderers = {}
        for name, (trainer, normalizer, _) in scenes.items():
            renderers[name] = wrap_model(
                trainer.model,
                marcher=RayMarcher(SamplerConfig(max_samples=MAX_SAMPLES)),
                occupancy=trainer.occupancy,
            )
            renderers[name].render_image(first, normalizer)
        return renderers

    renderers, setup_s = timed_setup(build, recorder)
    cameras = camera_stream(seed, "render.views", RENDER_PIXELS)
    clock = SpeedClock(recorder)
    raw = []
    failed = 0
    with recorder.phase(TIMED):
        clock.tick()
        start = time.perf_counter()
        while len(raw) < MIN_OPS or time.perf_counter() - start < seconds:
            for name in RENDER_PATTERN:
                camera = next(cameras)
                t0 = time.perf_counter()
                frame = renderers[name].render_image(camera, scenes[name][1])
                raw.append(time.perf_counter() - t0)
                clock.tick()
                failed += not bool(np.isfinite(frame).all())
    frame_s = clock.scaled(raw)
    scene_psnr = {
        name: float(
            np.mean(
                [
                    psnr(renderers[name].render_image(camera, normalizer), image)
                    for camera, image in zip(holdout.cameras, holdout.images)
                ]
            )
        )
        for name, (_, normalizer, holdout) in scenes.items()
    }
    checks = {"frames_finite": failed == 0}
    for name, value in scene_psnr.items():
        floor = RENDER_MIN_PSNR_DB[name]
        checks[f"{name}_psnr_at_least_{floor:g}db"] = value >= floor
    return Outcome(
        attempted=len(frame_s),
        failed=failed,
        good=len(frame_s) - failed,
        setup_s=setup_s,
        latency_ms=[s * 1e3 for s in frame_s],
        busy_s=sum(frame_s),
        checks=checks,
        counters={
            "quality.psnr_db": float(np.mean(list(scene_psnr.values()))),
            "occupancy.live_frac": float(
                np.mean([t.occupancy.occupancy_fraction for t, _, _ in scenes.values()])
            ),
            "machine.calibration_ms": clock.median_calibration_s * 1e3,
        },
    )


# -- train -----------------------------------------------------------------


def train(seed: int, seconds: float, recorder) -> Outcome:
    """:data:`TRAIN_STEPS` training steps on ``lego`` with held-out PSNR.

    The seed picks the captured views: a turned, jittered sweep of the
    cap, whose interior views :data:`TRAIN_HOLDOUT` are held out.  The
    model and the trainer keep their default seeds, as a user's
    reconstruction would.  Set-up builds the model and trainer and takes
    the first step.  Held-out PSNR is measured every
    :data:`TRAIN_EVAL_EVERY` steps, off the clock.  The run length is set
    by the quality target, not by ``seconds``.
    """
    poses = sweep_poses(seed, "train.views", TRAIN_SWEEP_VIEWS)
    held = [i in TRAIN_HOLDOUT for i in range(len(poses))]
    data = build_dataset(
        synthetic.make_scene(TRAIN_SCENE),
        [p for p, h in zip(poses, held) if not h] + [p for p, h in zip(poses, held) if h],
        width=VIEW_PIXELS,
        height=VIEW_PIXELS,
    )
    cameras, images, holdout_cameras, holdout_images = data.split(
        TRAIN_SWEEP_VIEWS - len(TRAIN_HOLDOUT)
    )

    def build():
        trainer = Trainer(
            InstantNGPModel(SESSION_MODEL), cameras, images, data.normalizer, TRAINER
        )
        trainer.train_step()
        return trainer

    trainer, setup_s = timed_setup(build, recorder)
    clock = SpeedClock(recorder)
    raw = []
    failed = 0
    history = []
    with recorder.phase(TIMED):
        clock.tick()
        for step in range(2, TRAIN_STEPS + 1):
            t0 = time.perf_counter()
            loss = trainer.train_step()
            raw.append(time.perf_counter() - t0)
            clock.tick()
            failed += not math.isfinite(loss)
            if step % TRAIN_EVAL_EVERY == 0:
                history.append((len(raw), trainer.eval_psnr(holdout_cameras, holdout_images)))
    step_s = clock.scaled(raw)
    reached = next((n for n, score in history if score >= TRAIN_TARGET_PSNR_DB), None)
    return Outcome(
        attempted=len(step_s),
        failed=failed,
        good=len(step_s) - failed,
        setup_s=setup_s,
        latency_ms=[s * 1e3 for s in step_s],
        busy_s=sum(step_s),
        checks={
            "losses_finite": failed == 0,
            f"holdout_reaches_{TRAIN_TARGET_PSNR_DB:g}db": reached is not None,
        },
        counters={
            "quality.psnr_db": history[-1][1],
            "trainer.time_to_psnr_s": (
                setup_s[-1] + sum(step_s[:reached]) if reached is not None else 0.0
            ),
            "occupancy.live_frac": trainer.occupancy.occupancy_fraction,
            "machine.calibration_ms": clock.median_calibration_s * 1e3,
        },
    )


# -- serve -----------------------------------------------------------------


def serve(seed: int, seconds: float, recorder) -> Outcome:
    """Open-loop Poisson traffic at the knee of one board's latency curve.

    ``RenderService`` with its default configuration over the demo
    registry of ``mic`` and ``ship``; set-up builds both.
    """
    n = int(SERVE_REQUESTS_PER_S * seconds)
    schedule = open_loop_schedule(seed, "serve.arrivals", n, SERVE_RATE_HZ, SERVE_SCENES)
    camera = demo_camera(PROBE_PIXELS, PROBE_PIXELS)

    def build():
        registry = build_demo_registry(scenes=SERVE_SCENES, max_samples_per_ray=MAX_SAMPLES)
        return registry, RenderService(registry)

    (registry, service), setup_s = timed_setup(build, recorder)
    clock = SpeedClock(recorder)
    captured = {name: [] for name in SERVE_SCENES}
    done = []

    def on_complete(response):
        frames = captured[response.scene]
        if response.completed and response.degrade_level == 0 and len(frames) < CHECKED_FRAMES:
            frames.append(response.frame)
        done.append(response.request_id)
        if len(done) % LAP_EVERY == 0:
            clock.lap()

    for i, (arrival_s, scene, priority) in enumerate(schedule):
        service.submit(
            _request(i, arrival_s, scene, priority, camera, SERVE_HW_SCALE),
            on_complete=on_complete,
        )
    with recorder.phase(TIMED):
        clock.start()
        service.run()
        clock.lap()
    chunk = service.config.batch.slice_rays
    checks = {
        f"{name}_served_equals_offline": _served_equals_offline(
            frames, _scene_state(registry, name), camera, chunk
        )
        for name, frames in captured.items()
    }
    stats = service.stats()
    counters = {
        "admission.admitted": stats["admitted"],
        "admission.degraded": stats["degraded"],
        "admission.shed": stats["shed"],
        "admission.rejected_deadline": stats["rejected_deadline"],
        "sim.board_busy_s": stats["hardware_busy_s"],
        "sim.utilization": stats["utilization"],
    }
    return _serving_outcome(service.responses.values(), n, setup_s, clock, checks, counters)


# -- fleet -----------------------------------------------------------------


def fleet(seed: int, seconds: float, recorder) -> Outcome:
    """Open-loop traffic over four workers through a crash and a hot-swap.

    The fault plan crashes the consistent-hash primary of ``mic`` at
    :data:`FLEET_KILL_AT` of the arrival horizon.  The first request to
    finish after :data:`FLEET_SWAP_AT` of it redeploys ``ship`` as an
    untrained field whose keep-everything occupancy grid makes every
    sample count, from inside the completion callback, so the swap lands
    mid-run without pausing the arrival schedule.
    """
    n = int(FLEET_REQUESTS_PER_S * seconds)
    horizon_s = n / FLEET_RATE_HZ
    kill_s = FLEET_KILL_AT * horizon_s
    swap_s = FLEET_SWAP_AT * horizon_s
    schedule = open_loop_schedule(seed, "fleet.arrivals", n, FLEET_RATE_HZ, FLEET_SCENES)
    camera = demo_camera(PROBE_PIXELS, PROBE_PIXELS)
    config = churn_fleet_config(4)

    def build():
        registry = build_demo_registry(scenes=FLEET_SCENES, max_samples_per_ray=MAX_SAMPLES)
        ring = HashRing(range(config.n_workers), vnodes=config.vnodes)
        plan = FaultPlan(
            seed=seed,
            fleet=FleetFaultConfig(crashes=((ring.preference("mic", 1)[0], kill_s),)),
        )
        return registry, FleetController(registry, config=config, fault_plan=plan)

    (registry, controller), setup_s = timed_setup(build, recorder)
    states = {(name, 1): _scene_state(registry, name) for name in FLEET_SCENES}
    swap_model = demo_model(seed + 1)
    clock = SpeedClock(recorder)
    swapped = []
    captured = {}
    done = []

    def on_complete(response):
        if not swapped and controller.now_s >= swap_s:
            registry.deploy(
                "ship",
                model=swap_model,
                occupancy=OccupancyGrid(resolution=16),
                normalizer=states[("ship", 1)][4],
            )
            swapped.append(controller.now_s)
        if response.completed and response.degrade_level == 0:
            arrival_s = schedule[response.request_id][0]
            generation = 2 if swapped and arrival_s > swapped[0] else 1
            frames = captured.setdefault((response.scene, generation), [])
            if len(frames) < CHECKED_FRAMES:
                frames.append(response.frame)
        done.append(response.request_id)
        if len(done) % LAP_EVERY == 0:
            clock.lap()

    for i, (arrival_s, scene, priority) in enumerate(schedule):
        controller.submit(
            _request(i, arrival_s, scene, priority, camera, FLEET_HW_SCALE),
            on_complete=on_complete,
        )
    with recorder.phase(TIMED):
        clock.start()
        controller.run()
        clock.lap()
    states[("ship", 2)] = _scene_state(registry, "ship")
    accounting = controller.accounting()
    checks = {
        "exactly_once": accounting["unaccounted"] == 0,
        "hot_swapped": bool(swapped) and states[("ship", 2)][0] is swap_model,
    }
    for (name, generation), state in states.items():
        checks[f"{name}_gen{generation}_served_equals_offline"] = _served_equals_offline(
            captured.get((name, generation), []), state, camera, config.slice_rays
        )
    stats = controller.stats()
    swap_at = swapped[0] if swapped else controller.now_s
    counters = {
        "admission.admitted": stats["admitted"],
        "admission.degraded": stats["degraded"],
        "admission.shed": controller.admission.shed,
        "admission.rejected_deadline": controller.admission.rejected_deadline,
        "sim.board_busy_s": sum(w["busy_s"] for w in stats["workers"]),
        "sim.utilization": stats["utilization"],
        "fleet.rpc_timeouts": stats["rpc_timeouts"],
        "fleet.hedges": stats["hedges"],
        "fleet.retries": stats["retries"],
        "fleet.completed": accounting["completed"],
        "fleet.detect_delay_ms": (
            (controller.rebalances[0]["t_s"] - kill_s) * 1e3 if controller.rebalances else 0.0
        ),
        "fleet.attainment_pre_kill": controller.attainment_between(0.0, kill_s),
        "fleet.attainment_post_kill": controller.attainment_between(kill_s, swap_at),
        "fleet.attainment_post_swap": controller.attainment_between(swap_at, math.inf),
    }
    return _serving_outcome(controller.responses.values(), n, setup_s, clock, checks, counters)


WORKLOADS = {"render": render, "train": train, "serve": serve, "fleet": fleet}
