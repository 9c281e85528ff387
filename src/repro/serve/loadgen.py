"""Load generation: replay arrival traces against a :class:`RenderService`.

Two standard drivers from the serving-systems literature:

* **open loop** — arrivals are a Poisson process at a fixed offered rate,
  independent of service progress.  Sweeping the rate produces the
  latency–throughput curve and exposes the admission ladder under
  overload.
* **closed loop** — each client submits its next frame only when the
  previous one resolves (one outstanding request per client), the
  pattern of an interactive viewer.  A single closed-loop client is also
  the bit-identity harness: with no competing traffic, the served frame
  must match a direct ``render_image`` call exactly.

The module also builds the demo multi-scene registry the smoke tests and
``runner serve`` use: analytic object scenes with exact occupancy grids
and small untrained radiance fields (serving measures scheduling and
hardware time, not reconstruction quality).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets import synthetic
from ..nerf.camera import Camera, sphere_poses
from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.occupancy import OccupancyGrid
from .batching import PRIORITY_BATCH, PRIORITY_INTERACTIVE, PRIORITY_STANDARD, RenderRequest
from .registry import SceneRegistry
from .service import RenderService

#: Default priority mix of the open-loop driver (interactive-heavy, as a
#: viewer-facing deployment would see).
DEFAULT_PRIORITY_MIX = (
    (PRIORITY_INTERACTIVE, 0.5),
    (PRIORITY_STANDARD, 0.3),
    (PRIORITY_BATCH, 0.2),
)


def poisson_arrivals(
    rate_hz: float, duration_s: float, rng: np.random.Generator
) -> np.ndarray:
    """Arrival times of a Poisson process over ``[0, duration_s)``.

    Exponential inter-arrival gaps at the offered rate, truncated at the
    horizon — the standard open-loop workload model.
    """
    if rate_hz <= 0:
        raise ValueError("rate_hz must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    # Draw enough gaps to overshoot the horizon with high probability,
    # topping up in the (rare) tail case.
    times = []
    t = 0.0
    while True:
        gaps = rng.exponential(1.0 / rate_hz, size=max(int(rate_hz * duration_s * 1.5) + 16, 16))
        for gap in gaps:
            t += gap
            if t >= duration_s:
                return np.array(times)
            times.append(t)


def demo_model(seed: int = 0) -> InstantNGPModel:
    """A small untrained radiance field for serving demos and smokes."""
    config = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=4, log2_table_size=10, finest_resolution=64
        ),
        hidden_width=16,
        geo_features=8,
    )
    return InstantNGPModel(config, seed=seed)


def demo_camera(width: int = 32, height: int = 32) -> Camera:
    """A fixed object-scene viewpoint at the requested probe resolution."""
    pose = sphere_poses(1, radius=2.6)[0]
    return Camera(width=width, height=height, focal=1.1 * width, c2w=pose)


def build_demo_registry(
    scenes=None,
    n_scenes: int = 2,
    occupancy_resolution: int = 24,
    max_samples_per_ray: int = 32,
    seed: int = 0,
) -> SceneRegistry:
    """Deploy analytic object scenes into a fresh registry.

    Occupancy grids come straight from each scene's analytic density
    field (exact geometry, no training), so the serving workload shape —
    occupancy-gated samples per ray — is realistic even though the
    radiance fields are untrained.
    """
    names = tuple(scenes) if scenes else synthetic.SYNTHETIC_SCENES[:n_scenes]
    registry = SceneRegistry(max_samples_per_ray=max_samples_per_ray)
    for i, name in enumerate(names):
        scene = synthetic.make_scene(name)
        occupancy = OccupancyGrid(resolution=occupancy_resolution, threshold=0.5)
        occupancy.set_from_function(
            scene.density_unit, rng=np.random.default_rng(seed + i)
        )
        registry.deploy(
            name,
            model=demo_model(seed=seed + i),
            occupancy=occupancy,
            normalizer=scene.normalizer(),
            background=scene.background,
        )
    return registry


@dataclass
class LoadReport:
    """Outcome of one load-generation run against a service."""

    driver: str
    offered_rate_hz: float
    duration_s: float
    n_offered: int
    stats: dict
    slo: dict
    responses: list = field(default_factory=list, repr=False)

    @property
    def completed(self) -> int:
        """Requests that rendered to completion."""
        return self.stats["completed"]

    @property
    def achieved_fps(self) -> float:
        """Completed frames per simulated second of service time."""
        elapsed = self.stats["now_s"]
        return self.completed / elapsed if elapsed > 0 else 0.0

    def row(self) -> dict:
        """Flat table row for the serving-study sweep."""
        overall = [
            c for c in self.slo["classes"] if c["completed"] > 0
        ]
        def _pct(key):
            values = [c[key] for c in overall]
            return max(values) if values else float("nan")

        statuses = self.slo["statuses"]
        return {
            "driver": self.driver,
            "offered_hz": self.offered_rate_hz,
            "offered": self.n_offered,
            "completed": self.completed,
            "shed": statuses.get("shed_overload", 0),
            "rejected": sum(
                n for s, n in statuses.items() if s.startswith("rejected")
            ),
            "degraded": self.stats["degraded"],
            "achieved_fps": self.achieved_fps,
            "utilization": self.stats["utilization"],
            "p50_ms": _pct("p50_s") * 1e3,
            "p95_ms": _pct("p95_s") * 1e3,
            "p99_ms": _pct("p99_s") * 1e3,
            "slo_met": all(c["slo_met"] for c in overall) if overall else False,
        }


def run_open_loop(
    service: RenderService,
    scene_names,
    rate_hz: float,
    duration_s: float,
    camera: Camera = None,
    rng: np.random.Generator = None,
    priority_mix=DEFAULT_PRIORITY_MIX,
    hw_scale: float = 1.0,
    id_start: int = 0,
) -> LoadReport:
    """Drive a Poisson arrival trace through the service and drain it.

    Scenes and priority classes are drawn independently per request;
    every request is best effort (no deadline).  ``hw_scale`` bills each
    probe frame as that many full frames (see
    :class:`~repro.serve.batching.RenderRequest`).
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    camera = camera or demo_camera()
    scene_names = list(scene_names)
    priorities = [p for p, _ in priority_mix]
    weights = np.array([w for _, w in priority_mix], dtype=np.float64)
    weights = weights / weights.sum()
    arrivals = poisson_arrivals(rate_hz, duration_s, rng)
    for i, arrival_s in enumerate(arrivals):
        scene = scene_names[int(rng.integers(len(scene_names)))]
        priority = priorities[int(rng.choice(len(priorities), p=weights))]
        service.submit(
            RenderRequest(
                request_id=id_start + i,
                scene=scene,
                camera=camera,
                arrival_s=float(arrival_s),
                priority=priority,
                hw_scale=hw_scale,
            )
        )
    service.run()
    return LoadReport(
        driver="open-loop",
        offered_rate_hz=rate_hz,
        duration_s=duration_s,
        n_offered=len(arrivals),
        stats=service.stats(),
        slo=service.slo.summary(),
    )


def run_closed_loop(
    service: RenderService,
    scene: str,
    n_frames: int,
    camera: Camera = None,
    priority: int = PRIORITY_INTERACTIVE,
    hw_scale: float = 1.0,
    id_start: int = 0,
) -> LoadReport:
    """One interactive client: submit, await the frame, submit the next.

    Each frame is requested the moment the previous one completes.

    Returns the report with per-frame :class:`RenderResponse` objects
    (frames included), which is what the bit-identity checks compare
    against direct renders.
    """
    if n_frames < 1:
        raise ValueError("n_frames must be positive")
    camera = camera or demo_camera()
    responses = []

    def on_complete(response):
        responses.append(response)
        done = len(responses)
        if done < n_frames:
            service.submit(
                RenderRequest(
                    request_id=id_start + done,
                    scene=scene,
                    camera=camera,
                    arrival_s=service.now_s,
                    priority=priority,
                    hw_scale=hw_scale,
                ),
                on_complete=on_complete,
            )

    service.submit(
        RenderRequest(
            request_id=id_start,
            scene=scene,
            camera=camera,
            arrival_s=service.now_s,
            priority=priority,
            hw_scale=hw_scale,
        ),
        on_complete=on_complete,
    )
    service.run()
    duration = service.now_s
    return LoadReport(
        driver="closed-loop",
        offered_rate_hz=(
            len(responses) / duration if duration > 0 else float("inf")
        ),
        duration_s=duration,
        n_offered=len(responses),
        stats=service.stats(),
        slo=service.slo.summary(),
        responses=responses,
    )
