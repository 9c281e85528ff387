"""Shared workload construction for the experiment runners.

Most hardware experiments need per-scene workload traces but not a
trained network: the trace depends on scene *geometry* (occupancy, ray
coverage), which the procedural datasets expose analytically.  So the
default path builds the occupancy grid straight from the scene's density
field and runs the real Stage I over a camera's rays — exact workload
statistics in milliseconds instead of minutes of training.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import nerf360, synthetic
from ..datasets.generator import AnalyticScene
from ..nerf.camera import Camera, sphere_poses, ring_poses
from ..nerf.hash_encoding import HashEncoding, HashEncodingConfig
from ..nerf.occupancy import OccupancyGrid
from ..nerf.rays import generate_rays
from ..robustness import faults
from ..robustness.injection import inject_trace_faults
from ..sim.trace import WorkloadTrace, trace_from_rays

#: Default camera resolution for trace extraction.  Workload statistics
#: (samples/ray, occupancy) are resolution-independent, so a modest grid
#: of rays suffices.
TRACE_WIDTH = 64
TRACE_HEIGHT = 64


@dataclass
class SceneWorkload:
    """One scene's trace plus the statistics experiments report."""

    name: str
    trace: WorkloadTrace
    occupancy_fraction: float

    @property
    def mean_samples_per_ray(self) -> float:
        """Kept samples per ray after occupancy gating (trace mean)."""
        return self.trace.mean_samples_per_ray


def _scene_camera(scene: AnalyticScene, large_scale: bool) -> Camera:
    if large_scale:
        pose = ring_poses(1, radius=3.2, height=1.6)[0]
    else:
        pose = sphere_poses(1, radius=2.6)[0]
    return Camera(
        width=TRACE_WIDTH, height=TRACE_HEIGHT, focal=1.1 * TRACE_WIDTH, c2w=pose
    )


def scene_workload(
    scene: AnalyticScene,
    large_scale: bool = False,
    max_samples: int = 96,
    occupancy_resolution: int = 32,
    encoding: HashEncoding = None,
    seed: int = 0,
) -> SceneWorkload:
    """Extract a workload trace from a scene's analytic geometry.

    The trace is rebuilt on every call: Stage I over one 64 x 64 camera
    against a 32^3 occupancy grid takes tens of milliseconds.
    """
    camera = _scene_camera(scene, large_scale)
    normalizer = scene.normalizer()
    occupancy = OccupancyGrid(resolution=occupancy_resolution, threshold=0.5)
    occupancy.set_from_function(
        scene.density_unit, rng=np.random.default_rng(seed)
    )
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    if encoding is None:
        encoding = HashEncoding(
            HashEncodingConfig(n_levels=8, log2_table_size=14),
            rng=np.random.default_rng(seed),
        )
    trace = trace_from_rays(
        origins,
        directions,
        occupancy,
        encoding=encoding,
        max_samples=max_samples,
    )
    return _maybe_corrupt(
        SceneWorkload(
            name=scene.name,
            trace=trace,
            occupancy_fraction=occupancy.occupancy_fraction,
        )
    )


def _maybe_corrupt(workload: SceneWorkload) -> SceneWorkload:
    """Apply active trace-corruption faults to a freshly built workload.

    The corruption is deterministic per scene
    (:meth:`repro.robustness.faults.FaultPlan.rng` salted with the scene
    name); with no active plan this is a no-op returning the input.
    """
    plan = faults.get_active()
    if plan is None or plan.trace.is_empty:
        return workload
    trace = inject_trace_faults(
        workload.trace, plan.trace, plan.rng(f"trace:{workload.name}")
    )
    n_entries = len(workload.trace.pair_durations)
    n_corrupt = min(
        int(round(plan.trace.corrupt_fraction * n_entries)), n_entries
    )
    log = faults.get_log()
    if log is not None:
        log.record(
            "workloads",
            f"corrupted {n_corrupt} trace entries of scene "
            f"{workload.name!r} (mode={plan.trace.mode})",
        )
    from .. import telemetry

    tel = telemetry.get_session()
    if tel.enabled and n_corrupt:
        tel.metrics.counter("robustness.trace.corrupted_entries").inc(n_corrupt)
    return SceneWorkload(
        name=workload.name,
        trace=trace,
        occupancy_fraction=workload.occupancy_fraction,
    )


def synthetic_workloads(scenes=None, max_samples: int = 192, **kwargs) -> list:
    """Traces for the eight object scenes (or a subset).

    The default marching budget reproduces Instant-NGP's fine step size on
    object scenes (scene-average ~13 samples per ray after gating).
    """
    names = scenes or synthetic.SYNTHETIC_SCENES
    return [
        scene_workload(
            synthetic.make_scene(name), large_scale=False, max_samples=max_samples, **kwargs
        )
        for name in names
    ]


def nerf360_workloads(scenes=None, **kwargs) -> list:
    """Traces for the seven large-scale scenes (or a subset)."""
    names = scenes or nerf360.NERF360_SCENES
    return [
        scene_workload(nerf360.make_scene(name), large_scale=True, **kwargs)
        for name in names
    ]
