"""Early-ray-termination study (inference optimization on top of T1).

Occupancy gating removes empty space *in front of* surfaces; ERT removes
hidden samples *behind* them.  This experiment evaluates the converged
radiance field (the scene's analytic density, which a fully trained model
approaches) on each object scene, measures how many occupancy-surviving
samples an ERT unit skips, verifies the pixel colors are unchanged within
the termination threshold, and reports the resulting Stage II/III work
reduction for the accelerator.
"""

from __future__ import annotations

import numpy as np

from ..datasets import synthetic
from ..nerf.camera import Camera, sphere_poses
from ..nerf.early_termination import (
    live_sample_mask,
    termination_stats,
    truncate_batch,
    verify_color_preserved,
)
from ..nerf.occupancy import OccupancyGrid
from ..nerf.rays import generate_rays
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..nerf.volume_rendering import composite
from .base import ExperimentResult

THRESHOLD = 1e-2


def _analytic_render(scene, width=64, max_samples=192):
    """Sample + shade one view straight from the analytic field."""
    normalizer = scene.normalizer()
    pose = sphere_poses(1, radius=2.6)[0]
    camera = Camera(width=width, height=width, focal=1.1 * width, c2w=pose)
    occupancy = OccupancyGrid(resolution=32, threshold=0.5)
    occupancy.set_from_function(scene.density_unit, rng=np.random.default_rng(0))
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    batch = marcher.sample(origins, directions, occupancy=occupancy)
    world = normalizer.from_unit(batch.positions)
    # Optical depth is length-invariant: unit-space sigma = world sigma
    # divided by the normalization scale.
    density, rgbs = scene.density_and_color(world)
    sigmas = density / normalizer.scale
    result = composite(
        sigmas, rgbs, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    return batch, sigmas, rgbs, result


def run(quick: bool = True) -> ExperimentResult:
    """Reproduce extension: early ray termination (see the module docstring)."""
    scenes = ("hotdog", "lego", "ship") if quick else synthetic.SYNTHETIC_SCENES
    rows = []
    speedups = []
    for name in scenes:
        scene = synthetic.make_scene(name)
        batch, sigmas, rgbs, result = _analytic_render(scene)
        stats = termination_stats(result, batch, threshold=THRESHOLD)
        mask = live_sample_mask(result, THRESHOLD)
        truncated = truncate_batch(batch, result, threshold=THRESHOLD)
        result_t = composite(
            sigmas[mask], rgbs[mask], truncated.deltas, truncated.ts,
            truncated.ray_idx, truncated.n_rays,
        )
        color_err = verify_color_preserved(result, result_t)
        speedups.append(stats.speedup)
        rows.append(
            {
                "scene": name,
                "samples_after_occupancy": stats.total_samples,
                "live_after_ert": stats.live_samples,
                "terminated_frac": round(stats.terminated_fraction, 3),
                "stage23_speedup": round(stats.speedup, 2),
                "max_color_error": round(color_err, 4),
            }
        )
    return ExperimentResult(
        experiment="early ray termination on the converged field",
        paper_ref="inference extension (composes with Stage I gating)",
        rows=rows,
        summary={
            "mean_stage23_speedup": float(np.mean(speedups)),
            "threshold": THRESHOLD,
            "color_error_bounded": all(
                r["max_color_error"] <= 2 * THRESHOLD for r in rows
            ),
        },
    )
