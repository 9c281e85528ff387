"""Early-ray-termination study (inference optimization on top of T1).

Occupancy gating removes empty space *in front of* surfaces; ERT removes
hidden samples *behind* them.  This experiment renders the converged
radiance field (the scene's analytic density, which a fully trained model
approaches) of each object scene through the ERT round loop that serving
runs, counts the occupancy-surviving samples that stay live (entry
transmittance at least the threshold), checks the pixel colors against
the full composite, and reports the resulting Stage II/III work reduction
for the accelerator.
"""

from __future__ import annotations

import numpy as np

from ..datasets import synthetic
from ..datasets.generator import AnalyticField
from ..nerf.camera import Camera, sphere_poses
from ..nerf.early_termination import render_batch_adaptive
from ..nerf.occupancy import OccupancyGrid
from ..nerf.rays import generate_rays
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..nerf.volume_rendering import composite
from .base import ExperimentResult

THRESHOLD = 1e-2


def _analytic_render(scene, width=64, max_samples=192):
    """March one view of the analytic field and render it twice.

    Returns ``(full, colors, stats)``: the full composite of every
    marched sample, and the ERT round loop's colors and
    :class:`~repro.nerf.early_termination.AdaptiveStats`.
    """
    normalizer = scene.normalizer()
    pose = sphere_poses(1, radius=2.6)[0]
    camera = Camera(width=width, height=width, focal=1.1 * width, c2w=pose)
    occupancy = OccupancyGrid(resolution=32, threshold=0.5)
    occupancy.set_from_function(scene.density_unit, rng=np.random.default_rng(0))
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    batch = marcher.sample(origins, directions, occupancy=occupancy)
    field = AnalyticField(scene)
    sigmas, rgbs, _ = field.forward(batch.positions, batch.directions)
    full = composite(
        sigmas, rgbs, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    colors, stats = render_batch_adaptive(field, None, batch, threshold=THRESHOLD)
    return full, colors, stats


def run(quick: bool = True) -> ExperimentResult:
    """Reproduce extension: early ray termination (see the module docstring)."""
    scenes = ("hotdog", "lego", "ship") if quick else synthetic.SYNTHETIC_SCENES
    rows = []
    speedups = []
    for name in scenes:
        full, colors, stats = _analytic_render(synthetic.make_scene(name))
        speedup = stats.total_samples / stats.live_samples
        speedups.append(speedup)
        rows.append(
            {
                "scene": name,
                "samples_after_occupancy": stats.total_samples,
                "live_after_ert": stats.live_samples,
                "terminated_frac": round(stats.terminated_fraction, 3),
                "stage23_speedup": round(speedup, 2),
                "max_color_error": round(
                    float(np.max(np.abs(full.colors - colors))), 4
                ),
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
