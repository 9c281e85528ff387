"""Dataset workload statistics: the substitution-argument audit.

The procedural scenes stand in for NeRF-Synthetic / NeRF-360 because the
hardware results depend on workload *statistics*, not image content.
This experiment tabulates those statistics for all fifteen scenes —
occupancy fraction, kept samples per ray, cube-pair fan-out, DDA cells
visited — so the substitution can be inspected (and re-tuned) directly.
"""

from __future__ import annotations

import numpy as np

from .base import ExperimentResult
from .workloads import nerf360_workloads, synthetic_workloads


def _rows_for(workloads, suite: str) -> list:
    rows = []
    for w in workloads:
        trace = w.trace
        pairs = trace.pairs_per_ray[trace.pairs_per_ray > 0]
        rows.append(
            {
                "suite": suite,
                "scene": w.name,
                "occupancy_frac": round(w.occupancy_fraction, 4),
                "samples_per_ray": round(trace.mean_samples_per_ray, 2),
                "keep_fraction": round(trace.occupancy_fraction, 3),
                "mean_pairs_per_ray": (
                    round(float(np.mean(pairs)), 2) if len(pairs) else 0.0
                ),
                "cells_visited_per_ray": round(
                    trace.n_cells_visited / max(trace.n_rays, 1), 1
                ),
            }
        )
    return rows


def run(quick: bool = True) -> ExperimentResult:
    """Reproduce DESIGN.md: substitution statistics (see the module docstring)."""
    synth = synthetic_workloads(
        scenes=("mic", "lego", "ship") if quick else None
    )
    large = nerf360_workloads(scenes=("bicycle", "garden") if quick else None)
    rows = _rows_for(synth, "synthetic-8") + _rows_for(large, "nerf-360")
    synth_spr = [r["samples_per_ray"] for r in rows if r["suite"] == "synthetic-8"]
    large_spr = [r["samples_per_ray"] for r in rows if r["suite"] == "nerf-360"]
    return ExperimentResult(
        experiment="procedural dataset workload statistics",
        paper_ref="DESIGN.md substitution table",
        rows=rows,
        summary={
            "synthetic_spr_range": f"{min(synth_spr)} - {max(synth_spr)}",
            "nerf360_spr_range": f"{min(large_spr)} - {max(large_spr)}",
            "large_scenes_denser": min(large_spr) > min(synth_spr),
        },
    )
