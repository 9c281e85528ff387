"""Scheduler-policy study (Fig. 5(c)'s idle-core comparison).

Isolates Technique T1-2 from T1-1: on identical, already-partitioned
workloads, compares three Stage I dispatch disciplines —

* **dynamic** (this work): whole-ray dispatch the moment enough cores
  free up;
* **lockstep**: synchronous batches that wait for the slowest core;
* **ray-by-ray**: one ray owns the whole pool at a time (the worst case
  the paper's figure sketches).

Reported per scene: makespan and core utilization.
"""

from __future__ import annotations

import numpy as np

from ..sim.engine import (
    schedule_dynamic,
    schedule_lockstep_batches,
    schedule_ray_by_ray,
)
from .base import ExperimentResult
from .workloads import synthetic_workloads

N_CORES = 16


def run(quick: bool = True) -> ExperimentResult:
    """Reproduce Fig. 5(c): dispatch policies (see the module docstring)."""
    scenes = ("mic", "ship") if quick else None
    workloads = synthetic_workloads(scenes=scenes)
    rows = []
    gains = []
    for w in workloads:
        flat = 0.25 + w.trace.pair_durations
        groups = w.trace.ray_groups(flat)
        dynamic = schedule_dynamic(groups, N_CORES)
        lockstep = schedule_lockstep_batches(flat, N_CORES)
        serial = schedule_ray_by_ray(groups, N_CORES)
        gains.append(lockstep.makespan / max(dynamic.makespan, 1e-9))
        rows.append(
            {
                "scene": w.name,
                "dynamic_cycles": round(dynamic.makespan),
                "dynamic_util": round(dynamic.utilization, 3),
                "lockstep_cycles": round(lockstep.makespan),
                "lockstep_util": round(lockstep.utilization, 3),
                "ray_by_ray_cycles": round(serial.makespan),
                "gain_vs_lockstep": round(
                    lockstep.makespan / max(dynamic.makespan, 1e-9), 2
                ),
            }
        )
    return ExperimentResult(
        experiment="Stage I dispatch-policy comparison (T1-2 isolated)",
        paper_ref="Fig. 5(c)",
        rows=rows,
        summary={
            "mean_gain_vs_lockstep": float(np.mean(gains)),
            "dynamic_always_best": all(
                r["dynamic_cycles"] <= r["lockstep_cycles"]
                and r["dynamic_cycles"] <= r["ray_by_ray_cycles"]
                for r in rows
            ),
        },
    )
