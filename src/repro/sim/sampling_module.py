"""Stage I cycle model: the Sampling Module (Technique T1).

The module is a pre-processing unit (ray setup and box intersection)
feeding sixteen parallel sampling cores that march ray-cube pairs.  Two
designs are modeled:

* **optimized** (this work, T1-1 + T1-2): model normalization &
  partitioning reduce each ray-cube intersection to 3 muls + 3 MACs,
  executed by the shared, pipelined pre-processing unit; the controller
  dynamically dispatches a whole ray's cube-pairs the moment enough cores
  are simultaneously free.
* **naive baseline** (Table VI's comparison point): no normalization and
  no partitioning — each ray is a single unsplit job whose core first
  solves the general 6-equation box intersection (the 18 divisions
  dominate its latency) and then marches the whole segment; rays issue in
  lockstep batches, so every batch waits for its slowest ray.

Marching time is counted in kept samples (empty occupancy cells are
skipped at bitmask speed; the residual cost is folded into the per-job
setup constants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.energy import OpCounts
from .engine import schedule_dynamic, schedule_lockstep_batches, ScheduleResult
from .trace import WorkloadTrace


@dataclass(frozen=True)
class SamplingModuleConfig:
    """Stage I hardware parameters."""

    n_cores: int = 16
    #: Kept samples generated per core per cycle.
    points_per_core_cycle: float = 1.0
    #: Pipelined normalized intersections per cycle: eight parallel
    #: 3-mul/3-MAC units, each retiring one octant test per cycle, times
    #: an 8-deep unrolling across octants (the intersections are so cheap
    #: after normalization that the pre-processing unit tests a full
    #: ray-octant fan-out every cycle).
    normalized_tests_per_cycle: int = 64
    #: Latency of one general box intersection: 18 divisions on a radix-4
    #: divider, partially overlapped with the 54 muls/adds.
    general_intersect_cycles: float = 40.0
    #: Per-pair core setup in the optimized design (load t0/t1, DDA init,
    #: amortized empty-cell skipping).
    pair_setup_cycles: float = 0.25


@dataclass
class SamplingReport:
    """Cycle and energy outcome of simulating Stage I on a trace."""

    cycles: float
    utilization: float
    ops: OpCounts
    scheduler: str


class SamplingModule:
    """Cycle/energy simulator for the sampling stage."""

    def __init__(self, config: SamplingModuleConfig = SamplingModuleConfig()):
        self.config = config

    def simulate(self, trace: WorkloadTrace, optimized: bool = True) -> SamplingReport:
        """Simulate the trace with the optimized or naive design."""
        if optimized:
            schedule = self._schedule_optimized(trace)
            ops = self._ops_optimized(trace)
            cycles = max(schedule.makespan, self._preproc_cycles(trace))
            name = "dynamic"
        else:
            schedule = self._schedule_naive(trace)
            ops = self._ops_naive(trace)
            cycles = schedule.makespan
            name = "naive-lockstep"
        utilization = (
            schedule.busy_cycles / (cycles * self.config.n_cores)
            if cycles > 0
            else 0.0
        )
        return SamplingReport(
            cycles=cycles, utilization=utilization, ops=ops, scheduler=name
        )

    def _schedule_optimized(self, trace: WorkloadTrace) -> ScheduleResult:
        cfg = self.config
        durations = (
            cfg.pair_setup_cycles
            + trace.pair_durations / cfg.points_per_core_cycle
        )
        return schedule_dynamic(trace.ray_groups(durations), cfg.n_cores)

    def _schedule_naive(self, trace: WorkloadTrace) -> ScheduleResult:
        cfg = self.config
        durations = (
            cfg.general_intersect_cycles
            + trace.ray_durations() / cfg.points_per_core_cycle
        )
        return schedule_lockstep_batches(durations, cfg.n_cores)

    def _preproc_cycles(self, trace: WorkloadTrace) -> float:
        """Pipelined normalized intersections: 8 octant tests per ray."""
        return 8.0 * trace.n_rays / self.config.normalized_tests_per_cycle

    def _ops_optimized(self, trace: WorkloadTrace) -> OpCounts:
        ops = OpCounts()
        tests = 8 * trace.n_rays
        # Normalized intersection: 3 muls + 3 MACs per octant test.
        ops.int32_mul += 6 * tests
        ops.int32_add += 3 * tests
        self._add_march_ops(ops, trace)
        return ops

    def _ops_naive(self, trace: WorkloadTrace) -> OpCounts:
        ops = OpCounts()
        # General intersection: 18 div + 54 mul + 54 add per ray.
        ops.int32_div += 18 * trace.n_rays
        ops.int32_mul += 54 * trace.n_rays
        ops.int32_add += 54 * trace.n_rays
        self._add_march_ops(ops, trace)
        return ops

    def _add_march_ops(self, ops: OpCounts, trace: WorkloadTrace) -> None:
        """Marching costs shared by both designs."""
        # Position update: 3-axis MAC per candidate point.
        ops.int16_mac += 3 * trace.n_candidates
        # Occupancy test: the DDA visits each cell once and reads a 32-bit
        # mask word; when the trace lacks a traversal count, estimate one
        # mask read per 8 candidate points.
        if trace.n_cells_visited:
            ops.sram_read_bytes += 4.0 * trace.n_cells_visited
        else:
            ops.sram_read_bytes += trace.n_candidates / 8.0
        # Kept samples spill to the Stage II ping-pong buffer:
        # 3 x int16 coords + dt + ray id = 10 bytes.
        ops.sram_write_bytes += 10 * trace.n_samples
