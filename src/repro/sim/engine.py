"""Minimal multi-core event engine for the module-level simulations.

The Stage I scheduling study (T1-2) needs an actual discrete-event model:
sixteen sampling cores finishing at different times, with a controller
deciding when the next ray's cube-pairs may launch.  This engine keeps
just enough state for that — a free-time per core — and exposes the two
dispatch disciplines the paper compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class CorePool:
    """A pool of identical cores tracked by their next-free cycle."""

    n_cores: int

    def __post_init__(self):
        if self.n_cores < 1:
            raise ValueError("need at least one core")
        self.free_at = np.zeros(self.n_cores, dtype=np.float64)

    def reset(self) -> None:
        """Free every core at cycle 0."""
        self.free_at[:] = 0.0

    @property
    def makespan(self) -> float:
        """Cycle at which the last core goes idle."""
        return float(self.free_at.max())

    def busy_cycles(self) -> float:
        """Total core-cycles consumed so far (for utilization metrics)."""
        return float(self.free_at.sum())

    def time_until_free(self, k: int, now: float) -> float:
        """Earliest time at which at least ``k`` cores are simultaneously free."""
        if k > self.n_cores:
            raise ValueError("cannot wait for more cores than exist")
        kth = np.partition(self.free_at, k - 1)[k - 1]
        return max(now, kth)

    def dispatch_group(self, durations: np.ndarray, start: float) -> float:
        """Start one job per core on the ``len(durations)`` earliest-free
        cores at ``start``; returns the group's completion time."""
        durations = np.asarray(durations, dtype=np.float64)
        k = durations.shape[0]
        if k > self.n_cores:
            raise ValueError("group larger than the pool")
        order = np.argsort(self.free_at)[:k]
        begin = np.maximum(self.free_at[order], start)
        finish = begin + durations
        self.free_at[order] = finish
        return float(finish.max())


@dataclass
class ScheduleResult:
    """Outcome of scheduling one batch of grouped jobs."""

    makespan: float
    busy_cycles: float
    n_cores: int

    @property
    def utilization(self) -> float:
        """Busy share of the core-cycles up to the makespan (0 if empty)."""
        if self.makespan <= 0:
            return 0.0
        return self.busy_cycles / (self.makespan * self.n_cores)


def schedule_dynamic(
    group_durations: list,
    n_cores: int,
) -> ScheduleResult:
    """The paper's dynamic workload scheduling (T1-2).

    The controller watches core availability and dispatches *all* of a
    ray's cube-pairs as soon as enough cores are simultaneously free —
    the whole-ray threshold that bounds both control complexity and the
    partial-sum buffer per ray.

    Per ray, ``np.argsort`` orders the cores by free time, as the
    frozen :class:`CorePool` schedule in :mod:`repro.perf.reference`
    does, so ties resolve the same way: the cores are identical, but
    ``busy_cycles`` sums the free times in core order, and that float
    sum depends on the order.  Everything else runs on a Python list
    mirror of the free times; a ray dispatches one to three pairs, far
    too few for further NumPy calls to pay.
    """
    if n_cores < 1:
        raise ValueError("need at least one core")
    free = [0.0] * n_cores
    free_at = np.zeros(n_cores, dtype=np.float64)
    now = 0.0
    for durations in group_durations:
        k = len(durations)
        if k == 0:
            continue
        if k > n_cores:
            raise ValueError("a ray needs more cores than the pool has")
        order = free_at.argsort().tolist()
        now = max(now, free[order[k - 1]])
        for core, duration in zip(order, durations):
            free_at[core] = free[core] = max(free[core], now) + duration
    return ScheduleResult(
        makespan=float(max(free)), busy_cycles=float(free_at.sum()), n_cores=n_cores
    )


def schedule_ray_by_ray(
    group_durations: list,
    n_cores: int,
    setup_cycles: float = 0.0,
) -> ScheduleResult:
    """The naive baseline: one ray occupies the pool at a time.

    A ray's pairs run in parallel, but the next ray cannot start until the
    current ray (plus its per-ray setup, e.g. a general box intersection)
    fully completes — the idle-core pattern of paper Fig. 5(c).
    """
    makespan = 0.0
    busy = 0.0
    for durations in group_durations:
        if len(durations) == 0:
            makespan += setup_cycles
            continue
        durations = np.asarray(durations, dtype=np.float64)
        makespan += setup_cycles + float(durations.max())
        busy += float(durations.sum())
    return ScheduleResult(makespan=makespan, busy_cycles=busy, n_cores=n_cores)


def flow_shop_makespan(rows: list, n_stages: int) -> float:
    """Makespan of a linear pipeline over batches.

    ``rows`` holds one sequence of ``n_stages`` stage cycles per batch;
    stage *s* of batch *b* may start once stage *s* finished batch *b-1*
    and stage *s-1* finished batch *b* — the classic flow-shop
    recurrence, which models the three-stage chip pipeline fed by
    ping-pong buffers.  Zero batches take 0.0 cycles.  The recurrence
    runs on Python floats, without a NumPy call per element.
    """
    # finish[s] holds the completion time of the most recent batch at
    # stage s; the flow-shop recurrence is
    # finish[b][s] = max(finish[b-1][s], finish[b][s-1]) + c[b][s].
    finish = [0.0] * n_stages
    for row in rows:
        upstream = 0.0
        for s, cycles in enumerate(row):
            done = finish[s]
            # max(done, upstream), without the builtin call.
            upstream = finish[s] = (upstream if upstream > done else done) + cycles
    return float(finish[-1])


def schedule_lockstep_batches(
    durations: np.ndarray,
    n_cores: int,
) -> ScheduleResult:
    """Synchronous batching: the simplest real controller.

    Jobs are issued to all cores at once, and the next batch waits for the
    slowest core — the idle pattern of paper Fig. 5(c).  Used as the naive
    Stage I baseline together with per-ray general intersections.
    """
    durations = np.asarray(durations, dtype=np.float64)
    if durations.size == 0:
        return ScheduleResult(makespan=0.0, busy_cycles=0.0, n_cores=n_cores)
    pad = (-durations.size) % n_cores
    padded = np.concatenate([durations, np.zeros(pad)])
    batches = padded.reshape(-1, n_cores)
    return ScheduleResult(
        makespan=float(batches.max(axis=1).sum()),
        busy_cycles=float(durations.sum()),
        n_cores=n_cores,
    )
