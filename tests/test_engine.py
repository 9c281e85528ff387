"""The scheduling/event engine behind the Stage I simulation."""

import dataclasses

import numpy as np
import pytest

from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.engine import (
    CorePool,
    flow_shop_makespan,
    schedule_dynamic,
    schedule_lockstep_batches,
    schedule_ray_by_ray,
)


def test_core_pool_dispatch_and_makespan():
    pool = CorePool(2)
    pool.dispatch_group(np.array([3.0, 5.0]), start=0.0)
    assert pool.makespan == 5.0
    assert pool.busy_cycles() == 8.0


def test_core_pool_picks_earliest_free_cores():
    pool = CorePool(3)
    pool.free_at[:] = [10.0, 0.0, 5.0]
    finish = pool.dispatch_group(np.array([1.0]), start=0.0)
    assert finish == 1.0  # used the core free at t=0


def test_core_pool_time_until_free():
    pool = CorePool(3)
    pool.free_at[:] = [2.0, 4.0, 6.0]
    assert pool.time_until_free(1, now=0.0) == 2.0
    assert pool.time_until_free(3, now=0.0) == 6.0
    assert pool.time_until_free(1, now=3.0) == 3.0
    with pytest.raises(ValueError):
        pool.time_until_free(4, now=0.0)


def test_core_pool_validation():
    with pytest.raises(ValueError):
        CorePool(0)
    pool = CorePool(2)
    with pytest.raises(ValueError):
        pool.dispatch_group(np.ones(3), start=0.0)


def test_dynamic_schedule_packs_work():
    # 4 rays x 1 pair of 1 cycle on 4 cores: all run concurrently.
    result = schedule_dynamic([[1.0]] * 4, n_cores=4)
    assert result.makespan == 1.0
    assert result.utilization == pytest.approx(1.0)


def test_dynamic_schedule_whole_ray_dispatch():
    # A 2-pair ray on a 2-core pool waits until both cores are free.
    result = schedule_dynamic([[4.0], [1.0, 1.0]], n_cores=2)
    # Ray 1 cannot start at t=0 on the second core alone; it waits for
    # both cores at t=4 and finishes at 5.
    assert result.makespan == pytest.approx(5.0)


def test_dynamic_schedule_rejects_oversized_ray():
    with pytest.raises(ValueError):
        schedule_dynamic([[1.0, 1.0, 1.0]], n_cores=2)


def test_dynamic_beats_lockstep_on_skewed_work(rng):
    durations = rng.geometric(0.3, size=256).astype(float)
    groups = [[d] for d in durations]
    dynamic = schedule_dynamic(groups, 16)
    lockstep = schedule_lockstep_batches(durations, 16)
    assert dynamic.makespan <= lockstep.makespan
    assert dynamic.utilization >= lockstep.utilization


def test_lockstep_waits_for_slowest():
    durations = np.array([1.0, 1.0, 8.0, 1.0])
    result = schedule_lockstep_batches(durations, n_cores=4)
    assert result.makespan == 8.0
    assert result.utilization == pytest.approx(11.0 / 32.0)


def test_lockstep_multiple_batches():
    durations = np.array([2.0] * 8)
    result = schedule_lockstep_batches(durations, n_cores=4)
    assert result.makespan == 4.0


def test_lockstep_empty():
    result = schedule_lockstep_batches(np.empty(0), n_cores=4)
    assert result.makespan == 0.0


def test_ray_by_ray_serializes_rays():
    result = schedule_ray_by_ray([[2.0, 3.0], [1.0]], n_cores=4, setup_cycles=10.0)
    assert result.makespan == (10 + 3) + (10 + 1)


def test_pipeline_makespan_single_stage():
    assert flow_shop_makespan([[3.0], [4.0]], 1) == 7.0


def test_pipeline_makespan_overlap():
    # Two balanced stages over four batches: fill (1) + 4 beats.
    assert flow_shop_makespan([[1.0, 1.0]] * 4, 2) == 5.0


def test_pipeline_makespan_bottleneck_dominates():
    # Stage 2 is 10x slower: makespan ~ fill + n * bottleneck.
    cycles = [[1.0, 10.0, 1.0]] * 8
    assert flow_shop_makespan(cycles, 3) == pytest.approx(1 + 8 * 10 + 1)


def _makespan_on_array(cycles: np.ndarray) -> float:
    """The flow-shop recurrence element by element on a float64 array."""
    finish = np.zeros(cycles.shape[1])
    for b in range(cycles.shape[0]):
        upstream = 0.0
        for s in range(cycles.shape[1]):
            finish[s] = max(finish[s], upstream) + cycles[b, s]
            upstream = finish[s]
    return float(finish[-1])


def test_pipeline_makespan_lists_arrays_and_zero_batches(rng):
    for n_batches in (1, 3, 16):
        cycles = rng.uniform(0.1, 1e6, size=(n_batches, 3))
        expected = _makespan_on_array(cycles)
        assert flow_shop_makespan(cycles.tolist(), 3) == expected
        assert flow_shop_makespan(list(cycles), 3) == expected
    assert flow_shop_makespan([], 3) == 0.0


def test_chip_pipeline_cycles_match_batched_array(rng):
    chip = SingleChipAccelerator()
    n = chip.config.pipeline_batches
    for _ in range(5):
        stage_cycles = rng.uniform(0.0, 1e7, size=3)
        batches = np.repeat(stage_cycles[None, :] / n, n, axis=0)
        assert chip._pipeline_cycles(list(stage_cycles)) == _makespan_on_array(batches)
    no_batches = dataclasses.replace(ChipConfig.scaled(), pipeline_batches=0)
    assert SingleChipAccelerator(no_batches)._pipeline_cycles([1.0, 2.0, 3.0]) == 0.0
