"""Per-trace memoized stage reports and the one serve/fleet billing rule."""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.fleet import FleetController
from repro.nerf.camera import Camera
from repro.nerf.occupancy import OccupancyGrid
from repro.robustness import faults
from repro.robustness.faults import (
    ChipletFaultConfig,
    FaultPlan,
    TraceFaultConfig,
)
from repro.robustness.injection import inject_trace_faults
from repro.serve import RenderRequest, RenderService, build_demo_registry
from repro.serve.loadgen import demo_camera, demo_model, run_closed_loop
from repro.serve.service import board_time
from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.multichip import MultiChipSystem
from repro.sim.sampling_module import SamplingModule
from repro.sim.trace import WorkloadTrace, synthetic_trace


def _trace(seed: int, n_rays: int = 256) -> WorkloadTrace:
    return synthetic_trace(n_rays, 6.0, 0.3, np.random.default_rng(seed))


def _copy(trace: WorkloadTrace) -> WorkloadTrace:
    """An equal trace with its own (empty) memo."""
    return dataclasses.replace(trace)


def _count_sampling_calls(monkeypatch) -> list:
    calls = []
    original = SamplingModule.simulate

    def counting(self, trace, optimized=True):
        calls.append((id(trace), optimized))
        return original(self, trace, optimized=optimized)

    monkeypatch.setattr(SamplingModule, "simulate", counting)
    return calls


# -- memoized reports are the fresh reports -------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_memoized_report_bit_identical_to_fresh_sweep(seed):
    rng = np.random.default_rng(seed)
    trace = _trace(seed)
    scales = [1.0, *rng.uniform(0.05, 80.0, size=3).tolist()]
    for n_configs, config in enumerate(
        (ChipConfig.prototype(), ChipConfig.scaled()), start=1
    ):
        chip = SingleChipAccelerator(config)
        for _ in range(2):  # the second pass is all hits
            for scale in scales:
                for training in (False, True):
                    for optimized in (False, True):
                        memo = chip.simulate(
                            trace,
                            training=training,
                            optimized_sampling=optimized,
                            workload_scale=scale,
                        )
                        fresh = SingleChipAccelerator(config).simulate(
                            _copy(trace),
                            training=training,
                            optimized_sampling=optimized,
                            workload_scale=scale,
                        )
                        assert memo == fresh, (config.name, scale, training)
        # One entry per (config, training, optimized_sampling).
        assert len(trace._stage_reports) == 4 * n_configs


def test_memo_not_part_of_trace_identity():
    trace = _trace(4)
    copy = _copy(trace)
    SingleChipAccelerator().simulate(trace)
    assert trace._stage_reports and not copy._stage_reports
    assert trace == copy
    assert "_stage_reports" not in repr(trace)


# -- each trace is simulated once -----------------------------------------------


def test_sampling_runs_once_per_trace_config_and_flags(monkeypatch):
    calls = _count_sampling_calls(monkeypatch)
    trace = _trace(5)
    system = MultiChipSystem()
    traces = [trace] * system.config.n_chips
    for scale in (1.0, 2.5, 0.3, 40.0):
        system.simulate_batch("lego", traces, workload_scale=scale)
    assert len(calls) == 1  # four identical chips, four dispatches
    for scale in (1.0, 7.0):
        system.simulate_batch("lego", traces, training=True, workload_scale=scale)
    assert len(calls) == 2
    for _ in range(3):
        system.chips[0].simulate(trace, optimized_sampling=False)
    assert len(calls) == 3
    SingleChipAccelerator(ChipConfig.prototype()).simulate(trace)
    assert len(calls) == 4
    SingleChipAccelerator(ChipConfig.prototype()).simulate(trace)
    assert len(calls) == 4  # equal configs share one entry
    system.simulate_batch("lego", [_copy(trace)] * system.config.n_chips)
    assert len(calls) == 5  # a new trace object is a new memo


def test_hit_and_miss_counters_and_stage_spans():
    trace = _trace(6)
    system = MultiChipSystem()
    traces = [trace] * system.config.n_chips
    with telemetry.session() as tel:
        for scale in (1.0, 3.0):
            system.simulate_batch("lego", traces, workload_scale=scale)
        snap = tel.metrics.snapshot()
        spans = tel.tracer.aggregate()
    # The four chips hold one trace object, so each dispatch simulates
    # it once: one miss, then one hit, and one chip.simulate span each.
    assert snap["counters"]["sim.stage_reports.misses"] == 1
    assert snap["counters"]["sim.stage_reports.hits"] == 1
    assert spans["chip.simulate"]["count"] == 2
    # Stage spans wrap real stage simulation only; cycle counters count
    # on every chip of every dispatch: each of the 4 chips counts its
    # cycles at scale 1 and at scale 3.
    for name in ("sampling", "interpolation", "post-processing"):
        assert spans[name]["count"] == 1, name
    unscaled = SingleChipAccelerator().simulate(_copy(trace))
    for name, stage in zip(
        ("sampling", "interpolation", "post-processing"), unscaled.stages
    ):
        assert snap["counters"][f"sim.{name}.cycles"] == pytest.approx(
            4 * 4.0 * stage.cycles
        )
    assert snap["counters"]["sim.total_cycles"] == pytest.approx(
        4 * 4.0 * unscaled.total_cycles
    )
    # Each dispatch records every chiplet: one board span per dispatch
    # and a utilization gauge per chiplet.
    assert spans["multichip.simulate_batch"]["count"] == 2
    for i in range(system.config.n_chips):
        assert f"multichip.chiplet{i}.utilization" in snap["gauges"], i


# -- one simulation per distinct trace --------------------------------------------

#: Board states of the sweep: the chiplet half of the active fault plan.
BOARD_STATES = {
    "healthy": ChipletFaultConfig(),
    "link-degraded": ChipletFaultConfig(link_bandwidth_factor=0.25),
    "remap": ChipletFaultConfig(dead_chips=(1,), policy="remap"),
    "drop": ChipletFaultConfig(dead_chips=(0, 2), policy="drop"),
}
#: The trace-fault half: corrupted traces are scrubbed on every chip.
TRACE_FAULTS = TraceFaultConfig(corrupt_fraction=0.2, mode="nan")


def _board_dispatch(system, traces, chiplets, corrupt, training, scale):
    """One dispatch with everything a chip records: ``(report, gauges,
    cycle counters, fault-log entries)``."""
    plan = FaultPlan(
        chiplets=chiplets, trace=TRACE_FAULTS if corrupt else TraceFaultConfig()
    )
    with telemetry.session() as tel, faults.plan_scope(plan):
        report = system.simulate(traces, training=training, workload_scale=scale)
        log = faults.get_log()
        snapshot = tel.metrics.snapshot()
    counters = snapshot["counters"]
    cycles = {
        name: value for name, value in counters.items()
        if name.startswith("sim.") and name.endswith("cycles")
    }
    cycles["scrubbed"] = counters.get("robustness.trace.scrubbed_entries")
    return report, snapshot["gauges"], cycles, list(log.entries)


@pytest.mark.parametrize("state", sorted(BOARD_STATES))
@pytest.mark.parametrize("corrupt", [False, True], ids=["clean", "corrupted"])
def test_shared_trace_board_bit_identical_to_distinct_copies(state, corrupt):
    """``[t] * n`` simulates ``t`` once; n distinct equal copies simulate
    n times.  Reports and every per-chip record must not tell them apart."""
    chiplets = BOARD_STATES[state]
    for seed in (10, 11):
        trace = _trace(seed, n_rays=128)
        if corrupt:
            trace = inject_trace_faults(
                trace, TRACE_FAULTS, np.random.default_rng(seed)
            )
        shared_system, distinct_system = MultiChipSystem(), MultiChipSystem()
        n = shared_system.config.n_chips
        for training in (False, True):
            for scale in (1.0, 0.37, 12.5):
                shared = _board_dispatch(
                    shared_system, [trace] * n, chiplets, corrupt, training, scale
                )
                distinct = _board_dispatch(
                    distinct_system, [_copy(trace) for _ in range(n)],
                    chiplets, corrupt, training, scale,
                )
                case = (state, seed, training, scale)
                assert shared[0] == distinct[0], case
                assert shared[1] == distinct[1], case
                assert shared[2] == distinct[2], case
                assert shared[3] == distinct[3], case
                n_scrub = sum("scrubbed" in e["description"] for e in shared[3])
                assert n_scrub == (n if corrupt else 0), case


def test_distinct_traces_each_simulated(monkeypatch):
    calls = _count_sampling_calls(monkeypatch)
    system = MultiChipSystem()
    traces = [_trace(20), _trace(21), _trace(20), _trace(22)]
    report = system.simulate(traces)
    assert len(calls) == 4  # equal traces, but four distinct objects
    assert report.chip_reports[0] == report.chip_reports[2]
    assert report.chip_reports[0] != report.chip_reports[1]
    shared = system.simulate([traces[0], traces[1], traces[0], traces[1]])
    assert len(calls) == 4  # both objects already carry their reports
    assert shared.chip_reports[0] is shared.chip_reports[2]
    assert shared.chip_reports == report.chip_reports[:2] * 2


# -- fault plans ----------------------------------------------------------------


def test_corrupted_trace_is_scrubbed_on_every_call():
    clean = _trace(8)
    plan = FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.2, mode="nan"))
    corrupted = inject_trace_faults(clean, plan.trace, plan.rng("trace:memo"))
    assert not np.isfinite(corrupted.pair_durations).all()
    chip = SingleChipAccelerator()
    with faults.plan_scope(plan):
        reports = [chip.simulate(corrupted, workload_scale=2.0) for _ in range(3)]
        log = faults.get_log()
        scrubbed = [e for e in log.entries if "scrubbed" in e["description"]]
    assert len(scrubbed) == 3
    assert reports[0] == reports[1] == reports[2]
    assert np.isfinite(reports[0].runtime_s)
    # Scrubbing builds a new trace per call: neither the clean source nor
    # the corrupted copy carries a memo entry.
    assert clean._stage_reports == {}
    assert corrupted._stage_reports == {}


def test_clean_trace_under_active_plan_still_hits(monkeypatch):
    calls = _count_sampling_calls(monkeypatch)
    trace = _trace(9)
    plan = FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.2, mode="nan"))
    chip = SingleChipAccelerator()
    with faults.plan_scope(plan):
        for _ in range(3):
            chip.simulate(trace)
    assert len(calls) == 1
    assert len(trace._stage_reports) == 1


# -- serving: hot-swaps bill the new generation ---------------------------------


def test_hot_swapped_scene_bills_new_trace_reports(monkeypatch):
    billed = []
    original = MultiChipSystem.simulate_batch

    def recording(self, scene, chip_traces, training=False, workload_scale=1.0):
        report = original(
            self, scene, chip_traces, training=training,
            workload_scale=workload_scale,
        )
        billed.append((chip_traces[0], workload_scale, report))
        return report

    monkeypatch.setattr(MultiChipSystem, "simulate_batch", recording)
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    service = RenderService(registry)
    camera = demo_camera(8, 8)

    def serve_one(request_id):
        service.submit(
            RenderRequest(
                request_id=request_id, scene=scene, camera=camera,
                arrival_s=service.now_s,
            )
        )
        service.run()

    handle = registry.acquire(scene)
    old_trace, normalizer, background = (
        handle.trace, handle.normalizer, handle.background
    )
    handle.release()
    serve_one(0)
    assert billed[-1][0] is old_trace and old_trace._stage_reports

    registry.deploy(
        scene,
        model=demo_model(seed=1),
        occupancy=OccupancyGrid(resolution=16),
        normalizer=normalizer,
        background=background,
    )
    handle = registry.acquire(scene)
    new_trace = handle.trace
    handle.release()
    assert new_trace is not old_trace
    assert new_trace.n_samples != old_trace.n_samples
    assert not new_trace._stage_reports
    serve_one(1)
    trace, scale, report = billed[-1]
    assert trace is new_trace and new_trace._stage_reports
    fresh = MultiChipSystem().simulate(
        [_copy(new_trace)] * 4, workload_scale=scale
    )
    assert report.runtime_s == fresh.runtime_s
    assert report.chip_reports == fresh.chip_reports


# -- one billing rule for serve and fleet ---------------------------------------


def _facing_away(camera: Camera) -> Camera:
    """The same viewpoint turned around: every ray misses the scene."""
    c2w = np.array(camera.c2w, dtype=np.float64)
    c2w[:3, 0] *= -1.0
    c2w[:3, 2] *= -1.0
    return Camera(
        width=camera.width, height=camera.height, focal=camera.focal, c2w=c2w
    )


@pytest.mark.parametrize("away", [False, True], ids=["samples", "no-samples"])
def test_serve_and_fleet_bill_identical_board_seconds(away):
    camera = demo_camera(8, 8)
    if away:
        camera = _facing_away(camera)
    busy = []
    for tier in (RenderService, FleetController):
        registry = build_demo_registry(n_scenes=1)
        scene = registry.scenes()[0]["name"]
        server = tier(registry)
        report = run_closed_loop(server, scene, n_frames=1, camera=camera)
        assert report.completed == 1
        if tier is RenderService:
            assert server.batches_dispatched == 1
            busy.append(server.hardware_busy_s)
        else:
            assert server.hedges == 0 and server.retries == 0
            busy.append(sum(w.busy_s for w in server.workers))
    assert busy[0] == busy[1] > 0.0
    handle = registry.acquire(scene)
    system = MultiChipSystem()
    transfer_only = board_time(system, scene, handle.trace, 0.0)
    handle.release()
    assert transfer_only == system.communication(
        [handle.trace] * system.config.n_chips, workload_scale=0.0
    ).transfer_s
    if away:
        assert busy[0] == transfer_only
    else:
        assert busy[0] > transfer_only
