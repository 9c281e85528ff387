"""Per-trace memoized stage reports and the one serve/fleet billing rule."""

import numpy as np
import pytest

from repro import telemetry
from repro.fleet import FleetController
from repro.nerf.camera import Camera
from repro.nerf.occupancy import OccupancyGrid
from repro.robustness import faults
from repro.robustness.faults import FaultPlan, TraceFaultConfig
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
    return WorkloadTrace.from_arrays(trace.to_arrays())


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
    modules = []
    with telemetry.session() as tel:
        tel.hooks.on_module_simulated(
            lambda module, **_: modules.append(module)
        )
        for scale in (1.0, 3.0):
            system.simulate_batch("lego", traces, workload_scale=scale)
        snap = tel.metrics.snapshot()
        spans = tel.tracer.aggregate()
    assert snap["counters"]["sim.stage_reports.misses"] == 1
    assert snap["counters"]["sim.stage_reports.hits"] == 7
    # Stage spans wrap real simulation only; hooks and cycle counters
    # fire on every chip of every dispatch.
    for name in ("sampling", "interpolation", "post-processing"):
        assert spans[name]["count"] == 1, name
        assert modules.count(name) == 8, name
        assert snap["counters"][f"sim.{name}.cycles"] > 0.0
    assert spans["chip.simulate"]["count"] == 8
    assert spans["multichip.simulate_batch"]["count"] == 2


# -- fault plans ----------------------------------------------------------------


def test_corrupted_trace_is_scrubbed_on_every_call():
    clean = _trace(8)
    plan = FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.2, mode="nan"))
    corrupted = inject_trace_faults(clean, plan.trace, plan.rng("trace:memo"))
    assert any(
        not np.isfinite(d) for pairs in corrupted.pair_durations for d in pairs
    )
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
