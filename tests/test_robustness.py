"""Fault injection, graceful degradation, and divergence recovery."""

import contextlib
import dataclasses
import json

import numpy as np
import pytest

from repro import telemetry
from repro.datasets import synthetic
from repro.experiments import runner
from repro.nerf import checkpoint
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.moe import MoEConfig, MoENeRF
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.robustness import (
    ChipletFaultConfig,
    DivergenceError,
    DivergenceWatchdog,
    FaultConfigError,
    FaultPlan,
    FleetFaultConfig,
    SramFaultConfig,
    TraceFaultConfig,
    WatchdogConfig,
    faults,
    flip_fp16_bits,
    flip_quantized_bits,
    format_degradation,
    inject_model_faults,
    inject_trace_faults,
    plan_remap,
    plan_scope,
    scrub_colors,
    scrub_trace,
)
from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.multichip import MultiChipConfig, MultiChipSystem
from repro.sim.trace import synthetic_trace


TINY_MODEL = ModelConfig(
    encoding=HashEncodingConfig(
        n_levels=3, n_features=2, log2_table_size=8,
        base_resolution=4, finest_resolution=16,
    ),
    hidden_width=16,
    geo_features=8,
)


def tiny_model(seed=0):
    return InstantNGPModel(TINY_MODEL, seed=seed)


def tiny_trainer(seed=0, moe=False):
    dataset = synthetic.make_dataset(
        "mic", n_views=2, width=16, height=16, gt_steps=16
    )
    model = (
        MoENeRF(MoEConfig(n_experts=2, expert_model=TINY_MODEL), seed=seed)
        if moe
        else tiny_model(seed)
    )
    return Trainer(
        model,
        dataset.cameras,
        dataset.images,
        dataset.normalizer,
        TrainerConfig(
            batch_rays=32, lr=5e-3, max_samples_per_ray=8,
            occupancy_resolution=16, occupancy_interval=8,
        ),
    )


def traces(n=4, n_rays=256):
    return [
        synthetic_trace(
            n_rays=n_rays,
            mean_samples_per_ray=4.0 + e,
            occupancy_fraction=0.2,
            rng=np.random.default_rng(e),
        )
        for e in range(n)
    ]


# -- fault-plan configuration --------------------------------------------------


def test_empty_plan_is_empty():
    assert FaultPlan().is_empty
    # The watchdog section is recovery policy, not an injection.
    assert FaultPlan(watchdog=WatchdogConfig(snapshot_interval=5)).is_empty
    assert not FaultPlan(sram=SramFaultConfig(hash_table_bit_flips=1)).is_empty
    assert not FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(0,))).is_empty
    assert not FaultPlan(
        chiplets=ChipletFaultConfig(link_bandwidth_factor=0.5)
    ).is_empty
    assert not FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.1)).is_empty


@pytest.mark.parametrize(
    "build",
    [
        lambda: SramFaultConfig(hash_table_bit_flips=-1),
        lambda: SramFaultConfig(mlp_bit_flips=-2),
        lambda: SramFaultConfig(quant_step=0.0),
        lambda: ChipletFaultConfig(dead_chips=(0, 0)),
        lambda: ChipletFaultConfig(dead_chips=(-1,)),
        lambda: ChipletFaultConfig(link_bandwidth_factor=0.0),
        lambda: ChipletFaultConfig(link_bandwidth_factor=1.5),
        lambda: ChipletFaultConfig(policy="reboot"),
        lambda: TraceFaultConfig(corrupt_fraction=1.5),
        lambda: TraceFaultConfig(mode="garbage"),
        lambda: TraceFaultConfig(spike_factor=0.0),
        lambda: WatchdogConfig(snapshot_interval=0),
        lambda: WatchdogConfig(lr_backoff=0.0),
        lambda: WatchdogConfig(grad_norm_threshold=-1.0),
        lambda: WatchdogConfig(max_rollbacks=-1),
    ],
)
def test_config_validation_rejects(build):
    with pytest.raises(FaultConfigError):
        build()


def test_plan_json_roundtrip():
    plan = FaultPlan(
        seed=11,
        sram=SramFaultConfig(hash_table_bit_flips=3, mlp_bit_flips=5),
        chiplets=ChipletFaultConfig(dead_chips=(1, 3), policy="drop"),
        trace=TraceFaultConfig(corrupt_fraction=0.25, mode="spike"),
        watchdog=WatchdogConfig(max_rollbacks=2),
    )
    assert FaultPlan.from_json(plan.to_json()) == plan
    assert FaultPlan.from_dict(plan.to_dict()) == plan


def test_plan_file_roundtrip(tmp_path):
    plan = FaultPlan(seed=3, sram=SramFaultConfig(mlp_bit_flips=7))
    path = tmp_path / "plan.json"
    path.write_text(plan.to_json())
    assert FaultPlan.from_file(path) == plan


def test_example_plan_file_loads():
    plan = FaultPlan.from_file("examples/fault_plan.json")
    assert not plan.is_empty
    assert plan.chiplets.dead_chips == (2,)


def test_plan_rejects_unknown_keys():
    with pytest.raises(FaultConfigError):
        FaultPlan.from_dict({"sram_typo": {}})
    with pytest.raises(FaultConfigError):
        FaultPlan.from_dict({"sram": {"hash_flips": 1}})
    with pytest.raises(FaultConfigError):
        FaultPlan.from_dict({"sram": 5})
    with pytest.raises(FaultConfigError):
        FaultPlan.from_dict([1, 2])
    with pytest.raises(FaultConfigError):
        FaultPlan.from_json("{not json")


def test_partial_dict_takes_defaults():
    plan = FaultPlan.from_dict({"chiplets": {"dead_chips": [0]}})
    assert plan.seed == 0
    assert plan.sram.is_empty
    assert plan.chiplets.dead_chips == (0,)


def test_rng_is_deterministic_per_site():
    plan = FaultPlan(seed=5)
    a = plan.rng("site:x").integers(0, 1000, size=8)
    b = plan.rng("site:x").integers(0, 1000, size=8)
    c = plan.rng("site:y").integers(0, 1000, size=8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(
        a, FaultPlan(seed=6).rng("site:x").integers(0, 1000, size=8)
    )


def test_activation_gate_ignores_empty_plans():
    assert faults.get_active() is None
    faults.activate(FaultPlan())
    try:
        # Empty plan and no plan are the same code path by construction.
        assert faults.get_active() is None
        assert faults.get_log() is not None
    finally:
        faults.deactivate()
    assert faults.get_log() is None


def test_plan_scope_nests_and_restores():
    outer = FaultPlan(sram=SramFaultConfig(mlp_bit_flips=1))
    inner = FaultPlan(trace=TraceFaultConfig(corrupt_fraction=0.5))
    with plan_scope(outer):
        assert faults.get_active() is outer
        with plan_scope(inner):
            assert faults.get_active() is inner
        assert faults.get_active() is outer
    assert faults.get_active() is None


def test_activate_rejects_non_plans():
    with pytest.raises(FaultConfigError):
        faults.activate("not a plan")


# -- bit-flip injectors --------------------------------------------------------


def test_flip_fp16_bits_deterministic_and_disturbing():
    values = np.linspace(-1.0, 1.0, 64)
    plan = FaultPlan(seed=9)
    a = flip_fp16_bits(values, 8, plan.rng("t"))
    b = flip_fp16_bits(values, 8, plan.rng("t"))
    assert np.array_equal(a, b, equal_nan=True)
    assert not np.array_equal(a, values.astype(np.float16).astype(np.float64))
    # Zero flips: pure fp16 storage rounding, nothing else.
    clean = flip_fp16_bits(values, 0, plan.rng("t"))
    assert np.array_equal(clean, values.astype(np.float16).astype(np.float64))
    with pytest.raises(ValueError):
        flip_fp16_bits(values, -1, plan.rng("t"))


def test_flip_quantized_bits_stays_on_grid():
    step = 1.0 / 16.0
    values = np.linspace(-2.0, 2.0, 32)
    plan = FaultPlan(seed=4)
    flipped = flip_quantized_bits(values, 6, plan.rng("q"), step=step)
    again = flip_quantized_bits(values, 6, plan.rng("q"), step=step)
    assert np.array_equal(flipped, again)
    # Every output is a representable INT8 fixed-point value.
    codes = flipped / step
    assert np.allclose(codes, np.round(codes))
    assert codes.min() >= -128 and codes.max() <= 127
    clean = flip_quantized_bits(values, 0, plan.rng("q"), step=step)
    assert np.allclose(clean / step, np.round(values / step))
    with pytest.raises(ValueError):
        flip_quantized_bits(values, 1, plan.rng("q"), step=0.0)


def test_inject_model_faults_hits_both_stores():
    plan = FaultPlan(
        seed=2, sram=SramFaultConfig(hash_table_bit_flips=16, mlp_bit_flips=16)
    )
    model = tiny_model()
    before = {k: v.copy() for k, v in model.parameters().items()}
    applied = inject_model_faults(model, plan.sram, plan.rng("sram:test"))
    assert applied == {"hash_table_flips": 16, "mlp_flips": 16}
    params = model.parameters()
    hash_changed = any(
        not np.array_equal(params[k], before[k], equal_nan=True)
        for k in params if k.split(".")[-1] == "hash_tables"
    )
    mlp_changed = any(
        not np.array_equal(params[k], before[k], equal_nan=True)
        for k in params if k.split(".")[-1] != "hash_tables"
    )
    assert hash_changed and mlp_changed
    # Same plan, fresh model: identical corruption (site determinism).
    twin = tiny_model()
    inject_model_faults(twin, plan.sram, plan.rng("sram:test"))
    for k, v in twin.parameters().items():
        assert np.array_equal(v, params[k], equal_nan=True)


# -- trace corruption and scrubbing --------------------------------------------


def test_inject_trace_faults_nan_mode_preserves_input():
    trace = traces(1)[0]
    original = trace.pair_durations.copy()
    cfg = TraceFaultConfig(corrupt_fraction=0.25, mode="nan")
    corrupted = inject_trace_faults(trace, cfg, FaultPlan(seed=1).rng("tr"))
    assert corrupted is not trace
    assert np.array_equal(trace.pair_durations, original)
    n_nan = int(np.isnan(corrupted.pair_durations).sum())
    assert n_nan == int(round(0.25 * len(original)))


def test_inject_trace_faults_spike_mode():
    trace = traces(1)[0]
    cfg = TraceFaultConfig(corrupt_fraction=1.0, mode="spike", spike_factor=10.0)
    corrupted = inject_trace_faults(trace, cfg, FaultPlan(seed=1).rng("tr"))
    assert np.allclose(corrupted.pair_durations, trace.pair_durations * 10.0)


def test_inject_trace_faults_zero_fraction_is_identity():
    trace = traces(1)[0]
    cfg = TraceFaultConfig(corrupt_fraction=0.0)
    assert inject_trace_faults(trace, cfg, FaultPlan().rng("tr")) is trace


def test_scrub_trace_clamps_poison():
    trace = traces(1)[0]
    cfg = TraceFaultConfig(corrupt_fraction=0.2, mode="nan")
    corrupted = inject_trace_faults(trace, cfg, FaultPlan(seed=7).rng("tr"))
    clean, n_scrubbed = scrub_trace(corrupted)
    assert n_scrubbed > 0
    flat = clean.pair_durations
    assert np.isfinite(flat).all() and flat.min() >= 0.0
    assert np.all(np.isfinite(clean.samples_per_ray))
    # An already-clean trace comes back untouched, no copy.
    same, zero = scrub_trace(trace)
    assert same is trace and zero == 0


def test_chip_scrubs_only_corrupted_traces_under_active_plan():
    """A fleet-only plan still scrubs every simulated trace: a clean one
    simulates as with no plan and logs nothing, a corrupted one has each
    bad entry (NaN, inf, negative) zeroed in a copy and logged once."""
    trace = traces(1)[0]
    nan_trace = inject_trace_faults(
        trace,
        TraceFaultConfig(corrupt_fraction=0.2, mode="nan"),
        FaultPlan(seed=7).rng("tr"),
    )
    poisoned = nan_trace.pair_durations.copy()
    poisoned[0] = float("inf")
    poisoned[-1] = -2.0
    corrupted = dataclasses.replace(nan_trace, pair_durations=poisoned)
    bad = ~(np.isfinite(poisoned) & (poisoned >= 0))
    expected = np.where(bad, 0.0, poisoned)
    n_bad = int(bad.sum())
    scrubbed, n_scrubbed = scrub_trace(corrupted)
    assert np.array_equal(scrubbed.pair_durations, expected)
    assert n_scrubbed == n_bad > 2
    assert np.array_equal(scrubbed.samples_per_ray, scrubbed.ray_durations())
    assert corrupted.pair_durations[0] == float("inf")  # input untouched
    chip = SingleChipAccelerator(ChipConfig.scaled())
    clean_report = chip.simulate(trace)
    scrubbed_report = chip.simulate(scrubbed)
    with plan_scope(FaultPlan(fleet=FleetFaultConfig(drop_reply_fraction=0.5))):
        assert chip.simulate(trace) == clean_report
        assert faults.get_log().entries == []
        assert chip.simulate(corrupted) == scrubbed_report
        assert faults.get_log().entries == [
            {"site": "chip", "description": f"scrubbed {n_bad} corrupted trace entries"}
        ]


def test_scrub_colors():
    colors = np.array([[0.5, np.nan, 0.2], [np.inf, 0.1, 0.3], [0.1, 0.2, 0.3]])
    cleaned, flagged = scrub_colors(colors, background=1.0)
    assert flagged == 2
    assert np.all(np.isfinite(cleaned))
    assert cleaned[0, 1] == 1.0 and cleaned[1, 0] == 1.0
    assert cleaned[2, 0] == pytest.approx(0.1)
    finite = np.ones((2, 3))
    same, zero = scrub_colors(finite, background=0.0)
    assert same is finite and zero == 0


# -- degradation scheduling ----------------------------------------------------


def test_plan_remap_least_loaded():
    assignment = plan_remap(4, dead_chips=(2,), loads=[1.0, 4.0, 2.0, 3.0])
    # Chip 0 is the least loaded survivor, so it inherits expert 2.
    assert assignment == {0: [0, 2], 1: [1], 3: [3]}


def test_plan_remap_heaviest_orphan_first():
    assignment = plan_remap(4, dead_chips=(1, 2), loads=[1.0, 5.0, 2.0, 1.5])
    # Expert 1 (load 5) lands on chip 0 first, then expert 2 on chip 3.
    assert assignment == {0: [0, 1], 3: [3, 2]}
    experts = sorted(e for v in assignment.values() for e in v)
    assert experts == [0, 1, 2, 3]


def test_plan_remap_edge_cases():
    with pytest.raises(ValueError):
        plan_remap(4, dead_chips=(0, 1, 2, 3), loads=[1.0] * 4)
    with pytest.raises(ValueError):
        plan_remap(4, dead_chips=(4,), loads=[1.0] * 4)
    with pytest.raises(ValueError):
        plan_remap(4, dead_chips=(0,), loads=[1.0] * 3)
    healthy = plan_remap(2, dead_chips=(), loads=[1.0, 1.0])
    assert healthy == {0: [0], 1: [1]}


def test_format_degradation_report():
    snapshot = {
        "counters": {"robustness.trace.scrubbed_entries": 3.0},
        "gauges": {
            "robustness.chiplets.dead": 1.0,
            "robustness.remap.latency_cost": 1.5,
            "robustness.other.metric": 2.0,
        },
    }
    text = format_degradation(snapshot)
    assert "degradation report" in text
    assert "dead chiplets: 1" in text
    assert "latency cost vs healthy board: 1.50x" in text
    assert "scrubbed before simulation: 3" in text
    assert "robustness.other.metric = 2" in text
    empty = format_degradation({"counters": {}, "gauges": {}})
    assert "no faults fired" in empty


# -- degraded multi-chip simulation --------------------------------------------


def test_multichip_remap_costs_latency_not_experts():
    system = MultiChipSystem(MultiChipConfig(n_chips=4))
    chip_traces = traces(4)
    healthy = system.simulate(chip_traces)
    plan = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(2,), policy="remap"))
    with plan_scope(plan):
        degraded = system.simulate(chip_traces)
    assert not healthy.degraded
    assert degraded.degraded and degraded.dead_chips == (2,)
    assert degraded.latency_cost > 1.0
    assert degraded.runtime_s > healthy.runtime_s
    executed = sorted(e for v in degraded.expert_assignment.values() for e in v)
    assert executed == [0, 1, 2, 3]  # no quality cost: every expert ran
    assert 2 not in degraded.expert_assignment  # ...but not on the dead chip


def test_multichip_drop_costs_experts_not_latency():
    system = MultiChipSystem(MultiChipConfig(n_chips=4))
    chip_traces = traces(4)
    plan = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(2,), policy="drop"))
    with plan_scope(plan):
        report = system.simulate(chip_traces)
    assert report.degraded
    assert len(report.chip_reports) == 3
    executed = sorted(e for v in report.expert_assignment.values() for e in v)
    assert executed == [0, 1, 3]  # expert 2's pixels are gone
    assert report.latency_cost <= 1.0 + 1e-9


def test_multichip_link_degradation_alone():
    system = MultiChipSystem(MultiChipConfig(n_chips=4))
    chip_traces = traces(4)
    plan = FaultPlan(chiplets=ChipletFaultConfig(link_bandwidth_factor=0.25))
    with plan_scope(plan):
        report = system.simulate(chip_traces)
    assert report.degraded and report.dead_chips == ()
    assert report.latency_cost >= 1.0


def test_multichip_all_dead_raises():
    system = MultiChipSystem(MultiChipConfig(n_chips=4))
    plan = FaultPlan(
        chiplets=ChipletFaultConfig(dead_chips=(0, 1, 2, 3), policy="drop")
    )
    with plan_scope(plan), pytest.raises(ValueError):
        system.simulate(traces(4))


def test_multichip_records_fault_log_and_metrics():
    system = MultiChipSystem(MultiChipConfig(n_chips=4))
    plan = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=(1,), policy="remap"))
    with telemetry.session(), plan_scope(plan):
        system.simulate(traces(4))
        snapshot = telemetry.get_metrics().snapshot()
        log = faults.get_log()
        assert len(log) >= 1
        assert any("chiplets dead" in e["description"] for e in log.entries)
    assert snapshot["gauges"]["robustness.chiplets.dead"] == 1.0
    assert snapshot["gauges"]["robustness.chiplets.survivors"] == 3.0
    assert snapshot["gauges"]["robustness.chiplets.remapped_experts"] == 1.0
    assert snapshot["gauges"]["robustness.remap.latency_cost"] > 1.0
    assert "dead chiplets: 1" in format_degradation(snapshot)


# -- trainer divergence handling -----------------------------------------------


def test_degenerate_batch_is_recorded_not_silent():
    trainer = tiny_trainer()
    trainer.occupancy.mask[...] = False  # all empty space: zero samples
    loss = trainer.train_step()
    assert loss != loss  # NaN sentinel kept for loss-curve continuity
    events = trainer.state.divergence_events
    assert len(events) == 1
    assert events[0].reason == "degenerate_batch"
    assert "zero samples" in events[0].detail
    assert "degenerate_batch" in events[0].describe()


def test_unhandled_divergence_raises():
    with telemetry.session():
        trainer = tiny_trainer()
        trainer.train(2)
        params = trainer.model.parameters()
        params[next(iter(params))][...] = np.nan
        with pytest.raises(DivergenceError) as excinfo:
            with np.errstate(invalid="ignore"):
                trainer.train_step()
        assert excinfo.value.event.reason == "non_finite_loss"
        assert trainer.state.divergence_events[-1] is excinfo.value.event
        snapshot = telemetry.get_metrics().snapshot()
    assert snapshot["counters"]["trainer.divergence_events"] == 1.0


@pytest.mark.parametrize("poison", [np.nan, np.inf])
def test_poisoned_parameters_take_the_divergence_guard(poison):
    """A step on a poisoned model warns nowhere: the guard in
    ``train_step`` scores it non-finite before its forward runs, and
    the optimizer never sees the step."""
    import warnings

    with telemetry.session():
        trainer = tiny_trainer()
        trainer.train(2)
        params = trainer.model.parameters()
        params["density.w0"][0, 0] = poison
        before = {k: v.copy() for k, v in params.items()}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as excinfo:
                trainer.train_step()
    assert excinfo.value.event.reason == "non_finite_loss"
    for name, value in trainer.model.parameters().items():
        assert np.array_equal(value, before[name], equal_nan=True), name


def test_gradient_explosion_threshold():
    with telemetry.session():
        trainer = tiny_trainer()
        trainer.train(2)
        trainer.grad_norm_threshold = 1e-12  # any real gradient trips it
        with pytest.raises(DivergenceError) as excinfo:
            trainer.train_step()
        assert excinfo.value.event.reason == "gradient_explosion"
        assert excinfo.value.event.grad_norm is not None


# -- divergence watchdog -------------------------------------------------------


def poison(trainer):
    params = trainer.model.parameters()
    params[next(iter(params))][...] = np.nan


def test_watchdog_rolls_back_and_backs_off():
    with telemetry.session():
        trainer = tiny_trainer()
        config = WatchdogConfig(snapshot_interval=2, lr_backoff=0.5)
        with DivergenceWatchdog(trainer, config) as watchdog:
            trainer.train(4)
            lr_before = trainer.optimizer.lr
            poison(trainer)
            with np.errstate(invalid="ignore"):
                diverged = trainer.train_step()  # recovered, not raised
            assert diverged != diverged
            assert watchdog.rollbacks == 1
            assert trainer.optimizer.lr == pytest.approx(lr_before * 0.5)
            resumed = trainer.train_step()
            assert np.isfinite(resumed)
            assert np.all(
                np.isfinite(next(iter(trainer.model.parameters().values())))
            )
        assert watchdog.events[0]["reason"] == "non_finite_loss"
        snapshot = telemetry.get_metrics().snapshot()
    assert snapshot["counters"]["robustness.watchdog.rollbacks"] == 1.0
    assert snapshot["gauges"]["robustness.watchdog.lr"] == pytest.approx(
        lr_before * 0.5
    )


def test_watchdog_rollback_restores_optimizer_aliasing():
    """Rollback must write through the arrays Adam already references."""
    with telemetry.session():
        trainer = tiny_trainer()
        with DivergenceWatchdog(trainer, WatchdogConfig(snapshot_interval=1)):
            trainer.train(3)
            poison(trainer)
            with np.errstate(invalid="ignore"):
                trainer.train_step()
            params = trainer.model.parameters()
            for name, live in params.items():
                assert trainer.optimizer._m[name].shape == live.shape
            # Further steps must actually move the restored parameters.
            before = {k: v.copy() for k, v in params.items()}
            trainer.train_step()
            moved = any(
                not np.array_equal(params[k], before[k]) for k in params
            )
            assert moved


def test_watchdog_gives_up_after_budget():
    with telemetry.session():
        trainer = tiny_trainer()
        config = WatchdogConfig(snapshot_interval=2, max_rollbacks=0)
        with DivergenceWatchdog(trainer, config):
            trainer.train(2)
            poison(trainer)
            with pytest.raises(DivergenceError), np.errstate(invalid="ignore"):
                trainer.train_step()


def test_watchdog_detach_restores_threshold():
    with telemetry.session():
        trainer = tiny_trainer()
        assert trainer.grad_norm_threshold == 0.0
        config = WatchdogConfig(grad_norm_threshold=123.0)
        watchdog = DivergenceWatchdog(trainer, config).attach()
        assert trainer.grad_norm_threshold == 123.0
        watchdog.detach()
        assert trainer.grad_norm_threshold == 0.0
        watchdog.detach()  # idempotent
        with pytest.raises(RuntimeError):
            DivergenceWatchdog(trainer).attach().attach()
        # A trainer holds one watchdog.
        with pytest.raises(RuntimeError, match="already has a watchdog"):
            DivergenceWatchdog(trainer).attach()


def test_watchdog_ignores_other_trainers():
    with telemetry.session():
        mine = tiny_trainer(seed=0)
        other = tiny_trainer(seed=1)
        with DivergenceWatchdog(mine, WatchdogConfig()) as watchdog:
            other.train(1)
            poison(other)
            # A watchdog guards only its own trainer: the other one
            # has none, so its divergence still raises.
            with pytest.raises(DivergenceError), np.errstate(invalid="ignore"):
                other.train_step()
            assert watchdog.rollbacks == 0
            assert mine.watchdog is watchdog and other.watchdog is None
    assert mine.watchdog is None


@pytest.mark.parametrize("moe", [False, True], ids=["ngp", "moe"])
@pytest.mark.parametrize(
    "scoping", ["attach-default-step-session", "attach-closed-session", "one-session"]
)
def test_watchdog_recovers_whatever_session_is_active(scoping, moe):
    """The telemetry session active at attach and at each step does not
    decide recovery: every poisoned step rolls back once, to the last
    snapshot the ``snapshot_interval`` put down."""
    trainer = tiny_trainer(moe=moe)
    watchdog = DivergenceWatchdog(trainer, WatchdogConfig(snapshot_interval=2))
    step_scope = telemetry.session()
    if scoping == "attach-default-step-session":
        watchdog.attach()
    elif scoping == "attach-closed-session":
        with telemetry.session():
            watchdog.attach()
        step_scope = contextlib.nullcontext()
    with step_scope, np.errstate(invalid="ignore"):
        if scoping == "one-session":
            watchdog.attach()
        # Poison after iteration 5, then after 9 (the diverged step
        # counts as iteration 6): the last snapshots are at 4 and at 8.
        for n_steps, restored in ((5, 4), (3, 8)):
            trainer.train(n_steps)
            poison(trainer)
            assert np.isnan(trainer.train_step())
            assert watchdog.events[-1]["restored_iteration"] == restored
        assert watchdog.rollbacks == 2
        assert np.isfinite(trainer.train_step())
    watchdog.detach()


def test_watchdog_durable_snapshot(tmp_path):
    from repro.robustness.watchdog import SNAPSHOT_NAME

    with telemetry.session():
        trainer = tiny_trainer()
        config = WatchdogConfig(snapshot_interval=2)
        with DivergenceWatchdog(
            trainer, config, snapshot_dir=str(tmp_path)
        ) as watchdog:
            trainer.train(4)
            assert (tmp_path / SNAPSHOT_NAME).exists()
            poison(trainer)
            with np.errstate(invalid="ignore"):
                trainer.train_step()
            assert watchdog.rollbacks == 1
            assert np.isfinite(trainer.train_step())


# -- checkpoint robustness -----------------------------------------------------


def test_checkpoint_truncated_archive(tmp_path):
    path = tmp_path / "model.npz"
    checkpoint.save_model(tiny_model(), path)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(checkpoint.CheckpointError, match="truncated or corrupt"):
        checkpoint.load_model(path)


def test_checkpoint_future_format_version(tmp_path):
    path = tmp_path / "future.npz"
    np.savez(path, __meta__=json.dumps({"format": 99, "kind": "instant-ngp"}))
    with pytest.raises(checkpoint.CheckpointError, match="newer"):
        checkpoint.load_model(path)


def test_checkpoint_missing_meta(tmp_path):
    path = tmp_path / "bare.npz"
    np.savez(path, weights=np.zeros(4))
    with pytest.raises(checkpoint.CheckpointError, match="missing __meta__"):
        checkpoint.load_model(path)


def test_checkpoint_unknown_kind(tmp_path):
    path = tmp_path / "odd.npz"
    np.savez(path, __meta__=json.dumps({"format": 1, "kind": "voxel-soup"}))
    with pytest.raises(checkpoint.CheckpointError, match="unknown checkpoint kind"):
        checkpoint.load_model(path)


def test_checkpoint_missing_file_still_file_not_found(tmp_path):
    with pytest.raises(FileNotFoundError):
        checkpoint.load_model(tmp_path / "nope.npz")


def test_checkpoint_error_is_value_error(tmp_path):
    """Callers that caught ValueError before keep working."""
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not an archive at all")
    with pytest.raises(ValueError):
        checkpoint.load_model(path)


# -- bit-identity guarantee ----------------------------------------------------

#: Cheap experiments that exercise the instrumented layers (traces,
#: chip + multi-chip simulation, bandwidth accounting).
IDENTITY_EXPERIMENTS = ["fig3", "table1", "table4"]


def test_empty_plan_is_bit_identical():
    """An activated-but-empty plan must not perturb a single bit."""

    def payloads():
        return {
            name: json.dumps(
                runner.run_experiment(name, quick=True).to_payload(),
                sort_keys=True,
            )
            for name in IDENTITY_EXPERIMENTS
        }

    baseline = payloads()
    plan = FaultPlan(watchdog=WatchdogConfig(snapshot_interval=5))
    assert plan.is_empty
    with plan_scope(plan):
        assert payloads() == baseline
    assert payloads() == baseline  # and deactivation leaves no residue


# -- fault_sweep experiment and --faults runner --------------------------------


def test_fault_sweep_registered():
    assert "fault_sweep" in runner.REGISTRY


def test_runner_faults_flag_prints_degradation_report(caplog):
    import logging

    caplog.set_level(logging.INFO, logger="repro.experiments")
    code = runner.main(
        ["run", "table4", "--faults", "examples/fault_plan.json"]
    )
    assert code == 0
    assert "degradation report" in caplog.text
    assert "dead chiplets: 1" in caplog.text
    assert "faults fired:" in caplog.text
    assert faults.get_log() is None  # runner deactivated the plan


def test_runner_rejects_bad_plan_file(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"sram": {"hash_flips": 1}}')
    with pytest.raises(FaultConfigError):
        runner.main(["run", "fig3", "--faults", str(bad)])


def test_inject_model_faults_classifies_tensorf_factors_as_fp16():
    """TensoRF plane/line factor stores take fp16 flips, MLP takes INT8.

    The fp16 feature-SRAM fault class covers every renderer's feature
    store: ``hash_tables`` for ngp, ``factor_planes``/``factor_lines``
    for tensorf.
    """
    from repro.nerf.tensorf import TensoRFConfig, TensoRFModel

    plan = FaultPlan(
        seed=3, sram=SramFaultConfig(hash_table_bit_flips=24, mlp_bit_flips=8)
    )
    model = TensoRFModel(
        TensoRFConfig(resolution=8, n_components=2, hidden_width=16, geo_features=8),
        seed=0,
    )
    before = {k: v.copy() for k, v in model.parameters().items()}
    applied = inject_model_faults(model, plan.sram, plan.rng("sram:vm"))
    assert applied == {"hash_table_flips": 24, "mlp_flips": 8}
    params = model.parameters()
    factor_changed = any(
        not np.array_equal(params[k], before[k], equal_nan=True)
        for k in ("factor_planes", "factor_lines")
    )
    assert factor_changed
    # The flipped factor values are fp16-representable: the flip
    # round-trips through the half-precision storage format.
    for k in ("factor_planes", "factor_lines"):
        assert np.array_equal(
            params[k],
            params[k].astype(np.float16).astype(np.float64),
            equal_nan=True,
        )
