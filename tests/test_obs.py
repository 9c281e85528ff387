"""Cost models and the capacity planner (:mod:`repro.obs`).

Covers the fitting math (Student-t confidence intervals, per-module
cycles/sample, trace extraction), the on-disk cost-model schema
round-trip, the planner's queueing math including the fixed-overhead
budget subtraction, and the SLO tracker's machine-readable payload the
planner validates against.  The empirical profile -> plan -> validate
loop itself lives in ``benchmarks/test_capacity_study.py``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.obs import (
    CostObservation,
    FittedStat,
    PlanTarget,
    SCHEMA_VERSION,
    SceneCostModel,
    fit_cost_model,
    format_plan,
    observation_from_run,
    plan_capacity,
)
from repro.serve.slo import SLOTracker, SLOTarget


# -- FittedStat ------------------------------------------------------------


def test_fitted_stat_single_run_has_zero_ci():
    stat = FittedStat.fit([2.5])
    assert stat.mean == 2.5 and stat.ci95 == 0.0 and stat.n == 1


def test_fitted_stat_matches_hand_computed_t_interval():
    values = [1.0, 2.0, 3.0]
    stat = FittedStat.fit(values)
    assert stat.mean == pytest.approx(2.0)
    sem = math.sqrt(1.0 / 3.0)  # sample var 1.0, n=3
    assert stat.ci95 == pytest.approx(4.303 * sem, rel=1e-6)  # t(df=2)
    assert stat.n == 3 and stat.values == (1.0, 2.0, 3.0)


def test_fitted_stat_rejects_empty_and_round_trips():
    with pytest.raises(ValueError):
        FittedStat.fit([])
    stat = FittedStat.fit([1.0, 2.0])
    again = FittedStat.from_payload(
        json.loads(json.dumps(stat.to_payload()))
    )
    assert again == stat


# -- observations ----------------------------------------------------------


def _snapshot(rays=1000.0, kept=500.0):
    return {
        "counters": {
            "sim.sampling.cycles": 5000.0,
            "sim.interpolation.cycles": 10000.0,
            "sim.total.cycles": 15000.0,
            "sampler.kept": kept,
        },
        "gauges": {},
        "histograms": {
            "serve.batch.rays": {
                "count": 4, "sum": rays, "mean": rays / 4,
                "min": 100.0, "max": 400.0,
                "p50": 250.0, "p95": 400.0, "p99": 400.0,
            },
            "sampler.samples_per_ray": {
                "count": 1000, "sum": 500.0, "mean": 0.5,
                "min": 0.0, "max": 8.0, "p50": 0.0, "p95": 3.0, "p99": 6.0,
            },
        },
    }


def test_observation_from_run_extracts_costs():
    obs = observation_from_run({"hardware_busy_s": 0.002}, _snapshot())
    assert obs.rays == 1000.0
    assert obs.sim_s_per_ray == pytest.approx(2e-6)
    assert obs.samples == 500.0
    # sim.total.cycles is the pipelined total, not a module.
    assert set(obs.module_cycles) == {"sampling", "interpolation"}
    assert obs.samples_per_ray["count"] == 1000


def test_observation_without_rays_rejects_ratio():
    obs = CostObservation(rays=0.0, sim_busy_s=1.0)
    with pytest.raises(ValueError):
        obs.sim_s_per_ray


# -- fitting + schema ------------------------------------------------------


def _observations(n=3):
    out = []
    for i in range(n):
        obs = observation_from_run(
            {"hardware_busy_s": 0.002 * (1 + 0.01 * i)}, _snapshot()
        )
        obs.overhead_s = 0.004 + 1e-4 * i
        out.append(obs)
    return out


def test_fit_cost_model_aggregates_runs():
    model = fit_cost_model(
        "chair", _observations(), meta={"rays_per_frame": 256}
    )
    assert model.sim_s_per_ray.n == 3
    assert model.sim_s_per_ray.mean == pytest.approx(2.02e-6, rel=1e-3)
    assert model.sim_s_per_ray.ci95 > 0.0
    assert model.cycles_per_sample["sampling"].mean == pytest.approx(10.0)
    assert model.cycles_per_sample["interpolation"].mean == pytest.approx(20.0)
    assert model.samples_per_ray["count"] == 3000  # count-weighted merge
    assert model.overhead_s.mean == pytest.approx(0.0041)
    assert model.meta["n_runs"] == 3
    assert model.sim_s_per_frame() == pytest.approx(256 * model.sim_s_per_ray.mean)
    with pytest.raises(ValueError):
        fit_cost_model("chair", [])


def test_cost_model_schema_round_trip(tmp_path):
    model = fit_cost_model(
        "chair", _observations(), meta={"rays_per_frame": 256}
    )
    path = str(tmp_path / "model.json")
    model.save(path)
    again = SceneCostModel.load(path)
    assert again.to_payload() == model.to_payload()
    assert again.to_payload()["schema"] == SCHEMA_VERSION
    assert again.overhead_s == model.overhead_s
    # a schema-1 file written while the model still fitted a wall-clock
    # cost carries a wall_s_per_ray entry; it loads, and the entry is
    # ignored
    older = dict(
        model.to_payload(),
        wall_s_per_ray={"mean": 5e-4, "ci95": 0.0, "n": 3, "values": [5e-4] * 3},
    )
    assert SceneCostModel.from_payload(older).to_payload() == model.to_payload()


def test_cost_model_rejects_unknown_schema():
    payload = fit_cost_model("chair", _observations()).to_payload()
    payload["schema"] = SCHEMA_VERSION + 1
    with pytest.raises(ValueError):
        SceneCostModel.from_payload(payload)


# -- planner ---------------------------------------------------------------


def _model(s_per_ray=1e-6, overhead=None, rays_per_frame=1000):
    return SceneCostModel(
        scene="chair",
        sim_s_per_ray=FittedStat.fit([s_per_ray]),
        overhead_s=FittedStat.fit([overhead]) if overhead is not None else None,
        meta={"rays_per_frame": rays_per_frame},
    )


def test_plan_capacity_matches_mm1_math():
    # s_frame = 1 ms -> mu = 1000 Hz; slo 10 ms at 90% attainment:
    # tail term = ln(10)/0.010 = 230.26 Hz, utilization cap 900 Hz.
    model = _model()
    target = PlanTarget(
        rate_hz=2000.0, rays_per_frame=1000, slo_s=0.010, attainment=0.9
    )
    plan = plan_capacity(model, target)
    assert plan.feasible
    assert plan.service_rate_hz == pytest.approx(1000.0)
    assert plan.max_admission_hz == pytest.approx(
        1000.0 - math.log(10.0) / 0.010
    )
    assert plan.boards == 3  # ceil(2000 / 769.7)
    assert plan.utilization == pytest.approx(2000.0 / 3 * 1e-3)
    assert plan.overhead_s == 0.0
    assert "plan: FEASIBLE" in format_plan(plan, model)


def test_plan_capacity_subtracts_fixed_overhead_from_budget():
    # 4 ms fixed overhead leaves a 6 ms queueing budget of the 10 ms SLO.
    plan = plan_capacity(
        _model(overhead=0.004),
        PlanTarget(
            rate_hz=500.0, rays_per_frame=1000, slo_s=0.010, attainment=0.9
        ),
    )
    assert plan.feasible
    assert plan.overhead_s == pytest.approx(0.004)
    assert plan.max_admission_hz == pytest.approx(
        1000.0 - math.log(10.0) / 0.006
    )


def test_plan_infeasible_when_overhead_exceeds_slo():
    plan = plan_capacity(
        _model(overhead=0.012),
        PlanTarget(
            rate_hz=100.0, rays_per_frame=1000, slo_s=0.010, attainment=0.9
        ),
    )
    assert not plan.feasible and plan.boards == 0
    assert plan.notes
    assert "plan: INFEASIBLE" in format_plan(plan)


def test_plan_infeasible_when_tail_term_eats_service_rate():
    # mu = 1000 Hz but ln(100)/0.001 = 4605 Hz tail term: impossible.
    plan = plan_capacity(
        _model(),
        PlanTarget(
            rate_hz=10.0, rays_per_frame=1000, slo_s=0.001, attainment=0.99
        ),
    )
    assert not plan.feasible
    assert plan.max_admission_hz == 0.0


def test_plan_utilization_ceiling_binds_for_loose_slo():
    plan = plan_capacity(
        _model(),
        PlanTarget(
            rate_hz=100.0, rays_per_frame=1000, slo_s=10.0,
            attainment=0.9, max_utilization=0.5,
        ),
    )
    assert plan.max_admission_hz == pytest.approx(500.0)


def test_plan_target_validation():
    good = dict(rate_hz=1.0, rays_per_frame=1, slo_s=1.0)
    PlanTarget(**good)
    for bad in (
        {**good, "rate_hz": 0.0},
        {**good, "rays_per_frame": 0},
        {**good, "slo_s": 0.0},
        {**good, "attainment": 1.0},
        {**good, "max_utilization": 0.0},
    ):
        with pytest.raises(ValueError):
            PlanTarget(**bad)


def test_plan_payload_is_json_safe():
    plan = plan_capacity(
        _model(overhead=0.001),
        PlanTarget(rate_hz=10.0, rays_per_frame=1000, slo_s=0.1),
    )
    payload = json.loads(json.dumps(plan.to_payload()))
    assert payload["feasible"] is True
    assert payload["overhead_s"] == pytest.approx(0.001)


# -- SLOTracker payload ----------------------------------------------------


def test_slo_tracker_payload_is_json_safe_and_matches_text():
    tracker = SLOTracker({1: SLOTarget("standard", latency_s=0.01)})
    tracker.record(1, "completed", latency_s=0.005)
    tracker.record(1, "completed", latency_s=0.02)
    tracker.record(1, "shed_overload")
    payload = tracker.to_payload()
    assert payload["schema"] == 1
    assert payload["completed"] == 2
    assert payload["statuses"] == {"completed": 2, "shed_overload": 1}
    (standard,) = payload["classes"]
    assert standard["completed"] == 2
    assert standard["attained"] == pytest.approx(0.5)
    json.dumps(payload)  # round-trippable, no NaN


def test_slo_tracker_payload_replaces_nan_with_none():
    tracker = SLOTracker({1: SLOTarget("standard", latency_s=0.01)})
    payload = tracker.to_payload()  # no completions recorded
    (standard,) = payload["classes"]
    assert standard["p50_s"] is None
    assert standard["attained"] is None
    assert "NaN" not in json.dumps(payload)
