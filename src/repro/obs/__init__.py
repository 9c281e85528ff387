"""Observability and ops plane: cost models, capacity planning, dashboard.

``repro.obs`` turns the telemetry the rest of the stack records
(:mod:`repro.telemetry` spans and metrics, :mod:`repro.serve` SLO
attainment) into operational answers — the layer the paper's
provisioning argument lives in, and the plane a distributed render
fleet will be operated through:

* :mod:`~repro.obs.costmodel` — fit per-scene, per-module cost models
  (s/ray, cycles/sample, samples/ray distributions) from recorded
  telemetry snapshots, with Student-t confidence
  intervals over repeated runs and a stable on-disk JSON schema;
* :mod:`~repro.obs.planner` — answer "how many boards / what max
  admission rate" for a target load and latency SLO from a fitted cost
  model (M/M/1 sojourn tail bound), size a churn-tolerant worker fleet
  on top of it (:func:`~repro.obs.planner.plan_fleet`), and validate
  the answer empirically by driving the Poisson load generator at the
  planned rate;
* :mod:`~repro.obs.dashboard` — a stdlib-only terminal dashboard
  (``runner top``) over the periodic metrics snapshots a
  :class:`~repro.telemetry.metrics.SnapshotPublisher` retains:
  per-module throughput, queue depths, shed/degrade rates,
  fleet and online-reconstruction panels, SLO attainment.

The whole package is read-only with respect to the pipeline: it
consumes telemetry, never mutates model or simulator state, so enabling
it cannot change a rendered pixel.
"""

from .costmodel import (
    CostObservation,
    FittedStat,
    SCHEMA_VERSION,
    SceneCostModel,
    fit_cost_model,
    observation_from_run,
    profile_demo_scene,
)
from .dashboard import render_dashboard, run_demo_ops
from .planner import (
    CapacityPlan,
    FleetPlan,
    PlanTarget,
    format_fleet_plan,
    format_plan,
    plan_capacity,
    plan_fleet,
    validate_plan,
)

__all__ = [
    "CapacityPlan",
    "CostObservation",
    "FittedStat",
    "FleetPlan",
    "PlanTarget",
    "SCHEMA_VERSION",
    "SceneCostModel",
    "fit_cost_model",
    "format_fleet_plan",
    "format_plan",
    "observation_from_run",
    "plan_capacity",
    "plan_fleet",
    "profile_demo_scene",
    "render_dashboard",
    "run_demo_ops",
    "validate_plan",
]
