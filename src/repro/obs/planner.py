"""Capacity planner: from fitted cost models to provisioning answers.

Turns a :class:`~repro.obs.costmodel.SceneCostModel` plus an operator
target (offered frame rate, per-frame latency SLO, required attainment)
into "how many boards, and how hard may each be driven" — the
reproduction's version of the paper's chips-per-workload provisioning
argument, grounded in measured telemetry instead of datasheet numbers.

The queueing model is deliberately the simplest one that is honest
about tails: each board is a serial server (one dispatch at a time — a
real property of :class:`~repro.serve.service.RenderService`), arrivals
are Poisson (the open-loop load generator's model), so per-board
behavior is M/M/1-like and the sojourn-time tail bound

    P(latency > T)  =  exp(-(mu - lambda) * T)

inverts into the maximum admission rate that still meets attainment
``a`` at budget ``T``::

    lambda_max  =  mu - ln(1 / (1 - a)) / T

capped by a utilization ceiling.  ``T`` is the SLO budget *after*
subtracting the cost model's fitted fixed per-request overhead
(``overhead_s`` — mostly the batch scheduler's coalescing
``max_wait_s``).  With immediate dispatch (``max_wait_s=0``) the real
service has near-deterministic per-frame cost, so its tails are
*lighter* than M/M/1 and the plan errs conservative.  With a non-zero
coalescing wait the model prices the wait itself but **not** the
rate-dependent growth of a frame's own batch (waiting behind batchmates
pooled during the wait) — such plans can be optimistic under load,
which is exactly why :func:`validate_plan` (and the ``capacity_study``
experiment) exists: it drives the Poisson load generator at the planned
rate and measures attainment empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .costmodel import SceneCostModel


@dataclass(frozen=True)
class PlanTarget:
    """Operator-facing load + SLO target the planner answers for."""

    #: Offered frame rate across the whole fleet (frames/s).
    rate_hz: float
    #: Rays per client frame (probe resolution squared).
    rays_per_frame: int
    #: Per-frame latency budget in (simulated) seconds.
    slo_s: float
    #: Fraction of frames that must land within ``slo_s``.
    attainment: float = 0.95
    #: Per-board utilization ceiling the plan must respect.
    max_utilization: float = 0.9

    def __post_init__(self):
        if self.rate_hz <= 0:
            raise ValueError("rate_hz must be positive")
        if self.rays_per_frame < 1:
            raise ValueError("rays_per_frame must be positive")
        if self.slo_s <= 0:
            raise ValueError("slo_s must be positive")
        if not 0.0 < self.attainment < 1.0:
            raise ValueError("attainment must be in (0, 1)")
        if not 0.0 < self.max_utilization <= 1.0:
            raise ValueError("max_utilization must be in (0, 1]")


@dataclass
class CapacityPlan:
    """The planner's answer for one scene + target."""

    scene: str
    target: PlanTarget
    #: Expected simulated board seconds per frame (from the cost model).
    s_per_frame: float
    #: Per-board service rate in frames/s (1 / s_per_frame).
    service_rate_hz: float
    #: Max admission rate per board meeting the SLO tail bound.
    max_admission_hz: float
    #: Boards needed to carry ``target.rate_hz`` (0 when infeasible).
    boards: int
    #: Predicted per-board utilization when the target load is spread
    #: evenly over ``boards``.
    utilization: float
    feasible: bool
    #: Fixed per-request overhead (from the cost model) subtracted from
    #: the SLO budget before the queueing tail bound was applied.
    overhead_s: float = 0.0
    #: Human-readable reasons when infeasible.
    notes: list = field(default_factory=list)

    def to_payload(self) -> dict:
        """JSON-safe dict form for reports and the dashboard."""
        return {
            "scene": self.scene,
            "rate_hz": self.target.rate_hz,
            "rays_per_frame": self.target.rays_per_frame,
            "slo_ms": self.target.slo_s * 1e3,
            "attainment": self.target.attainment,
            "s_per_frame": self.s_per_frame,
            "service_rate_hz": self.service_rate_hz,
            "max_admission_hz": self.max_admission_hz,
            "boards": self.boards,
            "utilization": self.utilization,
            "feasible": self.feasible,
            "overhead_s": self.overhead_s,
            "notes": list(self.notes),
        }


def plan_capacity(model: SceneCostModel, target: PlanTarget) -> CapacityPlan:
    """Answer "how many boards / what max admission rate" for a target.

    Uses the M/M/1 sojourn tail bound (see module docstring); infeasible
    targets (a single frame cannot fit its own budget, or the tail term
    eats the whole service rate) come back with ``feasible=False`` and
    explanatory notes rather than raising — the CLI renders them.
    """
    s_frame = model.sim_s_per_frame(target.rays_per_frame)
    mu = 1.0 / s_frame
    notes = []
    # Fixed per-request overhead (batch coalescing wait, comm round
    # trips) spends SLO budget before any queueing happens — the tail
    # bound applies to what is left.
    overhead = model.overhead_s.mean if model.overhead_s is not None else 0.0
    budget = target.slo_s - overhead
    if s_frame + overhead > target.slo_s:
        notes.append(
            f"one frame costs {s_frame * 1e3:.2f} ms board time + "
            f"{overhead * 1e3:.2f} ms fixed overhead > "
            f"SLO budget {target.slo_s * 1e3:.2f} ms"
        )
    # Tail bound: keep P(latency > slo) below 1 - attainment.
    tail_hz = (
        math.log(1.0 / (1.0 - target.attainment)) / budget
        if budget > 0 else float("inf")
    )
    lam_tail = mu - tail_hz
    lam_util = mu * target.max_utilization
    lam_max = min(lam_tail, lam_util)
    if lam_max <= 0 and not notes:
        notes.append(
            f"SLO tail term ({tail_hz:.1f} Hz) exceeds the board service "
            f"rate ({mu:.1f} Hz)"
        )
    feasible = not notes
    if feasible:
        boards = max(1, math.ceil(target.rate_hz / lam_max))
        utilization = target.rate_hz / boards * s_frame
    else:
        boards = 0
        utilization = float("inf")
        lam_max = max(lam_max, 0.0)
    return CapacityPlan(
        scene=model.scene,
        target=target,
        s_per_frame=s_frame,
        service_rate_hz=mu,
        max_admission_hz=lam_max,
        boards=boards,
        utilization=utilization,
        feasible=feasible,
        overhead_s=overhead,
        notes=notes,
    )


def format_plan(plan: CapacityPlan, model: SceneCostModel = None) -> str:
    """Render a capacity plan as the greppable text report.

    The final line is ``plan: FEASIBLE`` / ``plan: INFEASIBLE`` — the
    token CI smoke jobs grep.
    """
    t = plan.target
    lines = [f"capacity plan: scene={plan.scene}", "=" * 60]
    if model is not None:
        stat = model.sim_s_per_ray
        lines.append(
            f"cost model: {stat.mean * 1e6:.3f} us/ray "
            f"(+/- {stat.ci95 * 1e6:.3f} us 95% CI, {stat.n} runs)"
        )
        if model.samples_per_ray:
            spr = model.samples_per_ray
            lines.append(
                f"samples/ray: mean {spr.get('mean', 0.0):.1f}  "
                f"p50 {spr.get('p50', 0.0):.1f}  p99 {spr.get('p99', 0.0):.1f}"
            )
    lines.append(
        f"target: {t.rate_hz:.0f} frames/s of {t.rays_per_frame} rays, "
        f"p-tail {t.slo_s * 1e3:.1f} ms @ {t.attainment:.0%} attainment"
    )
    lines.append(
        f"per-board: service rate {plan.service_rate_hz:.1f} Hz "
        f"({plan.s_per_frame * 1e3:.3f} ms/frame + "
        f"{plan.overhead_s * 1e3:.3f} ms fixed overhead), "
        f"max admission {plan.max_admission_hz:.1f} Hz"
    )
    if plan.feasible:
        lines.append(
            f"fleet: {plan.boards} board(s) at "
            f"{plan.utilization:.0%} utilization each"
        )
        lines.append("plan: FEASIBLE")
    else:
        for note in plan.notes:
            lines.append(f"infeasible: {note}")
        lines.append("plan: INFEASIBLE")
    return "\n".join(lines)


@dataclass
class FleetPlan:
    """Worker-count answer for a replicated render fleet.

    Wraps the single-board :class:`CapacityPlan` with the fleet-level
    sizing question: how many *workers* (one board each) so the target
    still holds after losing ``spare_workers`` of them.  Spares are
    live, load-carrying workers — the fleet runs below the per-board
    admission ceiling until a death consumes the headroom — which is
    what lets :class:`~repro.fleet.FleetController`'s rebalance recover
    attainment instead of merely surviving.
    """

    base: CapacityPlan
    #: Scene copies the fleet keeps (consistent-hash preference length).
    replication: int
    #: Worker deaths the fleet must absorb at full SLO.
    spare_workers: int

    @property
    def workers(self) -> int:
        """Total workers to provision (0 when the target is infeasible)."""
        return (
            self.base.boards + self.spare_workers if self.base.feasible else 0
        )

    @property
    def feasible(self) -> bool:
        """Whether the underlying single-board plan is feasible."""
        return self.base.feasible

    @property
    def utilization(self) -> float:
        """Per-worker utilization with the full fleet healthy."""
        if not self.base.feasible:
            return float("inf")
        return self.base.target.rate_hz / self.workers * self.base.s_per_frame

    def to_payload(self) -> dict:
        """JSON-safe dict form for reports and the dashboard."""
        return {
            "plan": self.base.to_payload(),
            "replication": self.replication,
            "spare_workers": self.spare_workers,
            "workers": self.workers,
            "utilization": self.utilization,
            "feasible": self.feasible,
        }


def plan_fleet(
    model: SceneCostModel,
    target: PlanTarget,
    replication: int = 2,
    spare_workers: int = 1,
) -> FleetPlan:
    """Answer "how many workers" for a churn-tolerant fleet.

    ``spare_workers`` deaths must leave enough survivors to carry the
    target at the single-board plan's admission ceiling; ``replication``
    must not exceed the fleet size (every replica needs a distinct
    worker), so tiny fleets are grown to hold it.
    """
    if replication < 1:
        raise ValueError("replication must be positive")
    if spare_workers < 0:
        raise ValueError("spare_workers must be non-negative")
    base = plan_capacity(model, target)
    if base.feasible and base.boards + spare_workers < replication:
        base.boards = replication - spare_workers
        base.utilization = target.rate_hz / base.boards * base.s_per_frame
        base.notes.append(
            f"boards grown to seat replication={replication}"
        )
    return FleetPlan(
        base=base, replication=replication, spare_workers=spare_workers
    )


def format_fleet_plan(plan: FleetPlan, model: SceneCostModel = None) -> str:
    """Render a fleet plan: the capacity report plus the worker answer.

    Appends the greppable ``fleet plan:`` line CI smoke jobs look for.
    """
    lines = [format_plan(plan.base, model)]
    if plan.feasible:
        lines.append(
            f"fleet plan: {plan.workers} worker(s) "
            f"({plan.base.boards} serving + {plan.spare_workers} spare), "
            f"replication {plan.replication}, "
            f"{plan.utilization:.0%} utilization healthy"
        )
    else:
        lines.append("fleet plan: INFEASIBLE (see notes above)")
    return "\n".join(lines)


def validate_plan(
    model: SceneCostModel,
    target: PlanTarget,
    plan: CapacityPlan,
    rate_scale: float = 1.0,
    min_frames: int = 60,
    seed: int = 0,
    batch_policy=None,
) -> dict:
    """Drive the real service at ``rate_scale`` x the planned rate.

    Runs the open-loop Poisson load generator against a fresh single
    -scene service at ``rate_scale * plan.max_admission_hz`` (one board)
    with the SLO tracker configured to the target's budget, and reports
    *goodput attainment*: frames completed within the budget over frames
    offered — the denominator includes shed and late work, so overload
    degrades it even when admission control protects completed-request
    latencies.  This is the planner's self-consistency oracle.

    ``batch_policy`` should match the one the model was profiled under
    (see :func:`~repro.obs.costmodel.profile_demo_scene`) — the model's
    ``overhead_s`` prices that policy's coalescing wait.
    """
    import numpy as np

    from ..serve import (
        PRIORITY_STANDARD,
        RenderService,
        ServiceConfig,
        SLOTarget,
        build_demo_registry,
        demo_camera,
        run_open_loop,
    )

    if not plan.feasible:
        raise ValueError("cannot validate an infeasible plan")
    rate = plan.max_admission_hz * rate_scale
    probe = int(model.meta.get("probe", round(math.sqrt(target.rays_per_frame))))
    registry = build_demo_registry(
        scenes=[model.scene],
        max_samples_per_ray=int(model.meta.get("max_samples_per_ray", 32)),
        seed=int(model.meta.get("seed", 0)),
    )
    config = ServiceConfig()
    if batch_policy is not None:
        config = ServiceConfig(batch=batch_policy)
    service = RenderService(registry, config=config)
    # Attainment is reported against the plan's own target.
    service.slo.targets[PRIORITY_STANDARD] = SLOTarget(
        "standard", latency_s=target.slo_s, attainment=target.attainment
    )
    report = run_open_loop(
        service,
        [model.scene],
        rate_hz=rate,
        duration_s=min_frames / rate,
        camera=demo_camera(probe, probe),
        rng=np.random.default_rng(seed),
        priority_mix=((PRIORITY_STANDARD, 1.0),),
        hw_scale=float(model.meta.get("hw_scale", 1.0)),
    )
    payload = service.slo.to_payload()
    standard = next(
        (c for c in payload["classes"] if c["priority"] == PRIORITY_STANDARD),
        None,
    )
    completed = standard["completed"] if standard else 0
    attained_completed = (standard or {}).get("attained") or 0.0
    within_slo = attained_completed * completed
    offered = max(report.n_offered, 1)
    return {
        "rate_scale": rate_scale,
        "rate_hz": rate,
        "offered": report.n_offered,
        "completed": completed,
        "within_slo": within_slo,
        "goodput_attainment": within_slo / offered,
        "completed_attainment": attained_completed,
        "p99_ms": (standard or {}).get("p99_s") and standard["p99_s"] * 1e3,
        "statuses": payload["statuses"],
        "utilization": report.stats["utilization"],
        "slo": payload,
    }
