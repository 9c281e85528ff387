"""The fleet controller: dispatch, churn survival, exact accounting.

:class:`FleetController` runs N simulated render workers
(:mod:`repro.fleet.workers`) behind one serving surface.  It runs on
the serve layer's event core, :class:`~repro.serve.service.ServingCore`
(clock, event heap, ``submit`` / ``run``, ledger, ``stats`` and
``report``), as :class:`~repro.serve.service.RenderService` does, and
adds only its five event handlers (arrival, reply, deadline, retry,
heartbeat), so the existing Poisson and closed-loop load generators
(:mod:`repro.serve.loadgen`) drive a fleet unchanged.

The robustness core, in the order a request meets it:

* **admission** — the core's admission front
  (:meth:`~repro.serve.service.ServingCore._admit_front`): the
  :class:`~repro.serve.admission.AdmissionController` ladder over the
  fleet-wide outstanding-ray backlog, priced by the serve layer's
  :class:`~repro.serve.admission.CostEstimator` (per-(scene, renderer,
  precision), reset by a new scene generation) divided by the live
  workers;
* **placement** — consistent-hash preference lists with replication
  (:mod:`repro.fleet.placement`): primary first, healthy before slow (a
  worker is slow once its service time is :data:`SLOW_FACTOR` times
  nominal);
* **per-RPC deadlines** — every dispatch schedules a timeout; a reply
  that never comes (crash, stall, dropped reply) cannot hang a request;
* **hedging** (always on) — the first missed deadline immediately
  duplicates the request onto an untried replica; the first reply wins,
  the loser is ignored;
* **retries** — further misses retry under the shared
  :class:`~repro.robustness.backoff.BackoffPolicy`: jittered exponential
  delays on the *virtual* clock, budgeted against the request deadline,
  capped by ``max_retries``;
* **failure detection** — heartbeats on the fleet clock; a worker that
  misses ``heartbeat_miss_limit`` consecutive beats is declared dead;
* **rebalance** — on death the ring drops the worker (only its scenes
  move), replicas are promoted, and MoE experts are remapped onto the
  least-loaded survivors via
  :func:`repro.robustness.degradation.plan_remap` — the same greedy-LPT
  policy the chip level uses.

Every submitted request terminates in exactly one of
{completed, shed, failed} on the serve layer's
:class:`~repro.serve.ledger.RequestLedger` —
:meth:`FleetController.accounting` proves it, and the report prints the
``unaccounted requests: 0`` line CI greps.  Pixels are exact and
worker-independent: frames render through the shared registry's
renderers in ``slice_rays`` chunks, so a replica-served frame is
bit-identical to the primary's, and both match the scene renderer's
offline :meth:`~repro.pipeline.renderer.Renderer.render_image` at that
chunk size, for every stage config.

Determinism: the event loop is a seeded discrete-event simulation —
arrival stream, fault schedule (:class:`FleetFaultConfig` sites wired
at init), reply-drop draws, and backoff jitter all derive from the
fault plan's seed, so a churn scenario replays bit-exactly.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..robustness.backoff import BackoffPolicy
from ..robustness.faults import FaultPlan
from ..serve.admission import AdmissionDecision, AdmissionPolicy
from ..serve.batching import RenderRequest, activate_request, slice_request
# status_bucket is re-exported: bench/workloads.py imports it from here.
from ..serve.ledger import status_bucket  # noqa: F401
from ..serve.registry import SceneRegistry
from ..serve.service import ServingCore, board_time, render_slices
from ..sim.multichip import MultiChipSystem
from .placement import HashRing, place_experts, rebalance_experts
from .workers import DEAD, HEALTHY, SLOW, workers_from_fault_config

logger = logging.getLogger("repro.fleet")

#: Terminal status when every RPC attempt for a request ran out.
FAILED_RPC_EXPIRED = "failed_rpc_expired"
#: Terminal status when no live worker remained to dispatch to.
FAILED_NO_WORKER = "failed_worker_unavailable"

#: Service-time inflation at which a heartbeat marks a worker ``slow``
#: (routing prefers healthy workers over slow ones).
SLOW_FACTOR = 2.0

# Event kinds after EV_ARRIVAL, in tie-break priority order
# (same-instant replies are handled before deadlines: a reply landing
# exactly at the deadline still counts).
_EV_REPLY = 1
_EV_DEADLINE = 2
_EV_RETRY = 3
_EV_HEARTBEAT = 4


@dataclass(frozen=True)
class FleetConfig:
    """Fleet-wide sizing, placement, and robustness knobs."""

    n_workers: int = 4
    #: Workers each scene is placed on (primary + replicas).
    replication: int = 2
    #: Virtual nodes per worker on the consistent-hash ring.
    vnodes: int = 32
    #: Per-RPC deadline on the fleet clock.
    rpc_timeout_s: float = 0.25
    #: Retry pacing after (hedge and) deadline misses; delays elapse on
    #: the virtual clock and are budgeted against the request deadline.
    backoff: BackoffPolicy = field(
        default_factory=lambda: BackoffPolicy(
            base_s=0.02, multiplier=2.0, max_delay_s=0.25, jitter=0.5,
            max_retries=2,
        )
    )
    heartbeat_interval_s: float = 0.05
    #: Consecutive missed heartbeats before a worker is declared dead.
    heartbeat_miss_limit: int = 3
    #: Rays of one hardware dispatch chunk — the bit-identity anchor
    #: (frames match ``Renderer.render_image`` at this chunk size).
    slice_rays: int = 4096
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    keep_frames: bool = False

    def __post_init__(self):
        if self.n_workers < 1:
            raise ValueError("n_workers must be positive")
        if not 1 <= self.replication <= self.n_workers:
            raise ValueError("need 1 <= replication <= n_workers")
        if self.rpc_timeout_s <= 0:
            raise ValueError("rpc_timeout_s must be positive")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.heartbeat_miss_limit < 1:
            raise ValueError("heartbeat_miss_limit must be >= 1")
        if self.slice_rays < 1:
            raise ValueError("slice_rays must be positive")


@dataclass
class _Rpc:
    """One dispatched RPC attempt."""

    entry: _Entry
    worker: int
    hedge: bool
    service_s: float
    frame: object = None


@dataclass
class _Entry:
    """Dispatch state of one admitted, not yet settled request."""

    request: RenderRequest
    handle: object
    renderer: object
    decision: AdmissionDecision
    n_rays: int
    tried: list = field(default_factory=list)
    rpc_ids: list = field(default_factory=list)
    outstanding: set = field(default_factory=set)
    retries: int = 0
    hedged: bool = False
    pending_retry: bool = False
    status: str = None


class FleetController(ServingCore):
    """N sharded, replicated render workers behind one serving surface."""

    tier = "fleet"

    def __init__(
        self,
        registry: SceneRegistry,
        config: FleetConfig = None,
        system: MultiChipSystem = None,
        fault_plan: FaultPlan = None,
    ):
        self.config = config or FleetConfig()
        # One board model (``system``) is shared for cost evaluation;
        # per-worker *time* lives on the workers (identical boards, like
        # the chip level).
        super().__init__(
            registry, system, self.config.admission, self.config.keep_frames
        )
        self.n_boards = self.config.n_workers  # one per worker, dead or alive
        self.fault_plan = fault_plan
        fleet_cfg = fault_plan.fleet if fault_plan is not None else None
        self.fleet_faults = fleet_cfg
        self.workers = workers_from_fault_config(
            self.config.n_workers, fleet_cfg
        )
        self.ring = HashRing(
            range(self.config.n_workers), vnodes=self.config.vnodes
        )
        for worker, experts in place_experts(self.config.n_workers).items():
            self.workers[worker].experts = list(experts)
        seed = fault_plan.seed if fault_plan is not None else 0
        self._drop_rng = (
            fault_plan.rng("fleet.drop_reply")
            if fault_plan is not None else None
        )
        self._backoff_rng = (
            fault_plan.rng("fleet.backoff")
            if fault_plan is not None
            else np.random.default_rng(seed)
        )
        self._rpcs = {}  # rpc_id -> _Rpc
        self._next_rpc = 0
        self._outstanding_rays = 0
        self._in_flight = 0
        self._hb_armed = False
        self.rpc_timeouts = 0
        self.retries = 0
        self.hedges = 0
        self.late_replies = 0
        self.dropped_replies = 0
        self.dead_workers = []
        #: Rebalance records, one per declared death.
        self.rebalances = []
        #: ``(t_s, priority, latency_s)`` per completion, for windowed
        #: attainment studies (churn dip and recovery).
        self.completions = []

    # -- event plumbing --------------------------------------------------

    def _push(self, t: float, kind: int, payload) -> int:
        seq = super()._push(t, kind, payload)
        if kind != _EV_HEARTBEAT:
            self._arm_heartbeat()
        return seq

    def _arm_heartbeat(self) -> None:
        if self._hb_armed:
            return
        self._hb_armed = True
        super()._push(
            self.now_s + self.config.heartbeat_interval_s, _EV_HEARTBEAT, None
        )

    # -- admission -------------------------------------------------------

    def _admit(self, request: RenderRequest) -> None:
        # The backlog is worked off by every live worker in parallel, so
        # the fleet-effective rate is n_live boards.
        admitted = self._admit_front(
            request, self._outstanding_rays, n_boards=max(len(self.ring), 1)
        )
        if admitted is None:
            return
        handle, renderer, decision = admitted
        entry = _Entry(
            request=request,
            handle=handle,
            renderer=renderer,
            decision=decision,
            n_rays=max(int(request.n_rays * decision.resolution_scale**2), 1),
        )
        self._in_flight += 1
        self._outstanding_rays += entry.n_rays
        worker = self._pick_worker(request.scene, exclude=())
        if worker is None:
            self._settle(entry, FAILED_NO_WORKER)
            return
        self._dispatch(entry, worker)

    # -- placement -------------------------------------------------------

    def _preference(self, scene: str) -> list:
        """Scene preference list: ring order, healthy before slow."""
        prefs = self.ring.preference(scene, self.config.replication)
        return sorted(
            prefs,
            key=lambda w: 0 if self.workers[w].health == HEALTHY else 1,
        )

    def _pick_worker(self, scene: str, exclude) -> int:
        """Best dispatch target for ``scene``, skipping ``exclude``.

        Preference-list workers first; any live worker as a fallback
        (the scene's data is in the shared registry, so any worker *can*
        serve it — off-preference dispatch just loses locality); the
        exclusion is relaxed before giving up entirely.
        """
        exclude = set(exclude)
        prefs = self._preference(scene)
        for worker in prefs:
            if worker not in exclude:
                return worker
        fallback = sorted(
            (w for w in self.ring.workers if w not in exclude),
            key=lambda w: (0 if self.workers[w].health == HEALTHY else 1, w),
        )
        if fallback:
            return fallback[0]
        return prefs[0] if prefs else None

    # -- dispatch --------------------------------------------------------

    def _dispatch(self, entry: _Entry, worker_idx: int, hedge: bool = False):
        now = self.now_s
        worker = self.workers[worker_idx]
        entry.tried.append(worker_idx)
        rpc_id = self._next_rpc
        self._next_rpc += 1
        entry.rpc_ids.append(rpc_id)
        entry.outstanding.add(rpc_id)
        frame = None
        service_s = 0.0
        reply_t = None
        if worker.alive_at(now):
            frame, billed, service_s = self._execute(entry, worker, now)
            end = worker.occupy(now, service_s)
            worker.billed_samples += billed
            reply_t = worker.reply_time(end)
            if (
                reply_t is not None
                and self.fleet_faults is not None
                and self.fleet_faults.drop_reply_fraction > 0.0
                and float(self._drop_rng.random())
                < self.fleet_faults.drop_reply_fraction
            ):
                self.dropped_replies += 1
                reply_t = None
        self._rpcs[rpc_id] = _Rpc(
            entry=entry,
            worker=worker_idx,
            hedge=hedge,
            service_s=service_s,
            frame=frame,
        )
        if reply_t is not None:
            self._push(reply_t, _EV_REPLY, rpc_id)
        self._push(now + self.config.rpc_timeout_s, _EV_DEADLINE, rpc_id)

    def _execute(self, entry: _Entry, worker, now: float) -> tuple:
        """Render the request's pixels and price its board time.

        Rendering happens in ``slice_rays`` chunks through the entry's
        renderer (the shared registry renderer, or its degraded-sampler
        copy) — the exact computation
        :meth:`~repro.pipeline.renderer.Renderer.render_image` performs
        at the same chunk size, on *any* worker, which is the
        bit-identity guarantee.  Board time is the scene trace stretched to the
        billed sample volume (the serve layer's billing model), scaled
        by the worker's current service multiplier (inherited experts,
        slow-degrades).
        """
        active = activate_request(
            entry.request, entry.handle, entry.renderer, entry.decision
        )
        billed = render_slices(slice_request(active, self.config.slice_rays))
        board_s = board_time(
            self.system, entry.request.scene, entry.handle.trace, billed
        )
        return active.frame, billed, board_s * worker.service_multiplier(now)

    # -- replies, deadlines, retries -------------------------------------

    def _on_reply(self, rpc_id: int) -> None:
        rpc = self._rpcs.get(rpc_id)
        if rpc is None:
            return
        entry = rpc.entry
        if entry.status is not None:
            self.late_replies += 1
            return
        entry.outstanding.discard(rpc_id)
        self.workers[rpc.worker].completed_rpcs += 1
        self._complete(entry, rpc)

    def _on_deadline(self, rpc_id: int) -> None:
        rpc = self._rpcs.get(rpc_id)
        if rpc is None:
            return
        entry = rpc.entry
        if entry.status is not None:
            return
        if rpc_id not in entry.outstanding:
            return  # the reply beat the deadline
        entry.outstanding.discard(rpc_id)
        self.rpc_timeouts += 1
        if not entry.hedged:
            worker = self._pick_worker(
                entry.request.scene, exclude=entry.tried
            )
            if worker is not None and worker not in entry.tried:
                entry.hedged = True
                self.hedges += 1
                self._dispatch(entry, worker, hedge=True)
                return
        retry = entry.retries + 1
        deadline = entry.request.deadline_s
        budget = deadline - self.now_s if deadline is not None else None
        if self.config.backoff.within_budget(retry, budget):
            entry.retries = retry
            entry.pending_retry = True
            self.retries += 1
            delay = self.config.backoff.delay_s(
                retry, self._backoff_rng, budget_s=budget
            )
            self._push(self.now_s + delay, _EV_RETRY, entry)
            return
        if not entry.outstanding and not entry.pending_retry:
            self._settle(entry, FAILED_RPC_EXPIRED)

    def _on_retry(self, entry: _Entry) -> None:
        if entry.status is not None:
            return
        entry.pending_retry = False
        worker = self._pick_worker(entry.request.scene, exclude=entry.tried)
        if worker is None:
            if not entry.outstanding:
                self._settle(entry, FAILED_NO_WORKER)
            return
        self._dispatch(entry, worker, hedge=True)

    # -- heartbeats and failure detection --------------------------------

    def _on_heartbeat(self, _) -> None:
        self._hb_armed = False
        now = self.now_s
        for worker in self.workers:
            if worker.health == DEAD:
                continue
            if worker.responsive_at(now):
                worker.missed_heartbeats = 0
                worker.health = (
                    SLOW
                    if worker.service_multiplier(now) >= SLOW_FACTOR
                    else HEALTHY
                )
            else:
                worker.missed_heartbeats += 1
                if worker.missed_heartbeats >= self.config.heartbeat_miss_limit:
                    self._declare_dead(worker)
        if self.ledger.unsettled:
            self._arm_heartbeat()

    def _declare_dead(self, worker) -> None:
        """Fence a dead worker and rebalance its shards and experts."""
        worker.health = DEAD
        self.dead_workers.append(worker.index)
        scenes = [s["name"] for s in self.registry.scenes()]
        before = {s: self.ring.preference(s, self.config.replication)
                  for s in scenes}
        self.ring.remove(worker.index)
        after = {s: self.ring.preference(s, self.config.replication)
                 for s in scenes}
        promoted = sum(
            1
            for s in scenes
            if before[s] and after[s]
            and before[s][0] == worker.index
            and after[s][0] in before[s]
        )
        moved = sum(
            1
            for s in scenes
            if before[s] and after[s]
            and before[s][0] == worker.index
            and after[s][0] not in before[s]
        )
        survivors = [w for w in range(self.config.n_workers)
                     if w not in self.dead_workers]
        remapped = {}
        if survivors:
            loads = [
                1.0 + self.workers[i].billed_samples
                for i in range(self.config.n_workers)
            ]
            assignment = rebalance_experts(
                self.config.n_workers, self.dead_workers, loads
            )
            for idx, experts in assignment.items():
                self.workers[idx].experts = sorted(experts)
            remapped = {idx: sorted(e) for idx, e in assignment.items()}
        record = {
            "t_s": self.now_s,
            "worker": worker.index,
            "survivors": len(survivors),
            "scenes_promoted": promoted,
            "scenes_moved": moved,
            "experts": remapped,
        }
        self.rebalances.append(record)
        logger.warning(
            "fleet rebalance: worker %d declared dead at t=%.3fs; "
            "%d scene(s) promoted to replicas, %d moved; experts "
            "remapped onto %d survivor(s)",
            worker.index, self.now_s, promoted, moved, len(survivors),
        )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter("fleet.rebalances").inc()
            tel.metrics.gauge("fleet.workers.dead").set(
                float(len(self.dead_workers))
            )

    _handlers = (_admit, _on_reply, _on_deadline, _on_retry, _on_heartbeat)

    # -- terminal outcomes -----------------------------------------------

    def _complete(self, entry: _Entry, rpc: _Rpc) -> None:
        request = entry.request
        self.completions.append(
            (self.now_s, request.priority, self.now_s - request.arrival_s)
        )
        self._observe(request.scene, entry.renderer, entry.handle.generation,
                      rpc.service_s, entry.n_rays)
        self._settle(
            entry,
            "completed",
            frame=rpc.frame,
            served_by=rpc.worker,
            via_hedge=rpc.hedge,
        )

    def _settle(self, entry: _Entry, status: str, **completion) -> None:
        """Free an admitted request's fleet state, then settle it."""
        entry.status = status
        entry.handle.release()
        self._in_flight -= 1
        self._outstanding_rays -= entry.n_rays
        for rpc_id in entry.rpc_ids:
            self._rpcs.pop(rpc_id, None)
        entry.outstanding.clear()
        self.ledger.settle(
            entry.request,
            status,
            self.now_s,
            degrade_level=entry.decision.degrade_level,
            **completion,
        )

    # -- reporting -------------------------------------------------------

    def attainment_between(self, t0: float, t1: float) -> float:
        """SLO attainment over completions in ``[t0, t1)``.

        The windowed view the churn study reads: attainment before the
        kill, through the dip, and after the rebalance.  ``nan`` when
        the window holds no completions.
        """
        total = 0
        met = 0
        for t, priority, latency in self.completions:
            if not t0 <= t < t1:
                continue
            target = self.slo.targets.get(priority)
            if target is None:
                continue
            total += 1
            if latency <= target.latency_s:
                met += 1
        return met / total if total else float("nan")

    def _busy_s(self) -> float:
        return sum(w.busy_s for w in self.workers)

    def stats(self) -> dict:
        """The core counters plus the fleet's ledger, RPC and worker counts."""
        accounting = self.accounting()
        return {
            **super().stats(),
            "offered": accounting["offered"],
            "in_flight": self._in_flight,
            "unaccounted": accounting["unaccounted"],
            "failed": accounting["failed"],
            "rpc_timeouts": self.rpc_timeouts,
            "retries": self.retries,
            "hedges": self.hedges,
            "late_replies": self.late_replies,
            "dropped_replies": self.dropped_replies,
            "rebalances": len(self.rebalances),
            "dead_workers": list(self.dead_workers),
            "workers": [w.summary() for w in self.workers],
        }

    def _panel(self) -> list:
        """The fleet panel: workers, RPC counters and rebalances."""
        lines = [
            "fleet",
            f"workers: {self.config.n_workers} "
            f"({len(self.dead_workers)} dead)   "
            f"replication: {self.config.replication}   "
            f"utilization: {self.utilization:.0%}",
        ]
        for worker in self.workers:
            summ = worker.summary()
            lines.append(
                f"  worker {summ['index']}: {summ['health']:<8} "
                f"experts={summ['experts']} "
                f"rpcs={summ['completed_rpcs']} busy={summ['busy_s']:.3f}s"
            )
        lines.append(
            f"rpc: timeouts={self.rpc_timeouts} retries={self.retries} "
            f"hedges={self.hedges} dropped_replies={self.dropped_replies} "
            f"late_replies={self.late_replies}"
        )
        for record in self.rebalances:
            lines.append(
                f"fleet rebalance: worker {record['worker']} declared dead at "
                f"t={record['t_s']:.3f}s; {record['scenes_promoted']} scene(s) "
                f"promoted, {record['scenes_moved']} moved; experts remapped "
                f"onto {record['survivors']} survivor(s)"
            )
        return lines
