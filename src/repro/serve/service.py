"""The serving event core and the one-board rendering service.

Both serving tiers, :class:`RenderService` and
:class:`~repro.fleet.FleetController`, are discrete-event simulations
on :class:`ServingCore`: a virtual clock over one ``(t, kind, seq,
payload)`` event heap, ``submit`` / ``run``, admission control, the
cost estimator, the exactly-once
:class:`~repro.serve.ledger.RequestLedger`, and the ``stats()`` keys and
report both tiers print.  A tier adds only its event handlers.  Kind 0
is an arrival, handled before a tier's other events at the same
instant, so every request meets the one admission front
(:meth:`ServingCore._admit_front`) at its own ``arrival_s``.

:class:`RenderService` is one simulated
:class:`~repro.sim.multichip.MultiChipSystem` board with three handlers:
an *arrival* slices an admitted request into the dynamic batch
scheduler's per-scene queues; a *scheduler wake* on a free board
dispatches a due batch, rendering its slices through the real NeRF
pipeline and holding the board for the simulated time, or arms the
wake for when the next batch falls due; *board free* completes the
batch's finished requests and feeds the estimator.  The board keeps its
busy-until time apart from the clock, so requests keep arriving, and
queueing, while it renders.

Pixels are exact, time is simulated: every slice renders through its own
:meth:`~repro.pipeline.renderer.Renderer.render_rays` call on the
scene's renderer with boundaries fixed at admission, so a full-quality
served frame is bit-identical to that renderer's offline
:meth:`~repro.pipeline.renderer.Renderer.render_image` at
``chunk=slice_rays`` for every stage config (exact, ERT, low precision,
adaptive) — coalescing and billing affect *when* work happens, never
what it computes.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .. import telemetry
from ..sim.multichip import MultiChipSystem
from .admission import (
    FAILED_UNKNOWN_SCENE, AdmissionController, AdmissionPolicy, CostEstimator,
)
from .batching import activate_request, degraded_renderer, slice_request
from .ledger import RequestLedger, format_accounting
from .registry import SceneRegistry, UnknownSceneError
from .scheduler import (
    ACTION_DISPATCH, ACTION_WAIT, BatchPolicy, DynamicRayBatchScheduler,
)
from .slo import SLOTracker, format_slo_report

#: Event kind of an arrival; a tier numbers its other kinds from 1 in
#: their same-instant order.
EV_ARRIVAL = 0


class ServingCore:
    """The event loop, client surface and ledger of both serving tiers.

    A subclass sets :attr:`tier` (its metric prefix) and
    :attr:`n_boards`, lists its handler functions in event-kind order in
    the class attribute ``_handlers`` (``_handlers[EV_ARRIVAL]`` admits;
    plain functions, so a tier holds no reference cycle through bound
    methods and is freed as soon as it is dropped), and implements
    :meth:`_busy_s`.
    """

    tier = None
    n_boards = 1
    _handlers = ()

    def __init__(self, registry: SceneRegistry, system: MultiChipSystem,
                 admission: AdmissionPolicy, keep_frames: bool):
        self.registry = registry
        self.system = system or MultiChipSystem()
        self.admission = AdmissionController(admission)
        #: Seconds-per-ray estimates, fed by each completed dispatch.
        self.estimator = CostEstimator()
        self.ledger = RequestLedger(self.tier, keep_frames)
        self.slo = self.ledger.slo
        #: request_id -> RenderResponse once terminal.
        self.responses = self.ledger.responses
        #: Tier clock, virtual seconds.
        self.now_s = 0.0
        self._events = []  # heap of (t, kind, seq, payload)
        self._seq = 0
        self._cancelled = set()  # seqs of queued events to drop unhandled

    # -- client surface --------------------------------------------------

    def submit(self, request, on_complete=None) -> int:
        """Queue a request for its ``arrival_s``; returns the request id.

        ``on_complete(response)`` fires when the request reaches a
        terminal status (completed, shed, rejected, or failed) — the
        closed-loop hook load generators chain their next arrival on.
        Raises ``ValueError`` if a pending request already has this id.
        """
        self.ledger.offer(request, on_complete)
        self._push(request.arrival_s, EV_ARRIVAL, request)
        return request.request_id

    def run(self, until_s: float = None) -> SLOTracker:
        """Replay the timeline until all submitted work is terminal.

        Closed-loop clients may submit from completion callbacks; the
        loop drains until the event heap empties, or stops before the
        first event later than ``until_s``.
        """
        while self._events:
            t, kind, seq, payload = self._events[0]
            if until_s is not None and t > until_s:
                break
            heapq.heappop(self._events)
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.now_s = max(self.now_s, t)
            self._handlers[kind](self, payload)
        return self.slo

    def _push(self, t: float, kind: int, payload) -> int:
        """Queue an event; returns its seq, the handle to cancel it by."""
        seq = self._seq
        heapq.heappush(self._events, (t, kind, seq, payload))
        self._seq += 1
        return seq

    def _admit_front(self, request, queued_rays: int, n_boards: int = 1):
        """Admit one arrival at ``now_s``, or settle its refusal.

        The estimate at the handle's generation is divided by
        ``n_boards``, the boards draining the ``queued_rays`` backlog in
        parallel.  An unknown scene or a rejection is settled here and
        returns ``None``; otherwise the caller owns the returned
        ``(handle, renderer, decision)``, the renderer capped at the
        decided samples per ray.
        """
        try:
            handle = self.registry.acquire(request.scene)
        except UnknownSceneError:
            self.ledger.settle(request, FAILED_UNKNOWN_SCENE, self.now_s)
            return None
        renderer = handle.renderer
        est = self.estimator.estimate(
            (request.scene, renderer.name, renderer.precision), handle.generation
        )
        decision = self.admission.decide(
            request,
            self.now_s,
            queued_rays,
            handle.marcher.config.max_samples,
            est_s_per_ray=est / n_boards if est is not None else None,
        )
        if not decision.admitted:
            handle.release()
            self.ledger.settle(request, decision.status, self.now_s)
            return None
        tel = telemetry.get_session()
        if tel.enabled and decision.degrade_level:
            tel.metrics.counter(f"{self.tier}.requests.degraded").inc()
        renderer = degraded_renderer(renderer, decision.samples_per_ray)
        return handle, renderer, decision

    def _observe(self, scene: str, renderer, generation: int, board_s: float,
                 n_rays: int) -> None:
        """Fold a completed dispatch's seconds per ray into the estimator."""
        if board_s > 0 and n_rays > 0:
            key = (scene, renderer.name, renderer.precision)
            self.estimator.observe(key, generation, board_s / n_rays)

    # -- reporting -------------------------------------------------------

    def _busy_s(self) -> float:
        """Board seconds spent so far, summed over the tier's boards."""
        raise NotImplementedError

    @property
    def utilization(self) -> float:
        """Busy share of the boards' time since the clock started."""
        horizon = self.now_s * self.n_boards
        return self._busy_s() / horizon if horizon > 0 else 0.0

    def stats(self) -> dict:
        """Operational counters for experiment tables and smoke checks."""
        return {
            "now_s": self.now_s,
            "completed": self.slo.completed,
            "statuses": self.slo.status_counts(),
            "admitted": self.admission.admitted,
            "degraded": self.admission.degraded,
            "shed": self.admission.shed,
            "rejected_deadline": self.admission.rejected_deadline,
            "utilization": self.utilization,
            **self.estimator.stats(),
        }

    def accounting(self) -> dict:
        """Exactly-once ledger: offered = completed + shed + failed."""
        return self.ledger.accounting()

    def _panel(self) -> list:
        """The tier's own report lines, between the SLO table and the ledger."""
        return []

    def report(self) -> str:
        """The greppable SLO report, the tier panel, then the ledger lines."""
        return "\n".join([format_slo_report(self.slo), "-" * 72, *self._panel(),
                          format_accounting(self.accounting())])


@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide policies and bookkeeping knobs."""

    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Keep completed frames on the response objects (tests / single
    #: clients); load generation leaves this off to bound memory.
    keep_frames: bool = False


# RenderService event kinds after EV_ARRIVAL, in same-instant order.
_EV_BOARD_FREE = 1
_EV_WAKE = 2


class RenderService(ServingCore):
    """One simulated board behind the serving core, with coalescing."""

    tier = "serve"

    def __init__(
        self,
        registry: SceneRegistry,
        system: MultiChipSystem = None,
        config: ServiceConfig = None,
    ):
        self.config = config or ServiceConfig()
        super().__init__(
            registry, system, self.config.admission, self.config.keep_frames
        )
        self.scheduler = DynamicRayBatchScheduler(self.config.batch)
        self._board_busy = False
        self._wake = None  # (t, seq) of the one armed scheduler wake
        self.batches_dispatched = 0
        self.hardware_busy_s = 0.0

    # -- events ----------------------------------------------------------

    def _admit(self, request) -> None:
        """Run one arrival through the admission front at ``now_s``."""
        tel = telemetry.get_session()
        with tel.tracer.span(
            "serve.admit", request=request.request_id, scene=request.scene
        ):
            admitted = self._admit_front(request, self.scheduler.queued_rays())
            if admitted is None:
                return
            handle, renderer, decision = admitted
            active = activate_request(request, handle, renderer, decision)
            self.scheduler.enqueue(
                request.scene,
                slice_request(active, self.config.batch.slice_rays),
                self.now_s,
            )
        if tel.enabled:
            tel.metrics.gauge("serve.queue.rays").set(
                float(self.scheduler.queued_rays())
            )
        if not self._board_busy:
            self._wake_at(self.now_s)

    def _wake_at(self, t: float) -> None:
        """Arm the scheduler wake for ``t`` unless one is armed no later."""
        if self._wake is not None:
            if self._wake[0] <= t:
                return
            self._cancelled.add(self._wake[1])
        self._wake = (t, self._push(t, _EV_WAKE, None))

    def _on_wake(self, _) -> None:
        """Dispatch a due batch onto a free board, or wake when one is due."""
        self._wake = None
        if self._board_busy:
            return  # the board-free event wakes the scheduler again
        action, payload = self.scheduler.next_action(self.now_s)
        if action == ACTION_DISPATCH:
            self._dispatch(payload)
        elif action == ACTION_WAIT:
            self._wake_at(payload)

    def _dispatch(self, batch) -> None:
        """Render a batch now and hold the board for its simulated time."""
        tel = telemetry.get_session()
        with tel.tracer.span(
            "serve.dispatch",
            scene=batch.scene,
            rays=batch.n_rays,
            requests=batch.n_requests,
        ):
            billed_samples = render_slices(batch.slices)
            # The last slice's pinned generation bills the batch: slices
            # queue in admission order and a name's generation never
            # decreases, so it is the newest generation in the batch.
            handle = batch.slices[-1].active.handle
            runtime_s = board_time(
                self.system, batch.scene, handle.trace, billed_samples
            )
        self.hardware_busy_s += runtime_s
        self.batches_dispatched += 1
        self._board_busy = True
        self._push(self.now_s + runtime_s, _EV_BOARD_FREE, (batch, handle, runtime_s))

    def _on_board_free(self, payload) -> None:
        """Complete the batch's finished requests, then wake the scheduler."""
        batch, handle, runtime_s = payload
        self._board_busy = False
        self._observe(batch.scene, handle.renderer, handle.generation,
                      runtime_s, batch.n_rays)
        for item in batch.slices:
            active = item.active
            if item.stop == active.n_rays:  # its request's last slice
                active.handle.release()
                self.ledger.settle(
                    active.request,
                    "completed",
                    self.now_s,
                    degrade_level=active.degrade_level,
                    frame=active.frame,
                )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.histogram("serve.batch.rays").observe(batch.n_rays)
            tel.metrics.histogram("serve.batch.requests").observe(
                batch.n_requests
            )
            tel.metrics.gauge("serve.queue.rays").set(
                float(self.scheduler.queued_rays())
            )
            tel.metrics.gauge("serve.queue.slices").set(
                float(self.scheduler.queued_slices())
            )
            tel.metrics.gauge("serve.utilization").set(self.utilization)
            if tel.publisher is not None:
                # The ops plane samples on the *service* clock, so queue
                # and rate dynamics line up with simulated time.
                tel.publisher.maybe_publish(self.now_s)
        self._wake_at(self.now_s)

    _handlers = (_admit, _on_board_free, _on_wake)

    # -- reporting -------------------------------------------------------

    def _busy_s(self) -> float:
        return self.hardware_busy_s

    def stats(self) -> dict:
        """The core counters plus the board's dispatches and busy time."""
        return {
            **super().stats(),
            "batches_dispatched": self.batches_dispatched,
            "hardware_busy_s": self.hardware_busy_s,
        }


def render_slices(slices) -> float:
    """Render each slice into its request's frame; returns the billed samples.

    Every slice runs its own
    :meth:`~repro.pipeline.renderer.Renderer.render_rays` call on its
    request's renderer; a request whose last slice has rendered is
    marked completed.  A live sample is billed ``hw_scale`` times.  The
    one render-and-bill loop of both serving tiers.
    """
    billed = 0.0
    for item in slices:
        active = item.active
        colors, _, live = active.renderer.render_rays(
            active.origins[item.start : item.stop],
            active.directions[item.start : item.stop],
        )
        active.out[item.start : item.stop] = colors
        billed += live * active.request.hw_scale
        if item.stop == active.n_rays:
            active.status = "completed"
    return billed


def board_time(
    system: MultiChipSystem, scene: str, trace, billed_samples: float
) -> float:
    """Simulated board seconds for one dispatch of ``scene``.

    ``billed_samples`` is the live-sample total scaled by each request's
    ``hw_scale``: the samples that reached the composite (every kept
    sample without early ray termination, see
    :meth:`~repro.pipeline.renderer.Renderer.render_rays`).  The scene's
    representative trace is stretched to that volume (the standard
    ``workload_scale`` linear extrapolation).  An all-background dispatch
    (zero live samples) still pays the camera-broadcast round trip.  The one billing rule of
    :class:`RenderService` and :class:`~repro.fleet.FleetController`.
    """
    traces = [trace] * system.config.n_chips
    if billed_samples <= 0 or trace.n_samples == 0:
        return system.communication(traces, workload_scale=0.0).transfer_s
    report = system.simulate_batch(
        scene, traces, workload_scale=billed_samples / trace.n_samples
    )
    return report.runtime_s
