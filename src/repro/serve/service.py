"""The rendering service: admission, scheduling, and hardware billing.

:class:`RenderService` ties the serve subsystem together as a
discrete-event simulation over a *service clock* (virtual seconds).
Clients :meth:`~RenderService.submit` timestamped
:class:`~repro.serve.batching.RenderRequest`\\ s;
:meth:`~RenderService.run` then replays the timeline: arrivals pass
through admission control, admitted requests are sliced and pooled by
the dynamic batch scheduler, and each dispatched batch renders its
slices through the real NeRF pipeline while the simulated
:class:`~repro.sim.multichip.MultiChipSystem` board is charged the
hardware time (the board is serial: one batch occupies it at a time, so
queueing delay is real).  Admission runs through the shared front
(:func:`~repro.serve.admission.admit`), and every terminal outcome is
settled exactly once on a :class:`~repro.serve.ledger.RequestLedger`.

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
from .admission import AdmissionController, AdmissionPolicy, CostEstimator, admit
from .batching import ActiveRequest, RenderRequest, activate_request, slice_request
from .ledger import RequestLedger, format_accounting
from .registry import SceneRegistry
from .scheduler import (
    ACTION_DISPATCH,
    ACTION_WAIT,
    BatchPolicy,
    DynamicRayBatchScheduler,
)
from .slo import SLOTracker, format_slo_report

@dataclass(frozen=True)
class ServiceConfig:
    """Service-wide policies and bookkeeping knobs."""

    batch: BatchPolicy = field(default_factory=BatchPolicy)
    admission: AdmissionPolicy = field(default_factory=AdmissionPolicy)
    #: Optional per-priority :class:`~repro.serve.slo.SLOTarget` overrides.
    slo_targets: dict = None
    #: Keep completed frames on the response objects (tests / single
    #: clients); load generation leaves this off to bound memory.
    keep_frames: bool = False


class RenderService:
    """Discrete-event rendering service over a simulated accelerator."""

    def __init__(
        self,
        registry: SceneRegistry,
        system: MultiChipSystem = None,
        config: ServiceConfig = None,
    ):
        self.registry = registry
        self.system = system or MultiChipSystem()
        self.config = config or ServiceConfig()
        #: Seconds-per-ray estimates, fed by each dispatched batch.
        self.estimator = CostEstimator()
        self.scheduler = DynamicRayBatchScheduler(self.config.batch)
        self.admission = AdmissionController(self.config.admission)
        self.ledger = RequestLedger(
            "serve", self.config.slo_targets, self.config.keep_frames
        )
        self.slo = self.ledger.slo
        #: request_id -> RenderResponse once terminal.
        self.responses = self.ledger.responses
        #: Service clock, virtual seconds.
        self.now_s = 0.0
        self._arrivals = []  # heap of (arrival_s, seq, request)
        self._seq = 0
        self.batches_dispatched = 0
        self.hardware_busy_s = 0.0

    # -- client surface --------------------------------------------------

    def submit(self, request: RenderRequest, on_complete=None) -> int:
        """Queue a request for its ``arrival_s``; returns the request id.

        ``on_complete(response)`` fires when the request reaches a
        terminal status (completed, shed, rejected, or failed) — the
        closed-loop hook load generators chain their next arrival on.
        Raises ``ValueError`` if a pending request already has this id.
        """
        self.ledger.offer(request, on_complete)
        heapq.heappush(
            self._arrivals, (request.arrival_s, self._seq, request)
        )
        self._seq += 1
        return request.request_id

    def run(self, max_batches: int = None) -> SLOTracker:
        """Replay the timeline until all submitted work is terminal.

        Closed-loop clients may submit new requests from completion
        callbacks; the loop keeps draining until both the arrival heap
        and the scheduler are empty (or ``max_batches`` dispatches have
        run — a safety valve for open-ended closed loops).
        """
        while True:
            next_arrival = self._arrivals[0][0] if self._arrivals else None
            if next_arrival is not None and next_arrival <= self.now_s:
                _, _, request = heapq.heappop(self._arrivals)
                self._admit(request)
                continue
            action, payload = self.scheduler.next_action(
                self.now_s, next_arrival
            )
            if action == ACTION_DISPATCH:
                self._execute(payload)
                if (
                    max_batches is not None
                    and self.batches_dispatched >= max_batches
                ):
                    break
            elif action == ACTION_WAIT:
                self.now_s = max(self.now_s, payload)
            else:
                break
        return self.slo

    # -- admission -------------------------------------------------------

    def _admit(self, request: RenderRequest) -> None:
        """Run one arrival through the admission front at ``now_s``."""
        tel = telemetry.get_session()
        with tel.tracer.span(
            "serve.admit", request=request.request_id, scene=request.scene
        ):
            admitted = admit(self, request, self.scheduler.queued_rays())
            if admitted is None:
                return
            handle, renderer, decision = admitted
            active = activate_request(
                request,
                handle,
                renderer,
                decision.samples_per_ray,
                decision.resolution_scale,
                decision.degrade_level,
            )
            self.scheduler.enqueue(
                request.scene,
                slice_request(active, self.config.batch.slice_rays),
                self.now_s,
            )
        if tel.enabled:
            tel.metrics.gauge("serve.queue.rays").set(
                float(self.scheduler.queued_rays())
            )

    # -- dispatch --------------------------------------------------------

    def _execute(self, batch) -> None:
        """Render a dispatched batch and charge the board its time."""
        tel = telemetry.get_session()
        billed_samples = 0.0
        finished = []
        with tel.tracer.span(
            "serve.dispatch",
            scene=batch.scene,
            rays=batch.n_rays,
            requests=batch.n_requests,
        ):
            for item in batch.slices:
                active = item.active
                colors, _, live = active.renderer.render_rays(
                    active.origins[item.start : item.stop],
                    active.directions[item.start : item.stop],
                )
                active.out[item.start : item.stop] = colors
                billed_samples += live * active.request.hw_scale
                active.slices_remaining -= 1
                if active.slices_remaining == 0:
                    finished.append(active)
            # The last slice's pinned generation bills the batch: slices
            # queue in admission order and a name's generation never
            # decreases, so it is the newest generation in the batch.
            handle = batch.slices[-1].active.handle
            runtime_s = board_time(
                self.system, batch.scene, handle.trace, billed_samples
            )
        self.now_s += runtime_s
        self.hardware_busy_s += runtime_s
        self.batches_dispatched += 1
        if runtime_s > 0 and batch.n_rays > 0:
            renderer = handle.renderer
            self.estimator.observe(
                (batch.scene, renderer.name, renderer.precision),
                handle.generation,
                runtime_s / batch.n_rays,
            )
        for active in finished:
            self._finish(active)
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
            tel.metrics.gauge("serve.utilization").set(
                self.hardware_busy_s / self.now_s if self.now_s > 0 else 0.0
            )
            if tel.publisher is not None:
                # The ops plane samples on the *service* clock, so queue
                # and rate dynamics line up with simulated time.
                tel.publisher.maybe_publish(self.now_s)

    def _finish(self, active: ActiveRequest) -> None:
        """Settle a fully rendered request as completed at the current clock."""
        active.status = "completed"
        active.handle.release()
        self.ledger.settle(
            active.request,
            "completed",
            self.now_s,
            degrade_level=active.degrade_level,
            frame=active.frame,
        )

    # -- reporting -------------------------------------------------------

    def stats(self) -> dict:
        """Operational counters for experiment tables and smoke checks."""
        return {
            "now_s": self.now_s,
            "completed": self.slo.completed,
            "statuses": self.slo.status_counts(),
            "batches_dispatched": self.batches_dispatched,
            "hardware_busy_s": self.hardware_busy_s,
            "utilization": (
                self.hardware_busy_s / self.now_s if self.now_s > 0 else 0.0
            ),
            "admitted": self.admission.admitted,
            "degraded": self.admission.degraded,
            "shed": self.admission.shed,
            "rejected_deadline": self.admission.rejected_deadline,
            **self.estimator.stats(),
        }

    def accounting(self) -> dict:
        """Exactly-once ledger: offered = completed + shed + failed."""
        return self.ledger.accounting()

    def report(self) -> str:
        """The greppable SLO attainment report, ending with the ledger lines."""
        return "\n".join(
            [format_slo_report(self.slo), "-" * 72, format_accounting(self.accounting())]
        )


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
