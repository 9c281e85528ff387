"""Deadline- and backpressure-aware admission control.

Every arriving request passes through :class:`AdmissionController` before
touching a queue.  The controller rejects work that is already doomed
(deadline in the past, or infeasible under the current service-time
estimate) and converts overload into *graceful degradation* before it
becomes *shedding*: as queue depth climbs, new requests are admitted at
half the samples-per-ray budget, then additionally at half resolution,
and only past the hard queue cap are they shed — lowest priority class
first.  This is the serving-side twin of the robustness layer's
degrade-before-fail ladder (``repro.robustness.degradation``).
Both serving tiers admit through one front,
:meth:`~repro.serve.service.ServingCore._admit_front`: scene lookup,
pricing by :class:`CostEstimator`, this ladder, and settling every
refusal on the tier's request ledger.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Degrade ladder levels applied at admission.
DEGRADE_NONE = 0
DEGRADE_SAMPLES = 1  # halve samples-per-ray
DEGRADE_RESOLUTION = 2  # halve samples-per-ray AND render at half resolution

#: Terminal admission verdicts.
REJECT_DEADLINE_EXPIRED = "rejected_deadline_expired"
REJECT_DEADLINE_INFEASIBLE = "rejected_deadline_infeasible"
REJECT_SHED = "shed_overload"
#: Terminal status for a request whose scene is not deployed.
FAILED_UNKNOWN_SCENE = "failed_unknown_scene"

#: EWMA smoothing of each delivered seconds-per-ray estimate.
EWMA_ALPHA = 0.2

#: Degradation never cuts a request below this many samples per ray.
MIN_SAMPLES_PER_RAY = 4
#: Priority classes at or below this value (interactive) are degraded,
#: not shed, until the queue passes ``max_queue_rays`` times
#: :data:`PRIORITY_HEADROOM`.
SHED_SPARES_PRIORITY = 0
PRIORITY_HEADROOM = 1.5


@dataclass(frozen=True)
class AdmissionPolicy:
    """Queue-depth thresholds of the shed-or-degrade ladder (in rays).

    ``degrade_rays`` starts level-1 degradation, ``heavy_degrade_rays``
    starts level-2, and ``max_queue_rays`` is the hard cap past which
    requests are shed; interactive requests
    (:data:`SHED_SPARES_PRIORITY`) are degraded, not shed, until the
    queue exceeds ``max_queue_rays`` times :data:`PRIORITY_HEADROOM`.
    """

    max_queue_rays: int = 1 << 18
    degrade_rays: int = 1 << 16
    heavy_degrade_rays: int = 1 << 17

    def __post_init__(self):
        if not 0 < self.degrade_rays <= self.heavy_degrade_rays <= self.max_queue_rays:
            raise ValueError(
                "need 0 < degrade_rays <= heavy_degrade_rays <= max_queue_rays"
            )


@dataclass(frozen=True)
class AdmissionDecision:
    """Outcome of one admission check.

    ``admitted`` requests carry the (possibly degraded) render budget;
    rejected ones carry a terminal ``status`` string explaining why.
    """

    admitted: bool
    status: str = None
    degrade_level: int = DEGRADE_NONE
    samples_per_ray: int = 0
    resolution_scale: float = 1.0


class AdmissionController:
    """Stateless ladder decisions over live queue depth and EWMA speed."""

    def __init__(self, policy: AdmissionPolicy = None):
        self.policy = policy or AdmissionPolicy()
        self.admitted = 0
        self.degraded = 0
        self.shed = 0
        self.rejected_deadline = 0

    def decide(
        self,
        request,
        now: float,
        queued_rays: int,
        full_samples_per_ray: int,
        est_s_per_ray: float = None,
    ) -> AdmissionDecision:
        """Admit, degrade, or reject one request at service-clock ``now``.

        ``est_s_per_ray`` is the service's EWMA estimate of delivered
        seconds per ray (``None`` before the first completion — then the
        feasibility check is skipped and only already-expired deadlines
        reject).
        """
        policy = self.policy
        deadline = request.deadline_s
        if deadline is not None and deadline <= now:
            self.rejected_deadline += 1
            return AdmissionDecision(
                admitted=False, status=REJECT_DEADLINE_EXPIRED
            )
        over_cap = queued_rays > policy.max_queue_rays
        if over_cap:
            spared = (
                request.priority <= SHED_SPARES_PRIORITY
                and queued_rays <= policy.max_queue_rays * PRIORITY_HEADROOM
            )
            if not spared:
                self.shed += 1
                return AdmissionDecision(admitted=False, status=REJECT_SHED)
        if over_cap or queued_rays > policy.heavy_degrade_rays:
            level = DEGRADE_RESOLUTION
        elif queued_rays > policy.degrade_rays:
            level = DEGRADE_SAMPLES
        else:
            level = DEGRADE_NONE
        samples = full_samples_per_ray
        resolution_scale = 1.0
        if level >= DEGRADE_SAMPLES:
            samples = max(samples // 2, MIN_SAMPLES_PER_RAY)
        if level >= DEGRADE_RESOLUTION:
            resolution_scale = 0.5
        if deadline is not None and est_s_per_ray is not None:
            # Feasibility at the degraded budget: admitting work that
            # cannot finish by its deadline only burns board time that a
            # feasible request behind it needed.
            est_rays = request.n_rays * resolution_scale**2
            backlog_rays = queued_rays + est_rays
            est_finish = now + backlog_rays * est_s_per_ray * (
                samples / max(full_samples_per_ray, 1)
            )
            if est_finish > deadline:
                self.rejected_deadline += 1
                return AdmissionDecision(
                    admitted=False, status=REJECT_DEADLINE_INFEASIBLE
                )
        self.admitted += 1
        if level != DEGRADE_NONE:
            self.degraded += 1
        return AdmissionDecision(
            admitted=True,
            status=None,
            degrade_level=level,
            samples_per_ray=samples,
            resolution_scale=resolution_scale,
        )


class CostEstimator:
    """Seconds-per-ray estimates for deadline admission, in serve and fleet.

    Keyed per ``(scene, renderer, precision)``, since renderer families
    and precisions differ in cost by orders of magnitude.  Each estimate
    remembers the scene generation it was measured on: a *newer*
    generation's first observation replaces it and counts a reblend (a
    2x-cost hot-swap would otherwise admit doomed deadline work for
    ~1/alpha observations), the *same* generation blends in by
    :data:`EWMA_ALPHA`, and an *older* one (a request still draining
    after a hot-swap) is dropped.  A key starts with no estimate, so
    the feasibility check is skipped until its first observation.
    """

    def __init__(self):
        self._estimates = {}  # key -> (s_per_ray, generation)
        self.reblends = 0

    def estimate(self, key: tuple, generation: int) -> float:
        """The estimate admission at ``generation`` prices ``key`` with.

        ``None`` before the key's first observation.  A stale estimate
        still prices a newer generation until that generation's first
        observation.  ``generation`` is the admitting handle's; it is
        never below the stored estimate's, because a name's generation
        never decreases (only a hot-swap replaces a scene).
        """
        entry = self._estimates.get(key)
        return None if entry is None else entry[0]

    def observe(self, key: tuple, generation: int, s_per_ray: float) -> None:
        """Fold one measured seconds-per-ray of ``generation`` into ``key``."""
        entry = self._estimates.get(key)
        if entry is None or generation > entry[1]:
            if entry is not None:
                self.reblends += 1
            self._estimates[key] = (s_per_ray, generation)
        elif generation == entry[1]:
            blended = EWMA_ALPHA * s_per_ray + (1 - EWMA_ALPHA) * entry[0]
            self._estimates[key] = (blended, generation)

    def stats(self) -> dict:
        """``ewma_reblends`` and ``ewma_s_per_ray_by_key`` for ``stats()``."""
        return {
            "ewma_reblends": self.reblends,
            "ewma_s_per_ray_by_key": {
                f"{scene}/{renderer}/{precision}": value
                for (scene, renderer, precision), (value, _) in sorted(
                    self._estimates.items()
                )
            },
        }
