"""The request ledger: exactly-once terminal accounting for serve and fleet.

Every request a tier accepts through ``submit`` is *offered* to one
:class:`RequestLedger` and stays *pending* until the tier settles it
with exactly one terminal status.  :meth:`RequestLedger.settle` is the
only code that records an outcome: it feeds the
:class:`~repro.serve.slo.SLOTracker`, builds the client's
:class:`RenderResponse`, stores a frameless copy (unless the tier keeps
frames), bumps the ``{tier}.requests.{status}`` counter and the
``{tier}.latency_s`` histogram, and fires the client's callback.
:meth:`RequestLedger.accounting` then proves
``offered = completed + shed + failed``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import telemetry
from .slo import SLOTracker


def status_bucket(status: str) -> str:
    """Map a terminal status onto {completed, shed, failed}.

    Admission rejections (shed, expired/infeasible deadlines) count as
    *shed* — the service refused the work; *failed* is work the service
    accepted, or could not route, and did not finish.
    """
    if status == "completed":
        return "completed"
    if status.startswith("shed") or status.startswith("rejected"):
        return "shed"
    return "failed"


@dataclass
class RenderResponse:
    """Terminal outcome of one request, as seen by the client."""

    request_id: int
    scene: str
    status: str
    priority: int
    degrade_level: int = 0
    #: Arrival-to-completion latency on the service clock (``None``
    #: unless completed).
    latency_s: float = None
    #: The rendered frame — populated for completed requests when the
    #: tier keeps frames or a completion callback is registered.
    frame: np.ndarray = None
    #: Fleet worker that served the completing reply (``None`` for a
    #: single board, or unless completed).
    served_by: int = None
    #: Whether the completing fleet reply came from a hedge/retry
    #: dispatch rather than the first (primary) RPC.
    via_hedge: bool = False

    @property
    def completed(self) -> bool:
        """Whether the request rendered to completion."""
        return self.status == "completed"


class RequestLedger:
    """Offered and pending requests, their callbacks, and their outcomes."""

    def __init__(self, tier: str, keep_frames: bool = False):
        #: Metric prefix: ``"serve"`` or ``"fleet"``.
        self.tier = tier
        self.keep_frames = keep_frames
        self.slo = SLOTracker()
        self.offered = 0
        #: request_id -> RenderResponse once terminal.
        self.responses = {}
        self._pending = {}  # request_id -> on_complete (or None)

    @property
    def unsettled(self) -> int:
        """Offered requests that have no terminal status yet."""
        return len(self._pending)

    def offer(self, request, on_complete=None) -> None:
        """Accept ``request``; its id must not belong to a pending request.

        Reusing the id of a request that has already settled is legal.
        """
        if request.request_id in self._pending:
            raise ValueError(
                f"request id {request.request_id} is already pending"
            )
        self._pending[request.request_id] = on_complete
        self.offered += 1

    def settle(
        self,
        request,
        status: str,
        now_s: float,
        degrade_level: int = 0,
        frame: np.ndarray = None,
        served_by: int = None,
        via_hedge: bool = False,
    ) -> None:
        """Record the one terminal ``status`` of a pending request at ``now_s``.

        ``frame``, ``served_by`` and ``via_hedge`` describe a completion.
        The frame reaches the callback, and the stored response only when
        the ledger keeps frames.
        """
        try:
            callback = self._pending.pop(request.request_id)
        except KeyError:
            raise ValueError(
                f"request id {request.request_id} is not pending"
            ) from None
        completed = status == "completed"
        latency = now_s - request.arrival_s if completed else None
        self.slo.record(request.priority, status, latency)
        response = RenderResponse(
            request_id=request.request_id,
            scene=request.scene,
            status=status,
            priority=request.priority,
            degrade_level=degrade_level,
            latency_s=latency,
            frame=frame if self.keep_frames or callback is not None else None,
            served_by=served_by,
            via_hedge=via_hedge,
        )
        self.responses[request.request_id] = (
            response if self.keep_frames else replace(response, frame=None)
        )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter(f"{self.tier}.requests.{status}").inc()
            if completed:
                tel.metrics.histogram(
                    f"{self.tier}.latency_s", min_bound=1e-9
                ).observe(latency)
        if callback is not None:
            callback(response)

    def accounting(self) -> dict:
        """Exactly-once ledger: offered = completed + shed + failed.

        ``unaccounted`` must be 0 once the tier's ``run`` drains — the
        invariant the tests and the CI smoke greps assert.
        """
        buckets = {"completed": 0, "shed": 0, "failed": 0}
        for status, count in self.slo.status_counts().items():
            buckets[status_bucket(status)] += count
        return {
            "offered": self.offered,
            **buckets,
            "unaccounted": self.offered - sum(buckets.values()),
        }


def format_accounting(accounting: dict) -> str:
    """The two greppable ledger lines that end a serve or fleet report."""
    return (
        f"accounting: offered {accounting['offered']} = "
        f"completed {accounting['completed']} + shed {accounting['shed']} + "
        f"failed {accounting['failed']}\n"
        f"unaccounted requests: {accounting['unaccounted']}"
    )
