"""Observability for the Fusion-3D reproduction: tracing and metrics.

Two pillars, all stdlib-only (no numpy — importable from every layer):

* :mod:`~repro.telemetry.tracing` — nestable wall-clock :class:`Span`\\ s
  exported as Chrome ``about:tracing`` / Perfetto JSON;
* :mod:`~repro.telemetry.metrics` — a process-wide registry of counters,
  gauges, and log-scale histograms (p50/p95/p99).

The two are bundled into a :class:`TelemetrySession`; exactly one
session is *active* per process.  The default session is **disabled**:
its tracer and metrics are shared null singletons, so the instrumentation
compiled into the hot paths costs a couple of attribute lookups and
leaves every numerical result bit-identical.

Typical use::

    from repro import telemetry

    with telemetry.session() as tel:
        trainer.train(200)
        tel.tracer.write_chrome_trace("trace.json")
        print(tel.metrics.snapshot()["counters"]["trainer.iterations"])

or imperatively: ``tel = telemetry.enable(); ...; telemetry.disable()``.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetricsRegistry,
    NULL_METRICS,
    SnapshotPublisher,
)
from .tracing import NullTracer, NULL_TRACER, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetricsRegistry",
    "NullTracer",
    "NULL_METRICS",
    "NULL_TRACER",
    "SnapshotPublisher",
    "Span",
    "TelemetrySession",
    "Tracer",
    "disable",
    "enable",
    "enabled",
    "get_metrics",
    "get_session",
    "get_tracer",
    "session",
]


class TelemetrySession:
    """One tracer + one metrics registry.

    ``enabled`` tells instrumentation sites whether it is worth computing
    derived quantities (rates, per-ray distributions) before recording
    them; with the disabled default session those branches are skipped
    entirely.
    """

    def __init__(self, tracer=None, metrics=None, enabled=True):
        self.tracer = tracer if tracer is not None else (
            Tracer() if enabled else NULL_TRACER
        )
        self.metrics = metrics if metrics is not None else (
            MetricsRegistry() if enabled else NULL_METRICS
        )
        self.enabled = enabled
        #: Optional :class:`~repro.telemetry.metrics.SnapshotPublisher`;
        #: instrumented loops feed it only inside their ``enabled``
        #: branches, so the disabled session never pays for it.
        self.publisher = None

    def attach_publisher(
        self, interval_s: float = 1.0, capacity: int = 256
    ) -> SnapshotPublisher:
        """Attach a periodic metrics-snapshot publisher to this session.

        Returns the publisher; instrumentation sites (serve dispatch
        loop, trainer step) call its ``maybe_publish`` whenever the
        session is enabled.  Attaching on a disabled session raises —
        there would be nothing to sample.
        """
        if not self.enabled:
            raise ValueError("cannot attach a publisher to a disabled session")
        self.publisher = SnapshotPublisher(
            self.metrics, interval_s=interval_s, capacity=capacity
        )
        return self.publisher

    def summary(self) -> dict:
        """JSON-serializable digest: metrics snapshot + span aggregates.

        This is what :class:`~repro.experiments.base.ExperimentResult`
        stores in its ``telemetry`` section.
        """
        return {
            "metrics": self.metrics.snapshot(),
            "spans": self.tracer.aggregate(),
        }

    def clear(self) -> None:
        """Drop every recorded span and metric."""
        self.tracer.clear()
        self.metrics.clear()


#: The always-available disabled session: tracer and metrics are the
#: shared null singletons.
_DISABLED = TelemetrySession(
    tracer=NULL_TRACER, metrics=NULL_METRICS, enabled=False
)

_active = _DISABLED
_swap_lock = threading.Lock()


def get_session() -> TelemetrySession:
    """The active session; instrumentation sites call this once per op."""
    return _active


def _install(session_obj: TelemetrySession) -> TelemetrySession:
    """Install ``session_obj`` as active; returns the previous session."""
    global _active
    with _swap_lock:
        previous = _active
        _active = session_obj
    return previous


def enable(tracer=None, metrics=None) -> TelemetrySession:
    """Activate a fresh (or caller-supplied) recording session."""
    session_obj = TelemetrySession(tracer=tracer, metrics=metrics, enabled=True)
    _install(session_obj)
    return session_obj


def disable() -> None:
    """Restore the zero-overhead disabled default."""
    _install(_DISABLED)


def enabled() -> bool:
    """Whether the active session records."""
    return _active.enabled


@contextmanager
def session(tracer=None, metrics=None):
    """Scoped recording session: activates on entry, restores on exit."""
    session_obj = TelemetrySession(tracer=tracer, metrics=metrics, enabled=True)
    previous = _install(session_obj)
    try:
        yield session_obj
    finally:
        _install(previous)


def get_tracer():
    """The active session's tracer."""
    return _active.tracer


def get_metrics():
    """The active session's metrics registry."""
    return _active.metrics
