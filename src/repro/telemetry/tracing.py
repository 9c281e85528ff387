"""Structured tracing: nestable wall-clock spans with Chrome-trace export.

A :class:`Tracer` hands out :class:`Span` context managers; entering a
span pushes it on a per-thread stack (so nesting is tracked without any
caller bookkeeping), exiting records its wall-clock duration.  Finished
spans serialize to the Chrome ``about:tracing`` / Perfetto JSON event
format (complete ``"X"`` events), so a training run can be dropped
straight into ``chrome://tracing`` or https://ui.perfetto.dev.

The :class:`NullTracer` is the process default: its :meth:`~NullTracer.span`
returns one shared no-op context manager, so instrumented hot paths cost
two attribute lookups and nothing else when telemetry is off.

This module is dependency-free (stdlib only) by design: the tracer must
be importable from every layer of the package without cycles.
"""

from __future__ import annotations

import json
import os
import threading
import time


class Span:
    """One timed region of code; use as a context manager.

    Spans are handed out by :meth:`Tracer.span` and report back to their
    tracer on exit.  ``parent`` is filled in on ``__enter__`` from the
    calling thread's span stack, giving the nesting structure for free.
    """

    __slots__ = (
        "tracer",
        "name",
        "args",
        "tid",
        "parent",
        "depth",
        "start_s",
        "duration_s",
    )

    def __init__(self, tracer: "Tracer", name: str, args: dict):
        self.tracer = tracer
        self.name = name
        self.args = args
        self.tid = 0
        self.parent = None
        self.depth = 0
        self.start_s = 0.0
        self.duration_s = 0.0

    def __enter__(self) -> "Span":
        self.tid = threading.get_ident()
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else None
        self.depth = len(stack)
        stack.append(self)
        self.start_s = self.tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self.duration_s = self.tracer._clock() - self.start_s
        stack = self.tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        self.tracer._record(self)
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.duration_s * 1e3:.3f} ms)"


class Tracer:
    """Collects finished spans; thread-safe; exports Chrome trace JSON."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        self._finished = []
        self._lock = threading.Lock()
        self._local = threading.local()

    #: A real tracer records; the NullTracer overrides this to False.
    enabled = True

    def span(self, name: str, **args) -> Span:
        """Open a named span: ``with tracer.span("forward"): ...``."""
        return Span(self, name, args)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span: Span) -> None:
        with self._lock:
            self._finished.append(span)

    @property
    def finished(self) -> list:
        """Snapshot of completed spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        """Drop every finished span."""
        with self._lock:
            self._finished.clear()

    def aggregate(self) -> dict:
        """Wall-clock totals per span name.

        Returns ``{name: {"count": n, "total_s": t, "mean_s": t/n}}``,
        the input for the per-module wall-clock breakdown report.
        """
        totals = {}
        for span in self.finished:
            entry = totals.setdefault(span.name, {"count": 0, "total_s": 0.0})
            entry["count"] += 1
            entry["total_s"] += span.duration_s
        for entry in totals.values():
            entry["mean_s"] = entry["total_s"] / entry["count"]
        return totals

    def to_chrome_trace(self) -> dict:
        """Render finished spans as a Chrome ``about:tracing`` document.

        Each span becomes one complete (``"ph": "X"``) event with
        microsecond ``ts``/``dur``, so nesting is reconstructed by the
        viewer from time containment per thread track.
        """
        pid = os.getpid()
        events = []
        for span in self.finished:
            event = {
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": (span.start_s - self._epoch) * 1e6,
                "dur": span.duration_s * 1e6,
                "pid": pid,
                "tid": span.tid,
            }
            if span.args:
                event["args"] = dict(span.args)
            events.append(event)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Dump the Chrome-trace JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)


class _NullSpan:
    """Shared do-nothing context manager; one instance per process."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Zero-overhead tracer: every span is the same no-op singleton."""

    enabled = False

    def span(self, name: str, **args) -> _NullSpan:
        """The shared no-op span."""
        return _NULL_SPAN

    @property
    def finished(self) -> list:
        """No spans: nothing is recorded."""
        return []

    def clear(self) -> None:
        """Nothing to clear."""
        pass

    def aggregate(self) -> dict:
        """No totals: nothing is recorded."""
        return {}

    def to_chrome_trace(self) -> dict:
        """An empty Chrome trace."""
        return {"traceEvents": [], "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        """Write an empty Chrome trace to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome_trace(), fh)


#: Process-wide no-op tracer used whenever telemetry is disabled.
NULL_TRACER = NullTracer()
