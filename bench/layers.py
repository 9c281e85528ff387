"""Per-layer spans for the traced run, recorded from outside the program.

A traced run replaces the public methods listed in :func:`layer_calls`
with wrappers, at class level, for the lifetime of one worker process,
and restores every original in a ``finally``.  Each wrapper records a
span, named after its layer, on a standalone
:class:`repro.telemetry.tracing.Tracer` (the program's own
``TelemetrySession`` stays off) while a benchmark phase is open; outside
a phase the wrapper only forwards the call.  Some wrappers also store
counts on their span (kept samples, encoded points, dispatched rays), so
every ratio is measured where the work happens.

A layer's busy time is the summed duration of its outermost spans; its
self time subtracts the part of each span that child spans cover.  The
phase's root span keeps the time no wrapped layer claims, so the self
times of a phase always add up to its wall time.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

from repro.telemetry.tracing import Tracer

#: Root span of the measured part of a workload.
TIMED = "timed"
#: Root span of one set-up repetition.
SETUP = "setup"


def _sample_counts(args, batch) -> dict:
    return {"rays": batch.n_rays, "kept": len(batch), "candidates": batch.candidates}


def _encoded_points(args, result) -> dict:
    return {"points": len(args[1])}


def _frame_rays(args, result) -> dict:
    return {"rays": args[1].n_pixels}


def _dispatched_rays(args, result) -> dict:
    action, payload = result
    if action != "dispatch":
        return {}
    return {"batches": 1, "rays": payload.n_rays}


_LAYER_CALLS = (
    ("repro.nerf.sampling", "RayMarcher", "sample", "sampling", _sample_counts),
    ("repro.nerf.hash_encoding", "HashEncoding", "forward", "encoding.fwd", _encoded_points),
    ("repro.nerf.hash_encoding", "HashEncoding", "backward", "encoding.bwd", None),
    ("repro.nerf.mlp", "MLP", "forward", "mlp.fwd", None),
    ("repro.nerf.mlp", "MLP", "backward", "mlp.bwd", None),
    ("repro.nerf.model", "InstantNGPModel", "forward", "field", None),
    ("repro.nerf.model", "InstantNGPModel", "backward", "field", None),
    ("repro.nerf.model", "InstantNGPModel", "density", "field", None),
    ("repro.pipeline.renderer", "Renderer", "render_rays", "composite", None),
    ("repro.pipeline.renderer", "Renderer", "render_image", "render.frame", _frame_rays),
    ("repro.nerf.trainer", "Trainer", "train_step", "trainer", None),
    ("repro.nerf.trainer", "Trainer", "_refresh_occupancy", "occupancy.refresh", None),
    ("repro.nerf.trainer", "Trainer", "eval_psnr", "trainer.eval", None),
    ("repro.nerf.optimizer", "Adam", "step", "optimizer", None),
    ("repro.serve.admission", "AdmissionController", "decide", "admission", None),
    ("repro.serve.scheduler", "DynamicRayBatchScheduler", "next_action", "scheduler", _dispatched_rays),
    ("repro.sim.multichip", "MultiChipSystem", "simulate_batch", "sim", None),
    ("repro.sim.multichip", "MultiChipSystem", "communication", "sim", None),
    ("repro.serve.registry", "SceneRegistry", "deploy", "registry.deploy", None),
)


def layer_calls() -> list:
    """``(class, method, layer, observe)`` for every wrapped program call.

    ``observe(args, result)`` returns counts to store on the call's span.
    ``Trainer._refresh_occupancy`` is the one private method: the refresh
    (a density query over the grid plus the EMA update) has no public
    entry point of its own.
    """
    return [
        (getattr(importlib.import_module(module), name), method, layer, observe)
        for module, name, method, layer, observe in _LAYER_CALLS
    ]


class NullRecorder:
    """The untraced run's recorder: phases cost nothing and record nothing."""

    def phase(self, name: str):
        """A no-op context."""
        return nullcontext()

    def span(self, name: str):
        """A no-op context."""
        return nullcontext()


class LayerRecorder:
    """Collects layer spans on a standalone tracer while a phase is open."""

    def __init__(self, tracer: Tracer = None):
        self.tracer = tracer or Tracer()
        self.active = False

    @contextmanager
    def phase(self, name: str):
        """Record every wrapped call made inside, under a root span ``name``."""
        self.active = True
        try:
            with self.tracer.span(name):
                yield
        finally:
            self.active = False

    def span(self, name: str):
        """A span of the benchmark's own work, recorded inside a phase."""
        return self.tracer.span(name) if self.active else nullcontext()

    def wrap(self, original, layer: str, observe=None):
        """A wrapper of ``original`` that records a ``layer`` span."""

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            with self.tracer.span(layer) as span:
                result = original(*args, **kwargs)
                if observe is not None:
                    span.args.update(observe(args, result))
            return result

        return wrapper


@contextmanager
def installed(recorder: LayerRecorder, calls=None):
    """Patch every ``(class, method, layer, observe)`` call in ``calls``.

    ``calls`` defaults to :func:`layer_calls`.  Every patched attribute
    is put back, by identity, when the block exits or raises.
    """
    if calls is None:
        calls = layer_calls()
    saved = []
    try:
        for cls, method, layer, observe in calls:
            original = cls.__dict__[method]
            saved.append((cls, method, original))
            setattr(cls, method, recorder.wrap(original, layer, observe))
        yield recorder
    finally:
        for cls, method, original in reversed(saved):
            setattr(cls, method, original)


@dataclass
class LayerStats:
    """What one layer did inside a set of root spans."""

    busy_s: float = 0.0
    self_s: float = 0.0
    calls: int = 0
    counts: dict = field(default_factory=dict)


def _covered(parent, children) -> float:
    """Length of the part of ``parent``'s interval its children cover."""
    start, end = parent.start_s, parent.start_s + parent.duration_s
    intervals = sorted(
        (max(c.start_s, start), min(c.start_s + c.duration_s, end)) for c in children
    )
    covered = 0.0
    reach = start
    for lo, hi in intervals:
        lo = max(lo, reach)
        if hi > lo:
            covered += hi - lo
            reach = hi
    return covered


def layer_stats(spans, root_name: str) -> dict:
    """Per-layer busy/self time, calls and counts under every ``root_name`` root.

    Spans outside those roots are ignored.  The root's own entry holds
    the time no wrapped layer claims.  A span nested inside a span of the
    same layer adds to that layer's self time but not again to its busy
    time or call count.
    """
    children = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)
    stats = {}
    stack = [s for s in spans if s.parent is None and s.name == root_name]
    while stack:
        span = stack.pop()
        kids = children.get(id(span), [])
        stack.extend(kids)
        entry = stats.setdefault(span.name, LayerStats())
        entry.self_s += span.duration_s - _covered(span, kids)
        ancestor = span.parent
        while ancestor is not None and ancestor.name != span.name:
            ancestor = ancestor.parent
        if ancestor is None:
            entry.busy_s += span.duration_s
            entry.calls += 1
        for key, value in span.args.items():
            entry.counts[key] = entry.counts.get(key, 0) + value
    return stats


#: Per-layer numbers a workload reads from the program itself (virtual
#: time, outcome counts, quality); workloads without them report 0.
COUNTERS = (
    "admission.admitted",
    "admission.degraded",
    "admission.shed",
    "admission.rejected_deadline",
    "sim.board_busy_s",
    "sim.utilization",
    "occupancy.live_frac",
    "quality.psnr_db",
    "trainer.time_to_psnr_s",
    "fleet.rpc_timeouts",
    "fleet.hedges",
    "fleet.retries",
    "fleet.detect_delay_ms",
    "fleet.attainment_pre_kill",
    "fleet.attainment_post_kill",
    "fleet.attainment_post_swap",
    "machine.calibration_ms",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(spans, counters: dict) -> dict:
    """The per-layer metrics of one traced run.

    Span metrics cover the ``timed`` phase, except the registry's, which
    also count the deploys of set-up.  ``counters`` holds the workload's
    :data:`COUNTERS` plus ``fleet.completed``, the base of
    ``fleet.useful_render_ratio``.
    """
    timed = layer_stats(spans, TIMED)
    setup = layer_stats(spans, SETUP)

    def layer(name: str, stats=timed) -> LayerStats:
        return stats.get(name, LayerStats())

    sampling = layer("sampling")
    encoding = layer("encoding.fwd")
    scheduler = layer("scheduler")
    deploys = (layer("registry.deploy"), layer("registry.deploy", setup))
    metrics = {
        "sampling.busy_ms": sampling.busy_s * 1e3,
        "sampling.calls": sampling.calls,
        "sampling.kept_per_ray": _ratio(sampling.counts.get("kept", 0), sampling.counts.get("rays", 0)),
        "sampling.keep_ratio": _ratio(sampling.counts.get("kept", 0), sampling.counts.get("candidates", 0)),
        "encoding.fwd_busy_ms": encoding.busy_s * 1e3,
        "encoding.bwd_busy_ms": layer("encoding.bwd").busy_s * 1e3,
        "encoding.points": encoding.counts.get("points", 0),
        "encoding.fwd_ns_per_point": _ratio(encoding.busy_s * 1e9, encoding.counts.get("points", 0)),
        "mlp.fwd_busy_ms": layer("mlp.fwd").busy_s * 1e3,
        "mlp.bwd_busy_ms": layer("mlp.bwd").busy_s * 1e3,
        "field.self_ms": layer("field").self_s * 1e3,
        "composite.self_ms": layer("composite").self_s * 1e3,
        "trainer.self_ms": layer("trainer").self_s * 1e3,
        "optimizer.busy_ms": layer("optimizer").busy_s * 1e3,
        "occupancy.refresh_ms": layer("occupancy.refresh").busy_s * 1e3,
        "trainer.eval_ms": layer("trainer.eval").busy_s * 1e3,
        "render.frame_busy_ms": layer("render.frame").busy_s * 1e3,
        "render.rays": layer("render.frame").counts.get("rays", 0),
        "admission.busy_ms": layer("admission").busy_s * 1e3,
        "scheduler.busy_ms": scheduler.busy_s * 1e3,
        "scheduler.batches": scheduler.counts.get("batches", 0),
        "scheduler.rays_per_batch": _ratio(scheduler.counts.get("rays", 0), scheduler.counts.get("batches", 0)),
        "sim.busy_ms": layer("sim").busy_s * 1e3,
        "sim.calls": layer("sim").calls,
        "registry.deploy_ms": sum(d.busy_s for d in deploys) * 1e3,
        "registry.deploys": sum(d.calls for d in deploys),
        "fleet.useful_render_ratio": _ratio(counters.get("fleet.completed", 0), sampling.calls),
        "unattributed.self_ms": layer(TIMED).self_s * 1e3,
    }
    metrics.update({name: counters.get(name, 0.0) for name in COUNTERS})
    return metrics


def table(spans) -> list:
    """Rows of the per-layer table of the ``timed`` phase, busiest first.

    The ``timed`` row's busy time is the phase's wall time and its self
    time is the part no wrapped layer claims; every row's self time adds
    up to that wall time.
    """
    stats = layer_stats(spans, TIMED)
    wall = stats[TIMED].busy_s
    rows = [
        {
            "layer": name,
            "busy_ms": entry.busy_s * 1e3,
            "self_ms": entry.self_s * 1e3,
            "calls": entry.calls,
            "share": _ratio(entry.busy_s, wall),
        }
        for name, entry in stats.items()
    ]
    return sorted(rows, key=lambda row: -row["busy_ms"])
