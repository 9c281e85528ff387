"""Live ops dashboard: terminal rendering of the telemetry plane.

``runner top`` is the operator's view of a running (simulated) service:
per-module throughput, queue depths, shed/degrade rates, the
fleet and online-reconstruction panels, and SLO attainment, rendered as
plain text (stdlib only — no curses, no ANSI requirements) so the same
frame works interactively, in CI snapshot mode, and pasted into an
incident report.

Rates are derived by differencing the timestamped metrics snapshots a
:class:`~repro.telemetry.metrics.SnapshotPublisher` retains: counters
are monotone totals, so ``(last - first) / dt`` over the retained window
is the average rate; gauges and histogram summaries are read from the
latest snapshot.  The renderer is a pure function of its inputs —
feeding it recorded snapshots replays an incident exactly.
"""

from __future__ import annotations

#: Glyphs used for the trend sparkline (low -> high).
_SPARK = "▁▂▃▄▅▆▇█"

#: Counter names rendered in the request-outcome rate line, with labels.
_REQUEST_COUNTERS = (
    ("completed", "serve.requests.completed"),
    ("shed", "serve.requests.shed_overload"),
    ("degraded", "serve.requests.degraded"),
)


def _counter(snapshot: dict, name: str) -> float:
    return float(snapshot.get("counters", {}).get(name, 0.0))


def _gauge(snapshot: dict, name: str, default: float = 0.0) -> float:
    return float(snapshot.get("gauges", {}).get(name, default))


def _fmt_si(value: float) -> str:
    """Compact SI-ish magnitude formatting for throughput numbers."""
    for cut, suffix in ((1e9, "G"), (1e6, "M"), (1e3, "k")):
        if abs(value) >= cut:
            return f"{value / cut:.2f}{suffix}"
    return f"{value:.2f}"


def sparkline(values, width: int = 12) -> str:
    """ASCII sparkline of a numeric series (most recent ``width`` values)."""
    values = list(values)[-width:]
    if not values:
        return ""
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARK[3] * len(values)
    scale = (len(_SPARK) - 1) / (hi - lo)
    return "".join(_SPARK[int((v - lo) * scale)] for v in values)


def window(history) -> tuple:
    """(first, last, dt) of a snapshot history; dt=0 for a single frame."""
    if not history:
        raise ValueError("dashboard needs at least one published snapshot")
    first, last = history[0], history[-1]
    dt = float(last.get("t_s", 0.0)) - float(first.get("t_s", 0.0))
    return first, last, max(dt, 0.0)


def _rates_section(first, last, dt) -> list:
    lines = ["requests"]
    parts = []
    for label, name in _REQUEST_COUNTERS:
        total = _counter(last, name)
        if dt > 0:
            rate = (total - _counter(first, name)) / dt
            parts.append(f"{label} {rate:.1f}/s")
        else:
            parts.append(f"{label} {total:.0f}")
    rejected = sum(
        value for name, value in last.get("counters", {}).items()
        if name.startswith("serve.requests.rejected")
    )
    parts.append(f"rejected {rejected:.0f} total")
    lines.append("  " + "   ".join(parts))
    return lines


def _throughput_section(first, last, dt) -> list:
    lines = ["throughput (per-module, simulated)"]
    modules = []
    for name, total in sorted(last.get("counters", {}).items()):
        if name.startswith("sim.") and name.endswith(".cycles"):
            module = name[len("sim."):-len(".cycles")]
            if module == "total":
                continue
            delta = total - _counter(first, name)
            modules.append((module, total, delta))
    grand = sum(delta for _, _, delta in modules) or sum(
        total for _, total, _ in modules
    )
    if not modules:
        lines.append("  (no simulated cycles recorded yet)")
        return lines
    for module, total, delta in modules:
        rate = f"{_fmt_si(delta / dt):>10s} cyc/s" if dt > 0 else f"{'-':>14s}"
        basis = delta if dt > 0 else total
        share = basis / grand * 100.0 if grand else 0.0
        lines.append(
            f"  {module:16s} {_fmt_si(total):>10s} cycles  {rate}  "
            f"{share:5.1f}%"
        )
    batch = last.get("histograms", {}).get("serve.batch.rays")
    if batch:
        rays = batch.get("sum", 0.0) - (
            first.get("histograms", {}).get("serve.batch.rays", {}).get("sum", 0.0)
            if dt > 0 else 0.0
        )
        suffix = "/s" if dt > 0 else " total"
        value = rays / dt if dt > 0 else batch.get("sum", 0.0)
        lines.append(
            f"  rays dispatched: {_fmt_si(value)}{suffix}   "
            f"batches: {batch.get('count', 0)}  "
            f"(p50 {batch.get('p50', 0.0):.0f} rays)"
        )
    return lines


def _queues_section(last) -> list:
    util = _gauge(last, "serve.utilization")
    return [
        "queues",
        (
            f"  queued rays: {_gauge(last, 'serve.queue.rays'):.0f}   "
            f"queued slices: {_gauge(last, 'serve.queue.slices'):.0f}   "
            f"scenes deployed: {_gauge(last, 'serve.registry.scenes'):.0f}   "
            f"board util: {util:.0%}"
        ),
    ]


def _slo_section(slo: dict) -> list:
    lines = ["slo attainment"]
    header = (
        f"  {'class':<12} {'done':>6} {'p50 ms':>8} {'p99 ms':>8} "
        f"{'target':>8} {'attain':>7} {'slo':>5}"
    )
    lines.append(header)
    for stats in slo.get("classes", []):
        def _ms(key):
            value = stats.get(key)
            return f"{value * 1e3:8.2f}" if value is not None else f"{'-':>8}"

        attained = stats.get("attained")
        att_str = f"{attained:7.3f}" if attained is not None else f"{'-':>7}"
        lines.append(
            f"  {stats.get('name', '?'):<12} {stats.get('completed', 0):>6} "
            f"{_ms('p50_s')} {_ms('p99_s')} {_ms('target_s')} "
            f"{att_str} "
            f"{'met' if stats.get('slo_met') else 'MISS':>5}"
        )
    statuses = slo.get("statuses", {})
    if statuses:
        lines.append(
            "  terminal: "
            + "  ".join(f"{k}={v}" for k, v in sorted(statuses.items()))
        )
    return lines


def _fleet_section(fleet: dict) -> list:
    """Fleet panel from a :meth:`~repro.fleet.FleetController.stats` dict."""
    workers = fleet.get("workers", [])
    dead = [w for w in workers if w.get("health") == "dead"]
    lines = [
        "fleet",
        (
            f"  workers: {len(workers)} ({len(dead)} dead)   "
            f"rebalances: {fleet.get('rebalances', 0)}   "
            f"util: {fleet.get('utilization', 0.0):.0%}   "
            f"in-flight: {fleet.get('in_flight', 0)}   "
            f"unaccounted: {fleet.get('unaccounted', 0)}"
        ),
        (
            f"  rpc: timeouts {fleet.get('rpc_timeouts', 0)}   "
            f"retries {fleet.get('retries', 0)}   "
            f"hedges {fleet.get('hedges', 0)}   "
            f"dropped {fleet.get('dropped_replies', 0)}   "
            f"late {fleet.get('late_replies', 0)}"
        ),
    ]
    for worker in workers:
        lines.append(
            f"    worker {worker.get('index')}: "
            f"{worker.get('health', '?'):<8} "
            f"experts={worker.get('experts')} "
            f"rpcs={worker.get('completed_rpcs', 0)} "
            f"busy={worker.get('busy_s', 0.0):.3f}s"
        )
    return lines


def _online_section(online: dict) -> list:
    """Online-reconstruction panel from a
    :meth:`~repro.online.SessionResult.ops_panel` dict."""
    trend = online.get("psnr_trend") or []
    target = online.get("target_psnr_db")
    time_to_target = online.get("time_to_target_s")
    last = online.get("last_psnr_db")
    lines = [
        "online reconstruction",
        (
            f"  scene: {online.get('scene', '?')}   "
            f"frames ingested: {online.get('frames_ingested', 0)}   "
            f"generations deployed: {online.get('generations', 0)}   "
            f"rollbacks: {online.get('rollbacks', 0)}"
        ),
        (
            f"  train steps: {online.get('steps_total', 0)} "
            f"({online.get('steps_per_s', 0.0):.0f} steps/s simulated)"
        ),
    ]
    psnr = (
        f"  psnr: {last:.2f} dB" if last is not None else "  psnr: (no eval yet)"
    )
    if target is not None:
        psnr += f" (target {target:.1f} dB"
        psnr += (
            f", reached at t={time_to_target:.2f}s)"
            if time_to_target is not None
            else ", not reached)"
        )
    if trend:
        psnr += f"   trend {sparkline(trend)}"
    lines.append(psnr)
    return lines


def render_dashboard(
    history,
    slo: dict = None,
    fleet: dict = None,
    online: dict = None,
) -> str:
    """Render one dashboard frame from published telemetry.

    ``history`` is a :meth:`~repro.telemetry.metrics.SnapshotPublisher.history`
    list (>= 1 snapshot; rates need >= 2), ``slo`` an
    :meth:`~repro.serve.slo.SLOTracker.to_payload` dict, ``fleet`` a
    :meth:`~repro.fleet.FleetController.stats` dict (adds the
    per-worker fleet panel), ``online`` a
    :meth:`~repro.online.SessionResult.ops_panel` dict (adds the
    ingest/training/deploy panel of a live reconstruction session).
    """
    first, last, dt = window(history)
    head = (
        f"fusion3d ops dashboard   t={last.get('t_s', 0.0):.2f}s   "
        f"window={dt:.2f}s over {len(history)} snapshot(s)"
    )
    lines = [head, "=" * max(len(head), 64)]
    lines.extend(_throughput_section(first, last, dt))
    lines.extend(_queues_section(last))
    lines.extend(_rates_section(first, last, dt))
    if fleet is not None:
        lines.extend(_fleet_section(fleet))
    if online is not None:
        lines.extend(_online_section(online))
    if slo is not None:
        lines.extend(_slo_section(slo))
    return "\n".join(lines)


def run_demo_ops(
    rate_hz: float = 300.0,
    duration_s: float = 2.0,
    n_scenes: int = 2,
    probe: int = 16,
    hw_scale: float = 400.0,
    interval_s: float = 0.05,
    seed: int = 0,
):
    """Drive a short demo serving burst with the snapshot publisher on.

    Returns ``(history, slo_payload, stats)`` — everything
    :func:`render_dashboard` needs for a live frame.  This is the data
    source behind ``runner top``: a real
    :class:`~repro.serve.service.RenderService` run under a recording
    telemetry session with a publisher sampling on the service clock.
    """
    import numpy as np

    from .. import telemetry
    from ..serve import (
        RenderService,
        build_demo_registry,
        demo_camera,
        run_open_loop,
    )

    with telemetry.session() as tel:
        publisher = tel.attach_publisher(interval_s=interval_s)
        # Deploy inside the session so registry gauges (scenes, bytes)
        # are recorded into the published snapshots.
        registry = build_demo_registry(n_scenes=n_scenes)
        service = RenderService(registry)
        run_open_loop(
            service,
            [s["name"] for s in registry.scenes()],
            rate_hz=rate_hz,
            duration_s=duration_s,
            camera=demo_camera(probe, probe),
            rng=np.random.default_rng(seed),
            hw_scale=hw_scale,
        )
        publisher.publish(service.now_s)  # final frame: totals at drain
        history = publisher.history()
    return history, service.slo.to_payload(), service.stats()
