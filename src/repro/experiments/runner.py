"""Experiment registry and command-line entry point.

``fusion3d-experiments list`` shows every reproducible table/figure;
``fusion3d-experiments run table3`` regenerates one; ``run all`` walks
the whole evaluation section serially.  ``run-all --jobs N`` fans the
sweep out over a process pool with result caching (see
:mod:`repro.parallel`); ``cache info`` / ``cache clear`` manage the
on-disk cache.  ``--full`` switches off quick mode (more scenes, more
training iterations).

Observability: ``run --trace-out trace.json`` records a Chrome-trace
(open in ``chrome://tracing`` or https://ui.perfetto.dev), ``run
--metrics`` appends the metrics snapshot, and ``report NAME`` runs one
experiment under telemetry and pretty-prints the per-module cycle +
wall-clock breakdown.  All CLI output goes through the ``repro``
logger: information on stdout (``--quiet`` suppresses it), warnings
and errors on stderr.  ``run-all --json`` writes its JSON document on
stdout by itself, ``--quiet`` or not.  The package itself ships a
``NullHandler`` so library users see nothing by default.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys

from .. import telemetry
from . import (
    capacity_study,
    chiplet_scaling,
    cross_renderer,
    dataset_stats,
    ert_study,
    fault_sweep,
    fleet_churn,
    fig3,
    fig6,
    fig9_10,
    fig11,
    fig12,
    fig13a,
    fig13b,
    fig14,
    moe_scaling,
    precision_pareto,
    scaling_cost,
    scheduler_study,
    serving_study,
    speedup_breakdown,
    table1,
    table2,
    table3,
    table4,
    table5,
    table6,
    tensorf_adaptation,
    time_to_quality,
    vf_scaling,
    warping_study,
)
from .base import ExperimentResult, _fmt

logger = logging.getLogger("repro.experiments")

#: name -> (module, paper reference) registry of every experiment.
REGISTRY = {
    "table1": (table1, "Table I: off-chip bandwidth comparison"),
    "table2": (table2, "Table II: INT8 quantized-training quality"),
    "table3": (table3, "Table III: single chip vs SOTA"),
    "table4": (table4, "Table IV: multi-chip vs cloud platforms"),
    "table5": (table5, "Table V: per-scene NeRF-360 vs 2080 Ti"),
    "table6": (table6, "Table VI: sampling ablation (T1)"),
    "fig3": (fig3, "Fig. 3: stage data volumes"),
    "fig6": (fig6, "Fig. 6(d): FIEM multiplier"),
    "fig9_10": (fig9_10, "Figs. 9-10: chip characterization"),
    "fig11": (fig11, "Fig. 11: per-scene speedup/energy"),
    "fig12": (fig12, "Fig. 12: tiling ablations (T3/T4)"),
    "fig13a": (fig13a, "Fig. 13(a): MoE convergence"),
    "fig13b": (fig13b, "Fig. 13(b): bandwidth vs model size"),
    "fig14": (fig14, "Fig. 14: chiplet I/O area"),
    "speedup_breakdown": (speedup_breakdown, "Sec. VI-C: per-stage speedup"),
    "tensorf_adaptation": (tensorf_adaptation, "Sec. VI-C: TensoRF adaptation"),
    "scaling_cost": (scaling_cost, "Sec. II-D: yield/cost of scaling"),
    "vf_scaling": (vf_scaling, "Fig. 10(d) ext: DVFS operating points"),
    "scheduler_study": (scheduler_study, "Fig. 5(c): dispatch policies"),
    "chiplet_scaling": (chiplet_scaling, "Sec. VIII: chiplet temporal reuse"),
    "moe_scaling": (moe_scaling, "Fig. 13(a) obs. 2: PSNR vs expert count"),
    "ert_study": (ert_study, "extension: early ray termination"),
    "precision_pareto": (
        precision_pareto,
        "Table II ext: mixed-precision quality/speed/size pareto",
    ),
    "fault_sweep": (fault_sweep, "robustness: faults & graceful degradation"),
    "fleet_churn": (fleet_churn, "fleet: SLO attainment through worker churn"),
    "serving_study": (serving_study, "serving: latency-throughput & SLO attainment"),
    "cross_renderer": (cross_renderer, "pipeline: ngp vs tensorf quality/speed/SLO"),
    "capacity_study": (capacity_study, "ops: cost models -> capacity plans, validated"),
    "time_to_quality": (time_to_quality, "online: time-to-quality under live serving"),
    "warping_study": (warping_study, "Table III fn. 1: warping vs motion"),
    "dataset_stats": (dataset_stats, "DESIGN.md: substitution statistics"),
}


def run_experiment(name: str, quick: bool = True) -> ExperimentResult:
    """Run one registered experiment by name."""
    if name not in REGISTRY:
        raise KeyError(f"unknown experiment {name!r}; see REGISTRY")
    module, _ = REGISTRY[name]
    return module.run(quick=quick)


def format_breakdown(summary: dict) -> str:
    """Render a telemetry digest as the per-module breakdown table.

    ``summary`` is :meth:`repro.telemetry.TelemetrySession.summary`
    output: simulated cycles come from the ``sim.<module>.cycles``
    counters, wall-clock seconds from the matching span aggregates.
    """
    counters = summary.get("metrics", {}).get("counters", {})
    gauges = summary.get("metrics", {}).get("gauges", {})
    spans = summary.get("spans", {})
    modules = []
    for name, cycles in sorted(counters.items()):
        if name.startswith("sim.") and name.endswith(".cycles"):
            module = name[len("sim."):-len(".cycles")]
            if module == "total":
                continue
            modules.append((module, cycles))
    lines = ["per-module breakdown", ""]
    header = f"{'module':16s}  {'sim cycles':>12s}  {'wall s':>10s}  {'spans':>6s}"
    lines.append(header)
    lines.append("-" * len(header))
    for module, cycles in modules:
        span = spans.get(module, {})
        lines.append(
            f"{module:16s}  {_fmt(float(cycles)):>12s}  "
            f"{_fmt(span.get('total_s', 0.0)):>10s}  "
            f"{span.get('count', 0):>6d}"
        )
    total = counters.get("sim.total_cycles")
    if total is not None:
        lines.append("")
        lines.append(f"pipelined total cycles: {_fmt(float(total))}")
    overlap = gauges.get("sim.stage_overlap_efficiency")
    if overlap is not None:
        lines.append(f"stage-overlap efficiency: {_fmt(float(overlap))}")
    top_level = [
        (name, entry)
        for name, entry in sorted(spans.items())
        if "." in name  # qualified spans: trainer.*, chip.*, multichip.*
    ]
    if top_level:
        lines.append("")
        lines.append(f"{'span':28s}  {'count':>6s}  {'total s':>10s}  {'mean s':>10s}")
        for name, entry in top_level:
            lines.append(
                f"{name:28s}  {entry['count']:>6d}  "
                f"{_fmt(entry['total_s']):>10s}  {_fmt(entry['mean_s']):>10s}"
            )
    return "\n".join(lines)


def format_metrics(snapshot: dict) -> str:
    """Flat text rendering of a metrics-registry snapshot."""
    lines = ["metrics"]
    for name, value in snapshot.get("counters", {}).items():
        lines.append(f"  counter   {name} = {_fmt(float(value))}")
    for name, value in snapshot.get("gauges", {}).items():
        lines.append(f"  gauge     {name} = {_fmt(float(value))}")
    for name, summ in snapshot.get("histograms", {}).items():
        lines.append(
            f"  histogram {name}: n={summ.get('count', 0)} "
            f"mean={_fmt(summ.get('mean', 0.0))} p50={_fmt(summ.get('p50', 0.0))} "
            f"p95={_fmt(summ.get('p95', 0.0))} p99={_fmt(summ.get('p99', 0.0))}"
        )
    return "\n".join(lines)


_cli_handlers = ()


def _configure_cli_logging(quiet: bool) -> None:
    """Attach (or refresh) the CLI's handlers on the package logger:
    records below WARNING go to stdout, warnings and errors to stderr.

    The previous handlers are detached first, so repeated ``main()``
    calls (tests, embedding) never stack duplicates, and the handlers
    always bind the *current* ``sys.stdout``/``sys.stderr`` (pytest and
    notebooks swap them).  ``--quiet`` raises the threshold to WARNING
    instead of detaching, so errors still surface.
    """
    global _cli_handlers
    root = logging.getLogger("repro")
    for handler in _cli_handlers:
        root.removeHandler(handler)
    info = logging.StreamHandler(stream=sys.stdout)
    info.addFilter(lambda record: record.levelno < logging.WARNING)
    problems = logging.StreamHandler(stream=sys.stderr)
    problems.setLevel(logging.WARNING)
    _cli_handlers = (info, problems)
    for handler in _cli_handlers:
        handler.setFormatter(logging.Formatter("%(message)s"))
        root.addHandler(handler)
    root.setLevel(logging.WARNING if quiet else logging.INFO)


def _cmd_list() -> int:
    for name, (_, description) in REGISTRY.items():
        logger.info("%-20s %s", name, description)
    return 0


def _cmd_run(args) -> int:
    from ..robustness import faults as fault_plans
    from ..robustness.degradation import format_degradation

    names = list(REGISTRY) if args.name == "all" else [args.name]
    plan = None
    if getattr(args, "faults", None):
        plan = fault_plans.FaultPlan.from_file(args.faults)
        logger.info("fault plan loaded from %s (seed=%d)", args.faults, plan.seed)
    # A fault run always records telemetry: the degradation report is
    # rendered from the robustness.* metrics the injection sites emit.
    want_telemetry = bool(args.trace_out or args.metrics or plan is not None)
    tel = telemetry.enable() if want_telemetry else None
    if plan is not None:
        fault_plans.activate(plan)
    try:
        for name in names:
            result = run_experiment(name, quick=not args.full)
            if tel is not None:
                result.telemetry = tel.summary()
            logger.info("%s\n", result.to_json() if args.json else result.to_text())
        if plan is not None:
            logger.info("%s", format_degradation(tel.metrics.snapshot()))
            log = fault_plans.get_log()
            if log is not None and len(log):
                logger.info("faults fired:")
                for entry in log.entries:
                    logger.info("  [%s] %s", entry["site"], entry["description"])
        if tel is not None and args.trace_out:
            tel.tracer.write_chrome_trace(args.trace_out)
            logger.info("wrote Chrome trace to %s", args.trace_out)
        if tel is not None and args.metrics:
            logger.info("%s", format_metrics(tel.metrics.snapshot()))
    finally:
        if plan is not None:
            fault_plans.deactivate()
        if tel is not None:
            telemetry.disable()
    return 0


def _cmd_run_all(args) -> int:
    """The parallel sweep: cache lookup, process-pool fan-out, report."""
    from .. import parallel

    cache = None if args.no_cache else parallel.ResultCache(args.cache_dir)
    collect = bool(args.metrics or args.trace_out)
    report = parallel.run_experiments(
        names=args.names or None,
        jobs=args.jobs,
        quick=not args.full,
        timeout_s=args.timeout or None,
        retries=0 if args.no_retry else 1,
        cache=cache,
        collect_telemetry=collect,
    )
    if args.json:
        # The document alone on stdout, whatever the log level; with
        # ``--metrics`` the merged snapshot rides in it.
        payload = {
            "report": report.summary(),
            "results": {
                o.name: o.result.to_payload()
                for o in report.outcomes
                if o.result is not None
            },
        }
        if args.metrics:
            payload["metrics"] = report.merged_metrics()
        sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    else:
        for outcome in report.outcomes:
            if outcome.result is not None:
                logger.info("%s\n", outcome.result.to_text())
        logger.info("%s", report.to_text())
        if args.metrics:
            logger.info("%s", format_metrics(report.merged_metrics()))
    if args.trace_out:
        with open(args.trace_out, "w") as fh:
            json.dump(
                {
                    "traceEvents": report.merged_trace_events(),
                    "displayTimeUnit": "ms",
                },
                fh,
            )
        if not args.json:
            logger.info("wrote merged Chrome trace to %s", args.trace_out)
    return 1 if report.failures else 0


def _cmd_cache(args) -> int:
    """Inspect (``info``) or wipe (``clear``) the on-disk result cache."""
    from .. import parallel

    cache = parallel.ResultCache(args.cache_dir)
    if args.action == "clear":
        removed = cache.clear()
        logger.info("removed %d cache entries under %s", removed, cache.root)
        return 0
    stats = cache.stats()
    logger.info("cache root: %s", stats["root"])
    entry = stats["results"]
    logger.info(
        "  %-8s %5d entries  %s", "results", entry["entries"],
        _fmt(entry["bytes"] / 1e6) + " MB",
    )
    return 0


def _cmd_serve(args) -> int:
    """Drive the rendering service under a load generator.

    ``--smoke`` is the CI preset: a short open-loop Poisson burst over a
    2-second simulated horizon against the demo registry, printing the
    SLO attainment report and the request ledger (whose ``completed
    requests: N`` and ``unaccounted requests: 0`` lines the CI job
    greps); the exit code is non-zero if nothing completed or any
    request went unaccounted.  Without ``--smoke``,
    ``--rate``/``--duration``/``--scenes`` pick the operating point, and
    ``--closed-loop N`` runs a single interactive client for N frames
    instead.
    """
    import numpy as np

    from ..serve import (
        RenderService,
        ServiceConfig,
        build_demo_registry,
        demo_camera,
        run_closed_loop,
        run_open_loop,
    )

    if args.smoke:
        rate, duration, n_scenes, probe = 300.0, 2.0, 2, 16
    else:
        rate, duration = args.rate, args.duration
        n_scenes, probe = args.scenes, args.probe
    registry = build_demo_registry(n_scenes=n_scenes)
    scene_names = [s["name"] for s in registry.scenes()]
    camera = demo_camera(probe, probe)
    service = RenderService(registry)
    if args.closed_loop:
        report = run_closed_loop(
            service, scene_names[0], n_frames=args.closed_loop, camera=camera
        )
    else:
        report = run_open_loop(
            service,
            scene_names,
            rate_hz=rate,
            duration_s=duration,
            camera=camera,
            rng=np.random.default_rng(args.seed),
            hw_scale=args.hw_scale,
        )
    if args.json:
        logger.info(
            "%s",
            json.dumps(
                {"row": report.row(), "stats": report.stats, "slo": report.slo},
                indent=2,
                default=str,
            ),
        )
    else:
        row = report.row()
        logger.info(
            "%s: offered %d requests (%.0f Hz) over %.2f simulated s",
            report.driver,
            report.n_offered,
            report.offered_rate_hz,
            report.duration_s,
        )
        logger.info(
            "achieved %.1f FPS at %.0f%% board utilization\n",
            row["achieved_fps"],
            100 * row["utilization"],
        )
        logger.info("%s", service.report())
    ok = report.completed > 0 and service.accounting()["unaccounted"] == 0
    return 0 if ok else 1


def _cmd_fleet(args) -> int:
    """Drive the distributed render fleet through a churn scenario.

    ``--smoke`` is the CI chaos preset: 4 workers, one killed mid-run by
    a seeded fault plan, printing the fleet report whose
    ``fleet rebalance:`` and ``unaccounted requests: 0`` lines the CI
    job greps.  ``--faults FILE`` replaces the built-in kill with an
    arbitrary fleet fault plan (crashes, stalls, slowdowns, reply
    drops); ``--kill-at -1`` disables the built-in kill entirely.
    """
    import numpy as np

    from ..experiments.fleet_churn import (
        HW_SCALE,
        RECOVERY_TOLERANCE,
        churn_fleet_config,
        run_churn_scenario,
    )
    from ..fleet import FleetController
    from ..robustness.faults import FaultPlan
    from ..serve import build_demo_registry, demo_camera, run_open_loop

    if args.smoke:
        workers, rate, duration, kill_at, probe = 4, 40.0, 2.0, 0.7, 12
    else:
        workers, rate, duration = args.workers, args.rate, args.duration
        kill_at, probe = args.kill_at, args.probe
    if args.faults:
        plan = FaultPlan.from_file(args.faults)
        logger.info(
            "fault plan loaded from %s (seed=%d)", args.faults, plan.seed
        )
        registry = build_demo_registry(n_scenes=args.scenes)
        controller = FleetController(
            registry, config=churn_fleet_config(workers), fault_plan=plan
        )
        run_open_loop(
            controller,
            [s["name"] for s in registry.scenes()],
            rate_hz=rate,
            duration_s=duration,
            camera=demo_camera(probe, probe),
            rng=np.random.default_rng(args.seed),
            hw_scale=args.hw_scale,
        )
        row = None
    else:
        controller, _, row = run_churn_scenario(
            n_workers=workers,
            kill_at_s=kill_at if kill_at > 0 else duration * 10,
            rate_hz=rate,
            duration_s=duration,
            probe=probe,
            n_scenes=args.scenes,
            hw_scale=args.hw_scale,
            seed=args.seed,
        )
    accounting = controller.accounting()
    if args.json:
        payload = {
            "stats": controller.stats(),
            "accounting": accounting,
            "churn": row,
        }
        logger.info("%s", json.dumps(payload, indent=2, default=str))
    else:
        logger.info("%s", controller.report())
        if row is not None and row["detect_delay_s"] == row["detect_delay_s"]:
            logger.info(
                "fleet churn: killed worker %d at t=%.2fs, detected +%.0fms; "
                "attainment pre=%.3f dip=%.3f post=%.3f (%s)",
                row["victim"], row["kill_at_s"],
                row["detect_delay_s"] * 1e3,
                row["attainment_pre"], row["attainment_dip"],
                row["attainment_post"],
                "recovered" if row["recovered"]
                else f"NOT recovered within {RECOVERY_TOLERANCE:.0%}",
            )
    ok = accounting["completed"] > 0 and accounting["unaccounted"] == 0
    if row is not None and not row["recovered"]:
        ok = False
    return 0 if ok else 1


def _cmd_online(args) -> int:
    """Run one live reconstruction session and print its report.

    ``--smoke`` is the CI preset: a short seeded capture whose report
    carries the ``online: deployed generation`` and ``unaccounted: 0``
    lines the CI job greps.  The exit code is non-zero if no generation
    went live, a swap proof failed, or any frame/request went
    unaccounted.
    """
    from ..online import (
        CaptureConfig,
        OnlineConfig,
        QualityGate,
        ReconstructionSession,
    )

    if args.smoke:
        frames, px, eval_every = 12, 16, 2
    else:
        frames, px, eval_every = args.frames, args.probe, args.eval_every
    config = OnlineConfig(
        capture=CaptureConfig(
            scene=args.scene,
            n_frames=frames,
            rate_hz=args.capture_rate,
            width=px,
            height=px,
            seed=args.seed,
        ),
        gate=QualityGate(target_psnr_db=args.target_psnr),
        eval_every_frames=eval_every,
        seed=args.seed,
    )
    result = ReconstructionSession(config).run()
    if args.json:
        payload = {
            "deployments": result.deployments,
            "psnr_history": result.psnr_history,
            "time_to_target_s": result.time_to_target_s,
            "swap_proofs": result.swap_proofs,
            "windows": result.windows,
            "accounting": result.accounting,
            "ops": result.ops_panel(),
        }
        logger.info("%s", json.dumps(payload, indent=2, default=str))
    else:
        logger.info("%s", result.report())
    proofs_ok = all(
        p["spanned_swap"] and p["bit_identical"] for p in result.swap_proofs
    )
    accounted = (
        result.accounting["frames"]["unaccounted"] == 0
        and result.accounting["requests"]["unaccounted"] == 0
    )
    return 0 if result.generations > 0 and proofs_ok and accounted else 1


def _cmd_bench(args) -> int:
    """Run the perf benches; optionally gate against the baseline.

    The benches run with glibc's heap thresholds pinned
    (:func:`~repro.nerf.trainer.keep_heap_pages`), so a timed call reuses
    the last call's pages instead of page-faulting fresh ones.
    """
    from .. import perf
    from ..nerf.trainer import keep_heap_pages

    keep_heap_pages()
    payload = perf.run_benches(smoke=args.smoke)
    logger.info("%s", perf.format_report(payload))
    if args.out:
        perf.write_payload(payload, args.out)
        logger.info("wrote bench payload to %s", args.out)
    if not args.check:
        return 0
    baseline_path = args.baseline or perf.DEFAULT_BASELINE
    try:
        baseline = perf.load_baseline(baseline_path)
    except (OSError, ValueError) as exc:
        logger.error("cannot load baseline %s: %s", baseline_path, exc)
        logger.info("bench: FAIL")
        return 1
    tolerance = (
        perf.DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    )
    passed, lines = perf.compare_to_baseline(payload, baseline, tolerance)
    for line in lines:
        logger.info("%s", line)
    return 0 if passed else 1


def _cmd_plan(args) -> int:
    """Fit (or load) a cost model and print the capacity plan.

    With ``--model FILE`` the plan is computed from a previously saved
    cost model; otherwise the scene is profiled through the real serving
    stack first (``--runs`` repeated telemetry-recorded runs).
    ``--save-model FILE`` persists the fitted model for later planning
    without re-profiling.  Exit code 0 = feasible, 1 = infeasible.
    """
    from ..obs import (
        PlanTarget,
        SceneCostModel,
        format_fleet_plan,
        format_plan,
        plan_capacity,
        plan_fleet,
        profile_demo_scene,
    )

    if args.model:
        model = SceneCostModel.load(args.model)
        logger.info("loaded cost model for %r from %s", model.scene, args.model)
    else:
        model = profile_demo_scene(
            args.scene,
            runs=args.runs,
            probe=args.probe,
            max_samples=args.spr,
            hw_scale=args.hw_scale,
        )
    if args.save_model:
        model.save(args.save_model)
        logger.info("saved cost model to %s", args.save_model)
    target = PlanTarget(
        rate_hz=args.rate,
        rays_per_frame=model.rays_per_frame or args.probe * args.probe,
        slo_s=args.slo_ms / 1e3,
        attainment=args.attainment,
    )
    if args.spare_workers is not None:
        fleet = plan_fleet(
            model,
            target,
            replication=args.replication,
            spare_workers=args.spare_workers,
        )
        if args.json:
            logger.info(
                "%s",
                json.dumps(
                    {"model": model.to_payload(), "fleet": fleet.to_payload()},
                    indent=2,
                ),
            )
        else:
            logger.info("%s", format_fleet_plan(fleet, model))
        return 0 if fleet.feasible else 1
    plan = plan_capacity(model, target)
    if args.json:
        logger.info(
            "%s",
            json.dumps(
                {"model": model.to_payload(), "plan": plan.to_payload()},
                indent=2,
            ),
        )
    else:
        logger.info("%s", format_plan(plan, model))
    return 0 if plan.feasible else 1


def _cmd_top(args) -> int:
    """Render the live ops dashboard over a demo serving burst.

    Drives the demo registry under a recording telemetry session with a
    periodic snapshot publisher, then renders the terminal dashboard:
    per-module throughput, queue depths, shed/degrade rates,
    and SLO attainment.
    ``--snapshot`` (the CI mode) prints only the final frame; the
    default replays a few evenly spaced frames of the run's evolution.
    """
    from ..obs import render_dashboard, run_demo_ops

    history, slo, _ = run_demo_ops(
        rate_hz=args.rate,
        duration_s=args.duration,
        n_scenes=args.scenes,
        probe=args.probe,
        hw_scale=args.hw_scale,
        interval_s=args.interval,
        seed=args.seed,
    )
    if args.snapshot or len(history) <= 1:
        frames = [len(history)]
    else:
        # Replay: ~5 evenly spaced prefixes, always ending at the full
        # window, so the run's evolution is visible without scrollback.
        step = max(1, len(history) // 5)
        frames = list(range(step, len(history), step)) + [len(history)]
    for i, end in enumerate(frames):
        # Intermediate frames show the evolving window; the final frame
        # includes the SLO table.
        last = end == len(history)
        logger.info(
            "%s%s",
            "" if i == 0 else "\n",
            render_dashboard(history[:end], slo=slo if last else None),
        )
    return 0


def _cmd_report(args) -> int:
    with telemetry.session() as tel:
        result = run_experiment(args.name, quick=not args.full)
        summary = tel.summary()
    logger.info("%s  (%s)\n", result.experiment, result.paper_ref)
    logger.info("%s", format_breakdown(summary))
    if args.trace_out:
        tel.tracer.write_chrome_trace(args.trace_out)
        logger.info("wrote Chrome trace to %s", args.trace_out)
    return 0


def main(argv: list = None) -> int:
    """CLI entry point (``fusion3d-experiments``); returns an exit code."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--quiet",
        action="store_true",
        help="suppress informational output (warnings still shown, on stderr)",
    )
    parser = argparse.ArgumentParser(
        prog="fusion3d-experiments",
        description="Regenerate the tables and figures of the Fusion-3D paper.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", parents=[common], help="list available experiments")
    run_parser = sub.add_parser(
        "run", parents=[common], help="run one experiment (or 'all')"
    )
    run_parser.add_argument("name", help="experiment name or 'all'")
    run_parser.add_argument(
        "--full",
        action="store_true",
        help="full scenes/iterations instead of the quick subset",
    )
    run_parser.add_argument(
        "--json",
        action="store_true",
        help="emit machine-readable JSON instead of text tables",
    )
    run_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="record spans and write a Chrome-trace JSON to FILE",
    )
    run_parser.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print the telemetry metrics snapshot",
    )
    run_parser.add_argument(
        "--faults",
        metavar="FILE",
        default=None,
        help="activate the fault plan in FILE (JSON) for the run and "
        "print the degradation report",
    )
    run_all_parser = sub.add_parser(
        "run-all",
        parents=[common],
        help="run many experiments on a process pool, with result caching",
    )
    run_all_parser.add_argument(
        "names",
        nargs="*",
        help="experiment names (default: every registered experiment)",
    )
    run_all_parser.add_argument(
        "--jobs",
        type=int,
        default=os.cpu_count() or 1,
        metavar="N",
        help="worker processes (default: CPU count; 1 = run inline)",
    )
    run_all_parser.add_argument(
        "--full",
        action="store_true",
        help="full scenes/iterations instead of the quick subset",
    )
    run_all_parser.add_argument(
        "--json",
        action="store_true",
        help="write one JSON document (report + per-experiment payloads) "
        "on stdout, alone even without --quiet",
    )
    run_all_parser.add_argument(
        "--timeout",
        type=float,
        default=0.0,
        metavar="S",
        help="per-experiment time budget in seconds (0 = unlimited)",
    )
    run_all_parser.add_argument(
        "--no-retry",
        action="store_true",
        help="fail crashed experiments immediately instead of retrying once",
    )
    run_all_parser.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute everything; neither read nor write the cache",
    )
    run_all_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: $FUSION3D_CACHE_DIR or ~/.cache/fusion3d)",
    )
    run_all_parser.add_argument(
        "--metrics",
        action="store_true",
        help="print the merged cross-worker metrics snapshot",
    )
    run_all_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="write a merged Chrome trace (one pid track per worker)",
    )
    cache_parser = sub.add_parser(
        "cache",
        parents=[common],
        help="inspect or clear the on-disk result cache",
    )
    cache_parser.add_argument(
        "action", choices=("info", "clear"), help="what to do with the cache"
    )
    cache_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help="cache location (default: $FUSION3D_CACHE_DIR or ~/.cache/fusion3d)",
    )
    serve_parser = sub.add_parser(
        "serve",
        parents=[common],
        help="drive the rendering service under a load generator and "
        "print the SLO attainment report",
    )
    serve_parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: 2-second simulated open-loop burst on the demo registry",
    )
    serve_parser.add_argument(
        "--rate", type=float, default=300.0, metavar="HZ",
        help="open-loop offered arrival rate (default: 300)",
    )
    serve_parser.add_argument(
        "--duration", type=float, default=2.0, metavar="S",
        help="simulated arrival horizon in seconds (default: 2.0)",
    )
    serve_parser.add_argument(
        "--scenes", type=int, default=2, metavar="N",
        help="demo scenes to deploy (default: 2)",
    )
    serve_parser.add_argument(
        "--probe", type=int, default=16, metavar="PX",
        help="probe frame edge length in pixels (default: 16)",
    )
    serve_parser.add_argument(
        "--hw-scale", type=float, default=400.0, metavar="X",
        help="bill each probe frame as X frames of hardware work (default: 400)",
    )
    serve_parser.add_argument(
        "--closed-loop", type=int, default=0, metavar="N",
        help="run one closed-loop client for N frames instead of open loop",
    )
    serve_parser.add_argument(
        "--seed", type=int, default=0, help="arrival-trace RNG seed"
    )
    serve_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the load report as JSON instead of text",
    )
    bench_parser = sub.add_parser(
        "bench",
        parents=[common],
        help="run the kernel perf benches and optionally gate their "
        "speedups against the committed BENCH_nerf.json baseline",
    )
    bench_parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: shrunken kernel workloads",
    )
    bench_parser.add_argument(
        "--out",
        metavar="FILE",
        default=None,
        help="write the bench payload as JSON to FILE (e.g. BENCH_nerf.json)",
    )
    bench_parser.add_argument(
        "--check",
        action="store_true",
        help="compare speedups against the baseline and exit non-zero on "
        "a regression (greppable PERF OK / PERF REGRESSION lines)",
    )
    bench_parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline payload for --check (default: BENCH_nerf.json)",
    )
    bench_parser.add_argument(
        "--tolerance",
        type=float,
        default=None,
        metavar="FRAC",
        help="allowed relative speedup drop before failing (default: 0.2)",
    )
    plan_parser = sub.add_parser(
        "plan",
        parents=[common],
        help="fit a per-scene cost model from telemetry and print the "
        "capacity plan for a target load and latency SLO",
    )
    plan_parser.add_argument(
        "--scene", default="chair", help="demo scene to profile (default: chair)"
    )
    plan_parser.add_argument(
        "--rate", type=float, default=2000.0, metavar="HZ",
        help="target offered frame rate across the fleet (default: 2000)",
    )
    plan_parser.add_argument(
        "--slo-ms", type=float, default=5.0, metavar="MS",
        help="per-frame latency budget in simulated ms (default: 5.0)",
    )
    plan_parser.add_argument(
        "--attainment", type=float, default=0.9, metavar="FRAC",
        help="required fraction of frames within the budget (default: 0.9)",
    )
    plan_parser.add_argument(
        "--probe", type=int, default=16, metavar="PX",
        help="probe frame edge length in pixels (default: 16)",
    )
    plan_parser.add_argument(
        "--spr", type=int, default=32, metavar="N",
        help="max samples per ray for the profiled scene (default: 32)",
    )
    plan_parser.add_argument(
        "--hw-scale", type=float, default=400.0, metavar="X",
        help="bill each probe frame as X frames of hardware work (default: 400)",
    )
    plan_parser.add_argument(
        "--runs", type=int, default=3, metavar="N",
        help="profiling runs behind the confidence intervals (default: 3)",
    )
    plan_parser.add_argument(
        "--model", metavar="FILE", default=None,
        help="plan from a saved cost model instead of profiling",
    )
    plan_parser.add_argument(
        "--save-model", metavar="FILE", default=None,
        help="write the fitted cost model as JSON to FILE",
    )
    plan_parser.add_argument(
        "--spare-workers", type=int, default=None, metavar="N",
        help="size a churn-tolerant fleet instead: boards + N live "
        "spares (prints the 'fleet plan:' line)",
    )
    plan_parser.add_argument(
        "--replication", type=int, default=2, metavar="R",
        help="scene copies the fleet keeps, for --spare-workers "
        "(default: 2)",
    )
    plan_parser.add_argument(
        "--json",
        action="store_true",
        help="emit the model + plan as JSON instead of the text report",
    )
    fleet_parser = sub.add_parser(
        "fleet",
        parents=[common],
        help="drive the distributed render fleet through a churn "
        "scenario and print the fleet report",
    )
    fleet_parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI chaos preset: 4 workers, one killed mid-run, seeded",
    )
    fleet_parser.add_argument(
        "--workers", type=int, default=4, metavar="N",
        help="fleet size (default: 4)",
    )
    fleet_parser.add_argument(
        "--rate", type=float, default=40.0, metavar="HZ",
        help="open-loop offered arrival rate (default: 40)",
    )
    fleet_parser.add_argument(
        "--duration", type=float, default=3.0, metavar="S",
        help="simulated arrival horizon in seconds (default: 3.0)",
    )
    fleet_parser.add_argument(
        "--kill-at", type=float, default=1.0, metavar="S",
        help="kill one worker at this instant; negative disables "
        "(default: 1.0)",
    )
    fleet_parser.add_argument(
        "--scenes", type=int, default=2, metavar="N",
        help="demo scenes to deploy (default: 2)",
    )
    fleet_parser.add_argument(
        "--probe", type=int, default=16, metavar="PX",
        help="probe frame edge length in pixels (default: 16)",
    )
    fleet_parser.add_argument(
        "--hw-scale", type=float, default=5000.0, metavar="X",
        help="bill each probe frame as X frames of hardware work "
        "(default: 5000)",
    )
    fleet_parser.add_argument(
        "--faults", metavar="FILE", default=None,
        help="fleet fault plan JSON (crashes/stalls/slowdowns/drops) "
        "replacing the built-in kill",
    )
    fleet_parser.add_argument(
        "--seed", type=int, default=7, help="scenario RNG seed"
    )
    fleet_parser.add_argument(
        "--json",
        action="store_true",
        help="emit fleet stats + accounting as JSON instead of text",
    )
    online_parser = sub.add_parser(
        "online",
        parents=[common],
        help="run a live reconstruction session (capture -> incremental "
        "train -> hot-swap deploy under SLO) and print its report",
    )
    online_parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI preset: 12 frames at 16 px, seeded, ~5 s wall",
    )
    online_parser.add_argument(
        "--scene", default="mic",
        help="analytic capture scene (default: mic)",
    )
    online_parser.add_argument(
        "--frames", type=int, default=16, metavar="N",
        help="captured frames (default: 16)",
    )
    online_parser.add_argument(
        "--capture-rate", type=float, default=8.0, metavar="HZ",
        help="capture frame rate on the virtual clock (default: 8)",
    )
    online_parser.add_argument(
        "--target-psnr", type=float, default=16.0, metavar="DB",
        help="held-out PSNR defining 'acceptable quality' (default: 16)",
    )
    online_parser.add_argument(
        "--probe", type=int, default=16, metavar="PX",
        help="capture edge length in pixels (default: 16)",
    )
    online_parser.add_argument(
        "--eval-every", type=int, default=4, metavar="N",
        help="evaluate/maybe-deploy every N frames (default: 4)",
    )
    online_parser.add_argument(
        "--seed", type=int, default=0, help="capture/training/arrival seed"
    )
    online_parser.add_argument(
        "--json",
        action="store_true",
        help="emit deployments, proofs, and windows as JSON instead of text",
    )
    top_parser = sub.add_parser(
        "top",
        parents=[common],
        help="render the terminal ops dashboard over a demo serving burst "
        "(throughput, queues, SLO attainment)",
    )
    top_parser.add_argument(
        "--snapshot",
        action="store_true",
        help="CI mode: print only the final dashboard frame",
    )
    top_parser.add_argument(
        "--rate", type=float, default=300.0, metavar="HZ",
        help="open-loop offered arrival rate (default: 300)",
    )
    top_parser.add_argument(
        "--duration", type=float, default=2.0, metavar="S",
        help="simulated arrival horizon in seconds (default: 2.0)",
    )
    top_parser.add_argument(
        "--scenes", type=int, default=2, metavar="N",
        help="demo scenes to deploy (default: 2)",
    )
    top_parser.add_argument(
        "--probe", type=int, default=16, metavar="PX",
        help="probe frame edge length in pixels (default: 16)",
    )
    top_parser.add_argument(
        "--hw-scale", type=float, default=400.0, metavar="X",
        help="bill each probe frame as X frames of hardware work (default: 400)",
    )
    top_parser.add_argument(
        "--interval", type=float, default=0.05, metavar="S",
        help="snapshot publisher period on the service clock (default: 0.05)",
    )
    top_parser.add_argument(
        "--seed", type=int, default=0, help="arrival-trace RNG seed"
    )
    report_parser = sub.add_parser(
        "report",
        parents=[common],
        help="run one experiment under telemetry; print the per-module "
        "cycle + wall-clock breakdown",
    )
    report_parser.add_argument(
        "name", nargs="?", default="table3", help="experiment name (default: table3)"
    )
    report_parser.add_argument(
        "--full",
        action="store_true",
        help="full scenes/iterations instead of the quick subset",
    )
    report_parser.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="also write the recorded Chrome-trace JSON to FILE",
    )
    args = parser.parse_args(argv)
    _configure_cli_logging(args.quiet)
    if args.command == "list":
        return _cmd_list()
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "run-all":
        return _cmd_run_all(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "fleet":
        return _cmd_fleet(args)
    if args.command == "online":
        return _cmd_online(args)
    if args.command == "bench":
        return _cmd_bench(args)
    if args.command == "plan":
        return _cmd_plan(args)
    if args.command == "top":
        return _cmd_top(args)
    return _cmd_run(args)


if __name__ == "__main__":
    sys.exit(main())
