"""Command line of the benchmark.

Run from the repository root::

    python -m bench run [--workload W ...] [--seed N] [--seconds S]
                        [--trace 0|1] [--trace-dir DIR] [--json OUT]
    python -m bench compare BASE.json CHANGE.json

``run`` measures each workload in its own subprocess, one after another,
prints every end-to-end metric as ``workload metric value unit n=<samples>``
and ends with one JSON line (``correct``, ``attempted``, ``failed``,
``metrics``).  With ``--trace 1`` it runs each workload twice, untraced and
then traced, and reports the per-layer metrics, the per-layer table and
the tracing overhead instead.  It exits 1 when a correctness check fails
and 2 when a workload could not run.  ``--json`` appends one record per
workload run to a file that ``compare`` reads.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from . import stats

ROOT = Path(__file__).resolve().parent.parent
CATALOG = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Wall-clock limit of one workload subprocess.
WORKER_TIMEOUT_S = 170
#: End-to-end metrics whose traced-minus-untraced difference is reported.
OVERHEAD_METRICS = ("setup_s", "throughput_per_s", "latency_ms_p50", "latency_ms_p90")


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in CATALOG[kind]}


def _clean(value: float) -> float:
    """JSON has no NaN: a window with no completions reads 0."""
    return 0.0 if value is None or math.isnan(value) else float(value)


# -- worker: one workload in this process ------------------------------------


def end_to_end(outcome, peak_rss_mb: float) -> tuple:
    """``(metrics, samples)``: each end-to-end metric and its sample count."""
    latency = outcome.latency_ms
    metrics = {
        "setup_s": statistics.median(outcome.setup_s),
        "throughput_per_s": outcome.attempted / outcome.busy_s,
        "latency_ms_p50": stats.percentile(latency, 50),
        "latency_ms_p90": stats.percentile(latency, 90),
        "peak_rss_mb": peak_rss_mb,
        "good_frac": outcome.good / outcome.attempted,
    }
    samples = {
        "setup_s": len(outcome.setup_s),
        "throughput_per_s": outcome.attempted,
        "latency_ms_p50": len(latency),
        "latency_ms_p90": len(latency),
        "peak_rss_mb": 1,
        "good_frac": outcome.attempted,
    }
    return metrics, samples


def worker(args) -> int:
    from . import layers, workloads

    recorder = layers.LayerRecorder() if args.trace else layers.NullRecorder()
    if args.trace:
        with layers.installed(recorder):
            outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, recorder)
    else:
        outcome = workloads.WORKLOADS[args.workload](args.seed, args.seconds, recorder)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics, samples = end_to_end(outcome, peak_rss_mb)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": int(args.trace),
        "correct": all(outcome.checks.values()),
        "checks": outcome.checks,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
        "samples": samples,
    }
    if args.trace:
        spans = recorder.tracer.finished
        record["layers"] = layers.table(spans)
        record["per_layer"] = {
            k: _clean(v) for k, v in layers.per_layer_metrics(spans, outcome.counters).items()
        }
        if args.trace_dir:
            Path(args.trace_dir).mkdir(parents=True, exist_ok=True)
            recorder.tracer.write_chrome_trace(
                str(Path(args.trace_dir) / f"{args.workload}.trace.json")
            )
    print(json.dumps(record))
    return 0


def _run_worker(workload: str, seed: int, seconds: float, trace: bool, trace_dir) -> dict:
    command = [
        sys.executable, "-m", "bench", "worker", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace)),
    ]
    if trace_dir:
        command += ["--trace-dir", str(Path(trace_dir).resolve())]
    done = subprocess.run(
        command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


# -- run: every workload, each in a subprocess --------------------------------


def _print_layers(workload: str, rows: list) -> None:
    print(f"{workload} {'layer':<18} {'busy_ms':>10} {'self_ms':>10} {'calls':>7} {'share':>6}")
    for row in rows:
        print(
            f"{workload} {row['layer']:<18} {row['busy_ms']:>10.2f} {row['self_ms']:>10.2f} "
            f"{row['calls']:>7d} {row['share']:>6.1%}"
        )


def run(args) -> int:
    if importlib.util.find_spec("repro") is None:
        print("bench: the repro package is not under src/; run from a checkout", file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else CATALOG["run_seconds"]
    kind = "per_layer" if args.trace else "end_to_end"
    units = _units(kind)
    e2e_units = _units("end_to_end")
    results = []
    try:
        for workload in args.workload or [w["name"] for w in CATALOG["workloads"]]:
            plain = _run_worker(workload, args.seed, seconds, False, None)
            records = [plain]
            result = plain
            if args.trace:
                result = _run_worker(workload, args.seed, seconds, True, args.trace_dir)
                records.append(result)
                for name in OVERHEAD_METRICS:
                    result["per_layer"][f"overhead.{name}"] = (
                        result["metrics"][name] - plain["metrics"][name]
                    )
            for name, value in plain["metrics"].items():
                print(f"{workload} {name} {value:.6g} {e2e_units[name]} n={plain['samples'][name]}")
            if args.trace:
                _print_layers(workload, result["layers"])
            for name, passed in plain["checks"].items():
                if not passed:
                    print(f"{workload} check FAILED: {name}")
            values = result["per_layer"] if args.trace else result["metrics"]
            if set(values) != set(units):
                raise RuntimeError(
                    f"workload {workload} reported {sorted(set(values) ^ set(units))} "
                    f"against BENCHMARK.json's {kind} metrics"
                )
            results.append((workload, result, values))
            if args.json:
                with open(args.json, "a") as fh:
                    for record in records:
                        fh.write(json.dumps(record) + "\n")
    except (RuntimeError, subprocess.TimeoutExpired) as error:
        print(f"bench: {error}", file=sys.stderr)
        return 2
    correct = all(result["correct"] for _, result, _ in results)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(result["attempted"] for _, result, _ in results),
        "failed": sum(result["failed"] for _, result, _ in results),
        "metrics": {
            (f"{workload}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for workload, _, values in results
            for name, value in values.items()
        },
    }))
    return 0 if correct else 1


# -- compare: two sets of runs against the bounds ----------------------------


def _load_runs(path: str) -> dict:
    runs = {}
    with open(path) as fh:
        for line in fh:
            record = json.loads(line)
            if record["trace"]:
                continue
            for name, value in record["metrics"].items():
                runs.setdefault((record["workload"], name), []).append(value)
    return runs


def compare(args) -> int:
    def summary(values) -> str:
        q1, q2, q3 = stats.quartiles(values)
        return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"

    base, change = _load_runs(args.base), _load_runs(args.change)
    print(f"{'workload':<8} {'metric':<18} {'base: median [q1, q3] n':>36} "
          f"{'change: median [q1, q3] n':>36}  verdict")
    verdicts = []
    for workload in [w["name"] for w in CATALOG["workloads"]]:
        for metric in CATALOG["end_to_end"]:
            key = (workload, metric["name"])
            if key not in base or key not in change:
                continue
            verdict = stats.verdict(base[key], change[key], metric["better"], metric["bound"])
            verdicts.append(verdict)
            print(f"{workload:<8} {metric['name']:<18} {summary(base[key]):>36} "
                  f"{summary(change[key]):>36}  {verdict}")
    return 1 if stats.WORSE in verdicts else 0


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run workloads and print their metrics")
    p_run.add_argument("--workload", action="append",
                       choices=[w["name"] for w in CATALOG["workloads"]],
                       help="workload to run (repeatable; default all)")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--seconds", type=float, default=None,
                       help="run length (default: run_seconds of BENCHMARK.json)")
    p_run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                       help="1: report per-layer metrics from a traced run")
    p_run.add_argument("--trace-dir", help="write one Chrome trace per workload here")
    p_run.add_argument("--json", help="append one record per workload run to this file")
    p_worker = sub.add_parser("worker", help=argparse.SUPPRESS)
    p_worker.add_argument("workload")
    p_worker.add_argument("--seed", type=int, required=True)
    p_worker.add_argument("--seconds", type=float, required=True)
    p_worker.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p_worker.add_argument("--trace-dir")
    p_compare = sub.add_parser("compare", help="compare two --json files run by run")
    p_compare.add_argument("base")
    p_compare.add_argument("change")
    args = parser.parse_args(argv)
    return {"run": run, "worker": worker, "compare": compare}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
