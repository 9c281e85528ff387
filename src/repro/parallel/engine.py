"""The parallel experiment engine behind ``runner run-all``.

Independent experiments (each already deterministic via fixed seeds) fan
out across a ``concurrent.futures`` process pool.  Each job runs in the
worker's main thread under its own telemetry session, with an optional
per-experiment timeout enforced by ``SIGALRM`` *inside* the worker (the
only way to actually interrupt a compute-bound NumPy job), and ships its
result payload plus span/metric snapshots back to the parent, which
merges them into one :class:`RunReport`.

Failure policy: a crashed job (any exception, including a dead worker
process) is resubmitted at once, ``retries`` times (once by default); a
timed-out job is **not** retried — it would time out again and double
the damage.  A broken pool is rebuilt so one segfaulting experiment
cannot take down the rest of the sweep — but only
:data:`MAX_POOL_REBUILDS` *consecutive* times: a worker function that
crashes the pool persistently would otherwise rebuild forever, so past
the cap the remaining jobs fail loudly with a structured
``PoolRebuildLimitError`` outcome instead of spinning.

Caching: with a :class:`~repro.parallel.cache.ResultCache` attached, the
parent consults the cache *before* submitting anything (a warm sweep
never even spawns workers) and stores fresh results afterwards.  Keys
include the source fingerprint of every package the numbers depend on
(:data:`~repro.parallel.fingerprint.RESULT_PACKAGES`), so editing the
simulator silently invalidates the cache.  Workers never touch the
cache: a job that runs rebuilds its workloads (scene traces included).

Determinism: results are bit-identical across ``jobs`` settings because
every experiment seeds its own RNGs and jobs never share state; the
``--jobs 1`` path runs the very same job function inline (same payload
normalization, same cache writes), which the test suite asserts.
"""

from __future__ import annotations

import logging
import os
import signal
import threading
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field

from . import cache as cache_mod
from .fingerprint import RESULT_PACKAGES, source_fingerprint

logger = logging.getLogger("repro.parallel")

#: Consecutive broken-pool rebuilds tolerated before the engine stops
#: resubmitting and fails the remaining jobs with a structured error.
MAX_POOL_REBUILDS = 3

# NOTE: repro.experiments is imported lazily throughout this module.  The
# experiments package pulls in the whole algorithm stack, which importing
# the cache alone should not pay for.


class ExperimentTimeout(Exception):
    """Raised inside a worker when a job exceeds its time budget."""


class PoolRebuildLimitError(RuntimeError):
    """The process pool broke down more consecutive times than allowed.

    Jobs abandoned by the cap carry this error's message in their
    :class:`JobOutcome` (status ``failed``) — a structured, greppable
    verdict instead of an endless rebuild loop.
    """


def resolve_names(names=None) -> list:
    """Expand ``names`` (``None``/``"all"`` = every experiment) against
    the registry, in registry order, rejecting unknown names early."""
    from ..experiments import runner

    if not names or names == "all" or list(names) == ["all"]:
        return list(runner.REGISTRY)
    unknown = [n for n in names if n not in runner.REGISTRY]
    if unknown:
        raise KeyError(f"unknown experiments {unknown}; see `list`")
    return list(names)


def result_cache_key(name: str, quick: bool, fingerprint: str) -> str:
    """Cache key of one experiment run: name + config + source digest."""
    return cache_mod.cache_key(
        "experiment-result", name=name, quick=bool(quick), fingerprint=fingerprint
    )


@dataclass
class JobOutcome:
    """What happened to one experiment in a sweep."""

    name: str
    #: ``ok`` | ``cached`` | ``failed`` | ``timeout``
    status: str
    #: Wall-clock seconds this run actually spent (0 for cache hits).
    elapsed_s: float = 0.0
    #: Seconds of compute a cache hit avoided (the original run's cost).
    saved_s: float = 0.0
    attempts: int = 1
    error: str = None
    #: The :class:`~repro.experiments.base.ExperimentResult`, if any.
    result: object = None
    #: Per-job telemetry summary (metrics snapshot + span aggregates).
    telemetry: dict = None
    #: Chrome-trace events recorded in the worker, pid-tagged.
    trace_events: list = field(default_factory=list)
    worker_pid: int = 0


@dataclass
class RunReport:
    """Merged outcome of one ``run-all`` sweep.

    ``wall_s`` is the parent's elapsed time; ``compute_s`` sums what the
    jobs spent; ``saved_s`` sums what cache hits avoided.  The headline
    ``speedup`` is compute over wall — the number the ISSUE's ≥2×
    acceptance bar reads off this report on a multi-core machine.
    """

    outcomes: list
    wall_s: float
    jobs: int
    quick: bool
    fingerprint: str = None
    cache_root: str = None

    def __post_init__(self):
        self.by_status = {}
        for outcome in self.outcomes:
            self.by_status.setdefault(outcome.status, []).append(outcome)

    @property
    def compute_s(self) -> float:
        """Total seconds of fresh experiment compute across all jobs."""
        return sum(o.elapsed_s for o in self.outcomes)

    @property
    def saved_s(self) -> float:
        """Seconds of compute avoided by cache hits."""
        return sum(o.saved_s for o in self.outcomes)

    @property
    def speedup(self) -> float:
        """Aggregate job seconds per wall second (parallel efficiency)."""
        if self.wall_s <= 0:
            return 0.0
        return self.compute_s / self.wall_s

    @property
    def skipped_fraction(self) -> float:
        """Fraction of known compute the cache skipped this run."""
        total = self.compute_s + self.saved_s
        if total <= 0:
            return 1.0 if self.by_status.get("cached") else 0.0
        return self.saved_s / total

    @property
    def failures(self) -> list:
        """Outcomes that produced no result (failed or timed out)."""
        return [o for o in self.outcomes if o.result is None]

    def merged_metrics(self) -> dict:
        """One metrics snapshot summing every job's snapshot."""
        return merge_metric_snapshots(
            [o.telemetry["metrics"] for o in self.outcomes if o.telemetry]
        )

    def merged_trace_events(self) -> list:
        """All workers' Chrome-trace events (pid column = worker)."""
        events = []
        for outcome in self.outcomes:
            events.extend(outcome.trace_events)
        return events

    def summary(self) -> dict:
        """JSON-serializable digest of the sweep."""
        return {
            "jobs": self.jobs,
            "quick": self.quick,
            "wall_s": self.wall_s,
            "compute_s": self.compute_s,
            "saved_s": self.saved_s,
            "speedup": self.speedup,
            "cache_skipped_fraction": self.skipped_fraction,
            "counts": {status: len(v) for status, v in sorted(self.by_status.items())},
            "outcomes": [
                {
                    "name": o.name,
                    "status": o.status,
                    "elapsed_s": o.elapsed_s,
                    "saved_s": o.saved_s,
                    "attempts": o.attempts,
                    "error": o.error,
                    "worker_pid": o.worker_pid,
                }
                for o in self.outcomes
            ],
        }

    def to_text(self) -> str:
        """Render the sweep report as an aligned text table."""
        from ..experiments.base import _fmt

        header = f"{'experiment':20s}  {'status':8s}  {'tries':>5s}  {'wall s':>8s}"
        lines = [
            f"run-all report  (jobs={self.jobs}, "
            f"{'quick' if self.quick else 'full'} mode)",
            "",
            header,
            "-" * len(header),
        ]
        for o in self.outcomes:
            detail = f"  [{o.error}]" if o.error else ""
            shown = o.elapsed_s if o.status != "cached" else o.saved_s
            lines.append(
                f"{o.name:20s}  {o.status:8s}  {o.attempts:>5d}  "
                f"{_fmt(shown):>8s}{detail}"
            )
        lines.append("")
        lines.append(
            f"wall {_fmt(self.wall_s)} s for {_fmt(self.compute_s)} s of compute "
            f"-> speedup {_fmt(self.speedup)}x"
        )
        if self.by_status.get("cached"):
            lines.append(
                f"cache: {len(self.by_status['cached'])} hits, "
                f"{_fmt(self.saved_s)} s of compute skipped "
                f"({_fmt(100 * self.skipped_fraction)}% of the known total)"
            )
        if self.failures:
            names = ", ".join(o.name for o in self.failures)
            lines.append(f"FAILED: {names}")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# worker side


def _alarm_available() -> bool:
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


def _raise_timeout(signum, frame):
    raise ExperimentTimeout()


def execute_job(
    name: str,
    quick: bool = True,
    timeout_s: float = None,
    collect_telemetry: bool = False,
) -> dict:
    """Run one experiment and return a picklable outcome payload.

    This is the unit of work shipped to pool workers *and* run inline by
    the ``jobs=1`` path — one code path, so payload normalization (and
    therefore the bytes that reach the cache and the report) cannot
    depend on the jobs setting.  Raises :class:`ExperimentTimeout` when
    the ``SIGALRM`` budget expires mid-experiment.

    Where ``SIGALRM`` cannot be armed (non-main thread, or a platform
    without it), the budget is still enforced post-hoc by wall clock:
    the job cannot be *interrupted*, but one that exceeded its budget
    raises :class:`ExperimentTimeout` on completion rather than being
    silently reported as ``ok``.
    """
    from ..experiments import runner
    from .. import telemetry

    want_timeout = timeout_s is not None and timeout_s > 0
    arm = want_timeout and _alarm_available()
    previous_handler = None
    if arm:
        previous_handler = signal.signal(signal.SIGALRM, _raise_timeout)
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
    session = telemetry.session() if collect_telemetry else None
    start = time.perf_counter()
    try:
        if session is not None:
            with session as tel:
                result = runner.run_experiment(name, quick=quick)
                summary = tel.summary()
                events = tel.tracer.to_chrome_trace()["traceEvents"]
        else:
            result = runner.run_experiment(name, quick=quick)
            summary = None
            events = []
    finally:
        if arm:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous_handler)
    elapsed = time.perf_counter() - start
    if want_timeout and not arm and elapsed > timeout_s:
        raise ExperimentTimeout(
            f"{name} exceeded its {timeout_s:g}s budget "
            f"({elapsed:.2f}s, wall-clock fallback; SIGALRM unavailable)"
        )
    return {
        "name": name,
        "result": result.to_payload(),
        "telemetry": summary,
        "trace_events": events,
        "elapsed_s": elapsed,
        "pid": os.getpid(),
    }


# ----------------------------------------------------------------------
# parent side


def run_experiments(
    names=None,
    jobs: int = 1,
    quick: bool = True,
    timeout_s: float = None,
    retries: int = 1,
    cache: cache_mod.ResultCache = None,
    collect_telemetry: bool = False,
) -> RunReport:
    """Run a set of experiments, possibly in parallel, with caching.

    ``cache=None`` disables caching entirely (the ``--no-cache`` path).
    ``jobs <= 1`` executes inline in this process; otherwise a process
    pool of ``jobs`` workers is used.  See the module docstring for the
    retry/timeout/caching policy.  Always returns a :class:`RunReport`;
    per-experiment errors are reported in it, not raised.
    """
    from ..experiments.base import ExperimentResult

    names = resolve_names(names)
    start = time.perf_counter()
    fingerprint = source_fingerprint(RESULT_PACKAGES) if cache is not None else None
    outcomes = {}
    pending = []
    for name in names:
        hit = None
        if cache is not None:
            hit = cache.get_result(result_cache_key(name, quick, fingerprint))
        if hit is not None:
            outcomes[name] = JobOutcome(
                name=name,
                status="cached",
                saved_s=float(hit.get("meta", {}).get("elapsed_s", 0.0)),
                result=ExperimentResult.from_payload(hit["result"]),
            )
        else:
            pending.append(name)

    if pending:
        if jobs <= 1:
            fresh = _run_inline(
                pending, quick, timeout_s, collect_telemetry, retries
            )
        else:
            fresh = _run_pool(
                pending, jobs, quick, timeout_s, collect_telemetry, retries
            )
        outcomes.update(fresh)
        if cache is not None:
            for outcome in fresh.values():
                if outcome.result is not None:
                    cache.put_result(
                        result_cache_key(outcome.name, quick, fingerprint),
                        outcome.result.to_payload(),
                        meta={"elapsed_s": outcome.elapsed_s, "quick": quick},
                    )

    return RunReport(
        outcomes=[outcomes[name] for name in names],
        wall_s=time.perf_counter() - start,
        jobs=jobs,
        quick=quick,
        fingerprint=fingerprint,
        cache_root=cache.root if cache is not None else None,
    )


def _outcome_from_payload(payload: dict, attempts: int) -> JobOutcome:
    """Convert a worker's success payload into a :class:`JobOutcome`."""
    from ..experiments.base import ExperimentResult

    result = ExperimentResult.from_payload(payload["result"])
    if payload["telemetry"] is not None:
        result.telemetry = payload["telemetry"]
    return JobOutcome(
        name=payload["name"],
        status="ok",
        elapsed_s=payload["elapsed_s"],
        attempts=attempts,
        result=result,
        telemetry=payload["telemetry"],
        trace_events=payload["trace_events"],
        worker_pid=payload["pid"],
    )


def _failure_outcome(name: str, exc: BaseException, attempts: int) -> JobOutcome:
    status = "timeout" if isinstance(exc, ExperimentTimeout) else "failed"
    error = status if isinstance(exc, ExperimentTimeout) else (
        f"{type(exc).__name__}: {exc}"
    )
    return JobOutcome(name=name, status=status, attempts=attempts, error=error)


def _run_inline(names, quick, timeout_s, collect_telemetry, retries) -> dict:
    """Sequential fallback sharing the worker code path (``jobs=1``)."""
    outcomes = {}
    for name in names:
        attempts = 0
        while True:
            attempts += 1
            try:
                payload = execute_job(name, quick, timeout_s, collect_telemetry)
            except ExperimentTimeout as exc:
                outcomes[name] = _failure_outcome(name, exc, attempts)
                break
            except Exception as exc:
                # Failure number `attempts` asks for retry number `attempts`.
                if attempts <= retries:
                    continue
                outcomes[name] = _failure_outcome(name, exc, attempts)
                break
            outcomes[name] = _outcome_from_payload(payload, attempts)
            break
    return outcomes


def _run_pool(names, jobs, quick, timeout_s, collect_telemetry, retries) -> dict:
    """Fan ``names`` out over a process pool with crash retry.

    The pool is rebuilt when a worker death poisons it, but only
    :data:`MAX_POOL_REBUILDS` *consecutive* times: a job whose worker
    function kills every pool it touches would otherwise rebuild
    forever.  Past the cap, every not-yet-finished job fails with a
    structured :class:`PoolRebuildLimitError` outcome.
    """
    outcomes = {}
    attempts = {name: 0 for name in names}
    queue = list(names)

    def make_pool():
        return ProcessPoolExecutor(max_workers=min(jobs, max(1, len(names))))

    pool = make_pool()
    consecutive_rebuilds = 0
    try:
        futures = {}
        for name in queue:
            attempts[name] += 1
            futures[pool.submit(
                execute_job, name, quick, timeout_s, collect_telemetry
            )] = name
        while futures:
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            resubmit = []
            pool_broken = False
            saw_live_result = False
            for future in done:
                name = futures.pop(future)
                try:
                    payload = future.result()
                except ExperimentTimeout as exc:
                    saw_live_result = True
                    outcomes[name] = _failure_outcome(name, exc, attempts[name])
                except BrokenProcessPool as exc:
                    pool_broken = True
                    if attempts[name] <= retries:
                        resubmit.append(name)
                    else:
                        outcomes[name] = _failure_outcome(
                            name, exc, attempts[name]
                        )
                except Exception as exc:
                    saw_live_result = True
                    if attempts[name] <= retries:
                        resubmit.append(name)
                    else:
                        outcomes[name] = _failure_outcome(
                            name, exc, attempts[name]
                        )
                else:
                    saw_live_result = True
                    outcomes[name] = _outcome_from_payload(
                        payload, attempts[name]
                    )
            if saw_live_result:
                # Any reply that reached the parent proves the pool was
                # alive: only back-to-back breakdowns count as a streak.
                consecutive_rebuilds = 0
            if pool_broken:
                # A dead worker poisons the whole executor: drain the
                # still-queued names and rebuild before resubmitting.
                for future, name in futures.items():
                    resubmit.append(name)
                futures = {}
                pool.shutdown(wait=False)
                consecutive_rebuilds += 1
                if consecutive_rebuilds > MAX_POOL_REBUILDS:
                    exc = PoolRebuildLimitError(
                        f"process pool broke {consecutive_rebuilds} "
                        f"consecutive times (limit {MAX_POOL_REBUILDS}); "
                        "a submitted worker function is killing every "
                        "pool it runs in"
                    )
                    logger.error("%s", exc)
                    for name in resubmit:
                        outcomes[name] = _failure_outcome(
                            name, exc, attempts[name]
                        )
                    break
                pool = make_pool()
            for name in resubmit:
                attempts[name] += 1
                futures[pool.submit(
                    execute_job, name, quick, timeout_s, collect_telemetry
                )] = name
    finally:
        pool.shutdown(wait=True)
    return outcomes


# ----------------------------------------------------------------------
# telemetry merging


def merge_metric_snapshots(snapshots) -> dict:
    """Combine per-worker metrics snapshots into one.

    Counters sum (they are totals); gauges keep the last job's value
    (they are last-write-wins by definition); histogram summaries sum
    counts and sums, take the min/max envelope, and average percentiles
    weighted by count — approximate, but consistent with the log-bucket
    estimates the single-process histogram already reports.
    """
    merged = {"counters": {}, "gauges": {}, "histograms": {}}
    for snapshot in snapshots:
        for name, value in snapshot.get("counters", {}).items():
            merged["counters"][name] = merged["counters"].get(name, 0.0) + value
        for name, value in snapshot.get("gauges", {}).items():
            merged["gauges"][name] = value
        for name, summ in snapshot.get("histograms", {}).items():
            if not summ:
                continue
            into = merged["histograms"].get(name)
            if into is None:
                merged["histograms"][name] = dict(summ)
                continue
            n_old, n_new = into["count"], summ["count"]
            total = n_old + n_new
            for quantile in ("p50", "p95", "p99"):
                into[quantile] = (
                    (into[quantile] * n_old + summ[quantile] * n_new) / total
                    if total
                    else 0.0
                )
            into["count"] = total
            into["sum"] = into["sum"] + summ["sum"]
            into["mean"] = into["sum"] / total if total else 0.0
            into["min"] = min(into["min"], summ["min"])
            into["max"] = max(into["max"], summ["max"])
    return merged
