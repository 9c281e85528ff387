"""The parallel experiment engine: determinism, caching, failure policy."""

import json
import time

import pytest

from repro import parallel
from repro.experiments import runner
from repro.experiments.base import ExperimentResult

#: Sub-second experiments safe to run repeatedly in tests.
CHEAP = ["fig3", "fig6", "table1"]


def payloads(report):
    return {
        o.name: json.dumps(o.result.to_payload(), sort_keys=True)
        for o in report.outcomes
    }


@pytest.fixture
def cache(tmp_path):
    return parallel.ResultCache(str(tmp_path / "cache"))


def test_resolve_names():
    assert parallel.resolve_names() == list(runner.REGISTRY)
    assert parallel.resolve_names("all") == list(runner.REGISTRY)
    assert parallel.resolve_names(["fig6", "fig3"]) == ["fig6", "fig3"]
    with pytest.raises(KeyError):
        parallel.resolve_names(["no_such_experiment"])


def test_inline_run_produces_results():
    report = parallel.run_experiments(CHEAP, jobs=1)
    assert [o.name for o in report.outcomes] == CHEAP
    assert all(o.status == "ok" for o in report.outcomes)
    assert all(isinstance(o.result, ExperimentResult) for o in report.outcomes)
    assert report.wall_s > 0
    assert not report.failures


def test_bit_identical_across_jobs_settings():
    serial = parallel.run_experiments(CHEAP, jobs=1)
    pooled = parallel.run_experiments(CHEAP, jobs=4)
    assert payloads(serial) == payloads(pooled)
    assert all(o.status == "ok" for o in pooled.outcomes)


def test_warm_cache_skips_everything(cache):
    cold = parallel.run_experiments(CHEAP, jobs=1, cache=cache)
    assert all(o.status == "ok" for o in cold.outcomes)
    warm = parallel.run_experiments(CHEAP, jobs=1, cache=cache)
    assert all(o.status == "cached" for o in warm.outcomes)
    assert warm.skipped_fraction == 1.0
    assert payloads(cold) == payloads(warm)


def test_cached_results_respect_quick_mode_key(cache):
    parallel.run_experiments(["fig3"], jobs=1, cache=cache, quick=True)
    # Full mode must not be served from the quick-mode entry.
    report = parallel.run_experiments(["fig3"], jobs=1, cache=cache, quick=False)
    assert report.outcomes[0].status == "ok"


def test_no_cache_recomputes(cache):
    parallel.run_experiments(["fig3"], jobs=1, cache=cache)
    report = parallel.run_experiments(["fig3"], jobs=1, cache=None)
    assert report.outcomes[0].status == "ok"


def test_pool_path_writes_cache_and_reuses(cache):
    cold = parallel.run_experiments(CHEAP, jobs=2, cache=cache)
    assert all(o.status == "ok" for o in cold.outcomes)
    warm = parallel.run_experiments(CHEAP, jobs=2, cache=cache)
    assert all(o.status == "cached" for o in warm.outcomes)
    assert payloads(cold) == payloads(warm)


def test_telemetry_ships_back_from_workers():
    report = parallel.run_experiments(
        ["table6"], jobs=2, collect_telemetry=True
    )
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.telemetry is not None
    assert outcome.result.telemetry is not None
    merged = report.merged_metrics()
    assert merged["counters"]  # sampler/sim counters crossed the process
    events = report.merged_trace_events()
    assert events and all("pid" in e for e in events)


class _Sleeper:
    @staticmethod
    def run(quick=True):
        """Sleep far past any test timeout budget."""
        time.sleep(30)


class _Flaky:
    calls = 0

    @staticmethod
    def run(quick=True):
        """Crash on the first call, succeed on the second."""
        _Flaky.calls += 1
        if _Flaky.calls == 1:
            raise RuntimeError("boom")
        return ExperimentResult(
            experiment="flaky", paper_ref="test", rows=[{"a": 1}]
        )


class _Broken:
    @staticmethod
    def run(quick=True):
        """Always crash."""
        raise ValueError("always broken")


@pytest.fixture
def fake_registry(monkeypatch):
    registry = dict(runner.REGISTRY)
    registry["_sleeper"] = (_Sleeper, "test")
    registry["_flaky"] = (_Flaky, "test")
    registry["_broken"] = (_Broken, "test")
    monkeypatch.setattr(runner, "REGISTRY", registry)
    _Flaky.calls = 0


def test_timeout_reported_not_retried(fake_registry):
    report = parallel.run_experiments(["_sleeper"], jobs=1, timeout_s=0.3)
    outcome = report.outcomes[0]
    assert outcome.status == "timeout"
    assert outcome.attempts == 1
    assert outcome.result is None
    assert report.failures == [outcome]


class _SlowButFinishes:
    @staticmethod
    def run(quick=True):
        """Overrun a small budget, but terminate on its own."""
        time.sleep(0.25)
        return ExperimentResult(
            experiment="slow", paper_ref="test", rows=[{"a": 1}]
        )


def test_wall_clock_timeout_without_sigalrm(fake_registry, monkeypatch):
    """With SIGALRM unavailable, an overrun job must not be reported ok."""
    from repro.parallel import engine

    registry = dict(runner.REGISTRY)
    registry["_slow"] = (_SlowButFinishes, "test")
    monkeypatch.setattr(runner, "REGISTRY", registry)
    monkeypatch.setattr(engine, "_alarm_available", lambda: False)
    report = parallel.run_experiments(["_slow"], jobs=1, timeout_s=0.05)
    outcome = report.outcomes[0]
    assert outcome.status == "timeout"
    assert outcome.result is None
    # A job inside its budget is unaffected by the fallback path.
    ok = parallel.run_experiments(["_slow"], jobs=1, timeout_s=30.0)
    assert ok.outcomes[0].status == "ok"


def test_crash_retried_once_then_succeeds(fake_registry):
    report = parallel.run_experiments(["_flaky"], jobs=1)
    outcome = report.outcomes[0]
    assert outcome.status == "ok"
    assert outcome.attempts == 2
    assert outcome.result.experiment == "flaky"


def test_persistent_crash_fails_after_retry(fake_registry):
    report = parallel.run_experiments(["_broken"], jobs=1)
    outcome = report.outcomes[0]
    assert outcome.status == "failed"
    assert outcome.attempts == 2
    assert "always broken" in outcome.error


def test_no_retry_when_disabled(fake_registry):
    report = parallel.run_experiments(["_broken"], jobs=1, retries=0)
    assert report.outcomes[0].attempts == 1


def test_pool_crash_reported():
    # The name exists in the parent but not in the (fresh) worker registry,
    # so the worker raises KeyError on both attempts.
    report = parallel.run_experiments(["fig3"], jobs=2)
    assert report.outcomes[0].status == "ok"  # sanity: pool path healthy


class _FakeBrokenPool:
    """Stand-in executor whose every future dies of BrokenProcessPool."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        future = Future()
        future.set_exception(BrokenProcessPool("worker killed the pool"))
        return future

    def shutdown(self, wait=True):
        pass


def test_pool_rebuild_cap_fails_jobs_loudly(monkeypatch, caplog):
    """A pool-killing job must stop rebuilding after the cap, not spin."""
    import logging

    from repro.parallel import engine

    monkeypatch.setattr(engine, "ProcessPoolExecutor", _FakeBrokenPool)
    monkeypatch.setattr(engine, "MAX_POOL_REBUILDS", 2)
    with caplog.at_level(logging.ERROR, logger="repro.parallel"):
        report = parallel.run_experiments(
            ["fig3", "fig6"], jobs=2, retries=10
        )
    by_name = {o.name: o for o in report.outcomes}
    for name in ("fig3", "fig6"):
        assert by_name[name].status == "failed"
        assert "PoolRebuildLimitError" in by_name[name].error
    # The cap bounds attempts: 1 initial + one resubmission per rebuild.
    assert all(o.attempts <= 3 for o in report.outcomes)
    assert any("consecutive" in r.message for r in caplog.records)


class _FakeFlakyPool:
    """Executor whose pool breaks on scripted (name, attempt) submissions.

    ``fig3`` breaks the pool on its first submission and ``fig6`` on its
    second; ``fig6``'s first future never completes, so the round-1
    breakdown drains it back into the resubmission queue.  Interleaved
    successes must reset the consecutive-rebuild streak, so the run
    finishes clean even with ``MAX_POOL_REBUILDS = 1``.
    """

    submissions = {}

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, *args):
        from concurrent.futures import Future
        from concurrent.futures.process import BrokenProcessPool

        name = args[0]
        counts = _FakeFlakyPool.submissions
        counts[name] = counts.get(name, 0) + 1
        future = Future()
        if name == "fig3" and counts[name] == 1:
            future.set_exception(BrokenProcessPool("boom"))
        elif name == "fig6" and counts[name] == 1:
            pass  # pending; drained by fig3's round-1 breakdown
        elif name == "fig6" and counts[name] == 2:
            future.set_exception(BrokenProcessPool("boom"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True):
        pass


def test_live_results_reset_rebuild_streak(monkeypatch):
    from repro.parallel import engine

    _FakeFlakyPool.submissions = {}
    monkeypatch.setattr(engine, "ProcessPoolExecutor", _FakeFlakyPool)
    monkeypatch.setattr(engine, "MAX_POOL_REBUILDS", 1)
    report = parallel.run_experiments(["fig3", "fig6"], jobs=2, retries=10)
    # Two non-consecutive breakdowns with a success between them: neither
    # trips a cap of 1, and every job eventually completes.
    assert all(o.status == "ok" for o in report.outcomes)


def test_failure_does_not_poison_other_jobs(fake_registry):
    report = parallel.run_experiments(["fig3", "_broken", "fig6"], jobs=1)
    by_name = {o.name: o for o in report.outcomes}
    assert by_name["fig3"].status == "ok"
    assert by_name["fig6"].status == "ok"
    assert by_name["_broken"].status == "failed"
    assert len(report.failures) == 1


def test_report_rendering_and_summary(cache):
    report = parallel.run_experiments(CHEAP, jobs=1, cache=cache)
    text = report.to_text()
    assert "run-all report" in text and "speedup" in text
    summary = report.summary()
    assert summary["counts"] == {"ok": 3}
    assert json.dumps(summary)  # JSON-serializable
    warm = parallel.run_experiments(CHEAP, jobs=1, cache=cache)
    assert "cache: 3 hits" in warm.to_text()
    assert warm.summary()["cache_skipped_fraction"] == 1.0


def test_merge_metric_snapshots():
    a = {
        "counters": {"c": 1.0},
        "gauges": {"g": 5.0},
        "histograms": {"h": {"count": 2, "sum": 4.0, "mean": 2.0, "min": 1.0,
                             "max": 3.0, "p50": 2.0, "p95": 3.0, "p99": 3.0}},
    }
    b = {
        "counters": {"c": 2.0, "d": 1.0},
        "gauges": {"g": 7.0},
        "histograms": {"h": {"count": 2, "sum": 12.0, "mean": 6.0, "min": 5.0,
                             "max": 7.0, "p50": 6.0, "p95": 7.0, "p99": 7.0}},
    }
    merged = parallel.merge_metric_snapshots([a, b])
    assert merged["counters"] == {"c": 3.0, "d": 1.0}
    assert merged["gauges"]["g"] == 7.0
    h = merged["histograms"]["h"]
    assert h["count"] == 4 and h["sum"] == 16.0 and h["mean"] == 4.0
    assert h["min"] == 1.0 and h["max"] == 7.0
    assert h["p50"] == 4.0  # count-weighted average of 2.0 and 6.0


def test_merge_histograms_match_pooled_sample_oracle():
    """Count-weighted histogram merge vs the pooled-sample ground truth.

    Build real log-scale histograms over three shards of one
    distribution (the realistic pool case: every worker runs the same
    workload), merge their snapshots, and compare against exact numpy
    percentiles of the pooled samples.  count/sum/mean/min/max must be
    exact; percentiles within the log-bucket approximation error.
    """
    import numpy as np

    from repro.telemetry.metrics import MetricsRegistry

    rng = np.random.default_rng(7)
    shards = [rng.lognormal(0.0, 1.0, size=n) for n in (500, 2000, 8000)]
    snaps = []
    for shard in shards:
        registry = MetricsRegistry()
        hist = registry.histogram("h")
        for value in shard.tolist():
            hist.observe(value)
        snaps.append(registry.snapshot())
    merged = parallel.merge_metric_snapshots(snaps)["histograms"]["h"]
    pooled = np.concatenate(shards)
    assert merged["count"] == pooled.size
    assert merged["sum"] == pytest.approx(float(pooled.sum()), rel=1e-9)
    assert merged["mean"] == pytest.approx(float(pooled.mean()), rel=1e-9)
    assert merged["min"] == pytest.approx(float(pooled.min()))
    assert merged["max"] == pytest.approx(float(pooled.max()))
    for key in ("p50", "p95", "p99"):
        exact = float(np.percentile(pooled, float(key[1:])))
        assert merged[key] == pytest.approx(exact, rel=0.25), key


def test_merge_histogram_percentiles_weighted_by_count():
    """A tiny shard must not drag the merged percentile toward itself."""
    from repro.telemetry.metrics import MetricsRegistry

    snaps = []
    for value, n in ((1.0, 100), (100.0, 9900)):
        registry = MetricsRegistry()
        registry.histogram("h").observe(value, n=n)
        snaps.append(registry.snapshot())
    merged = parallel.merge_metric_snapshots(snaps)["histograms"]["h"]
    # Pooled p50 is 100.0; an unweighted average of shard medians would
    # report 50.5.  Count weighting lands within 2% of the truth.
    assert merged["p50"] == pytest.approx(100.0, rel=0.02)
    assert merged["count"] == 10_000

