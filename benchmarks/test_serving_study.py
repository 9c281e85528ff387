"""Reproduce the serving study: the latency-throughput curve of one board.

The paper's real-time claim as a service property: served frames are the
offline render bit for bit, light load completes within its SLO, and
overload is absorbed by admission control (shed or degrade) with a
finite tail instead of a collapse.
"""

from helpers import run_and_report
from repro.serve.slo import DEFAULT_TARGETS


def test_serving_study(benchmark):
    result = run_and_report(benchmark, "serving_study", quick=True)
    summary = result.summary
    open_loop = [r for r in result.rows if r["driver"] == "open-loop"]
    assert len(open_loop) >= 3
    rates = [r["offered_hz"] for r in open_loop]
    assert rates == sorted(rates)

    # the closed-loop frames equal the offline render exactly
    assert summary["closed_loop_bit_identical"]

    # the two lowest rates: every request completes, at full quality,
    # and every class meets its SLO; the worst class's p99 stays within
    # the tightest latency target (one 30 FPS frame)
    tightest_ms = min(t.latency_s for t in DEFAULT_TARGETS.values()) * 1e3
    for row in open_loop[:2]:
        assert row["offered"] > 0, row["offered_hz"]
        assert row["completed"] == row["offered"], row["offered_hz"]
        assert row["shed"] == row["rejected"] == row["degraded"] == 0
        assert row["slo_met"], row["offered_hz"]
        assert row["p99_ms"] <= tightest_ms, row["offered_hz"]

    # overload sheds or degrades, and its p99 stays finite
    overload = open_loop[-1]
    assert summary["overload_offered_hz"] == overload["offered_hz"] == max(rates)
    assert summary["overload_shed_or_degraded"]
    assert overload["shed"] + overload["rejected"] + overload["degraded"] > 0
    assert summary["overload_p99_finite"]
    assert summary["overload_p99_ms"] == overload["p99_ms"]
    assert not overload["slo_met"]  # the top rate is past the knee
