"""Percentile rule, quartiles and the verdicts of ``python -m bench compare``."""

import json
import statistics

import pytest

from bench import stats
from bench.__main__ import CATALOG, main
from bench.workloads import MIN_OPS


def test_tail_percentile_needs_ten_samples_beyond():
    assert stats.samples_beyond(100, 90) == 10
    assert stats.samples_beyond(99, 90) == 9
    assert stats.percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError, match="fewer than 10"):
        stats.percentile(list(range(99)), 90)
    assert stats.samples_beyond(20, 50) == 10
    with pytest.raises(ValueError):
        stats.percentile(list(range(19)), 50)


def test_closed_loops_run_enough_operations_for_p90():
    assert stats.samples_beyond(MIN_OPS, 90) >= stats.MIN_BEYOND


def test_quartiles_match_the_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6, 5.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert stats.spread([2.0, 2.0, 2.0]) == 0.0


def test_verdict_same_worse_better():
    base = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(base, [101.0, 102.0, 100.0, 101.5, 100.5], "lower", 0.05) == stats.SAME
    assert stats.verdict(base, [v * 1.2 for v in base], "lower", 0.05) == stats.WORSE
    assert stats.verdict(base, [v * 0.8 for v in base], "lower", 0.05) == stats.BETTER
    assert stats.verdict(base, [v * 1.2 for v in base], "higher", 0.05) == stats.BETTER


def test_identical_runs_are_the_same():
    assert stats.verdict([5.0] * 5, [5.0] * 5, "lower", 0.01) == stats.SAME


def test_spread_wider_than_bound_is_unresolved_unless_separated():
    noisy = [80.0, 100.0, 120.0, 90.0, 110.0]
    overlapping = [85.0, 105.0, 125.0, 95.0, 115.0]
    assert stats.verdict(noisy, overlapping, "lower", 0.05) == stats.UNRESOLVED
    faster = [v - 50.0 for v in noisy]
    assert stats.verdict(noisy, faster, "lower", 0.05) == stats.BETTER
    slower = [v + 50.0 for v in noisy]
    assert stats.verdict(noisy, slower, "lower", 0.05) == stats.WORSE


def test_verdict_rejects_unknown_direction():
    with pytest.raises(ValueError):
        stats.verdict([1.0], [1.0], "up", 0.1)


def _write_runs(path, workload, values):
    with open(path, "w") as fh:
        for value in values:
            record = {"workload": workload, "trace": 0, "metrics": {"setup_s": value}}
            fh.write(json.dumps(record) + "\n")
        traced = {"workload": workload, "trace": 1, "metrics": {"setup_s": 1e9}}
        fh.write(json.dumps(traced) + "\n")


def test_compare_prints_one_row_per_workload_and_metric(tmp_path, capsys):
    workload = CATALOG["workloads"][0]["name"]
    base, change = tmp_path / "base.json", tmp_path / "change.json"
    _write_runs(base, workload, [1.0, 1.6, 0.7, 1.3, 0.9])
    _write_runs(change, workload, [1.1, 1.7, 0.8, 1.2, 0.6])
    assert main(["compare", str(base), str(change)]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert len(rows) == 1
    assert rows[0].split()[:2] == [workload, "setup_s"]
    assert rows[0].endswith(stats.UNRESOLVED)
