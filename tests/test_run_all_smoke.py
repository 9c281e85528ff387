"""CI smoke: the documented `run-all` / `cache` CLI flows really run.

Mirrors the CI smoke job (.github/workflows/ci.yml): three cheap
experiments through ``run-all --jobs 2`` against a temporary cache,
then a warm rerun, then cache maintenance.
"""

import json

import pytest

from repro.experiments import runner

CHEAP = ["fig3", "fig6", "table1"]


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def test_run_all_smoke_cold_then_warm(capsys, cache_dir):
    argv = ["run-all", *CHEAP, "--jobs", "2", "--cache-dir", cache_dir]
    assert runner.main(argv) == 0
    out = capsys.readouterr().out
    assert "run-all report" in out
    assert out.count("ok") >= 3
    # Warm rerun: everything served from cache.
    assert runner.main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("cached") >= 3
    assert "cache: 3 hits" in out


def test_run_all_json_document(capsys, cache_dir):
    argv = [
        "run-all", *CHEAP, "--jobs", "1", "--cache-dir", cache_dir, "--json",
    ]
    assert runner.main(argv) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["results"]) == set(CHEAP)
    assert payload["report"]["counts"] == {"ok": 3}
    assert payload["report"]["jobs"] == 1


def test_run_all_no_cache(capsys, cache_dir):
    argv = ["run-all", "fig3", "--jobs", "1", "--no-cache"]
    assert runner.main(argv) == 0
    assert runner.main(argv) == 0  # still recomputes, still fine
    out = capsys.readouterr().out
    assert "cached" not in out


def test_run_all_trace_out_and_metrics(capsys, cache_dir, tmp_path):
    trace_path = tmp_path / "merged_trace.json"
    argv = [
        "run-all", "table6", "--jobs", "1", "--no-cache",
        "--metrics", "--trace-out", str(trace_path),
    ]
    assert runner.main(argv) == 0
    out = capsys.readouterr().out
    assert "metrics" in out
    document = json.loads(trace_path.read_text())
    assert document["traceEvents"]


def test_cache_info_and_clear(capsys, cache_dir):
    assert runner.main(
        ["run-all", "fig3", "--jobs", "1", "--cache-dir", cache_dir]
    ) == 0
    capsys.readouterr()
    assert runner.main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "results" in out and "1 entries" in out
    assert runner.main(["cache", "clear", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "removed 1" in out
    assert runner.main(["cache", "info", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "0 entries" in out


def test_run_all_unknown_name_fails_cleanly(capsys, cache_dir):
    with pytest.raises(KeyError):
        runner.main(["run-all", "definitely_not_real", "--no-cache"])


@pytest.mark.parametrize("quiet", [False, True])
def test_run_all_json_is_parseable_with_a_fleet_experiment(capsys, cache_dir, quiet):
    """``fleet_churn`` warns on every rebalance: the warnings go to
    stderr and stdout holds the JSON document alone, ``--quiet`` or not."""
    argv = [
        "run-all", "fleet_churn", "fig3", "--jobs", "1", "--no-cache", "--json",
        *(["--quiet"] if quiet else []),
    ]
    assert runner.main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    assert set(payload["results"]) == {"fleet_churn", "fig3"}
    assert payload["report"]["counts"] == {"ok": 2}
    assert "fleet rebalance: worker" in captured.err
