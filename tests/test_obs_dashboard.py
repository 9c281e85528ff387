"""Ops dashboard rendering (:mod:`repro.obs.dashboard`).

The renderer is a pure function of published snapshots, so most tests
feed synthetic histories and assert on the text; one end-to-end test
drives the real demo service through ``run_demo_ops`` and the
``runner top`` / ``runner plan`` CLI paths.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments import runner
from repro.obs import render_dashboard
from repro.obs.dashboard import sparkline, window


# -- dashboard rendering ---------------------------------------------------


def _snap(t_s, completed, cycles, queued=0.0):
    return {
        "t_s": t_s,
        "counters": {
            "serve.requests.completed": completed,
            "sim.sampling.cycles": cycles,
            "sim.total_cycles": 2 * cycles,  # excluded from module table
        },
        "gauges": {
            "serve.queue.rays": queued,
            "serve.registry.scenes": 2.0,
            "serve.utilization": 0.5,
        },
        "histograms": {
            "serve.batch.rays": {
                "count": int(completed), "sum": 256.0 * completed,
                "mean": 256.0, "min": 256.0, "max": 256.0,
                "p50": 256.0, "p95": 256.0, "p99": 256.0,
            },
        },
    }


def test_render_dashboard_differentiates_counter_rates():
    history = [_snap(0.0, 0.0, 0.0), _snap(2.0, 100.0, 2e6, queued=64.0)]
    text = render_dashboard(history)
    assert "window=2.00s over 2 snapshot(s)" in text
    assert "completed 50.0/s" in text  # (100 - 0) / 2 s
    assert "1.00M cyc/s" in text  # (2e6 - 0) / 2 s
    assert "queued rays: 64" in text
    assert "scenes deployed: 2" in text
    assert "board util: 50%" in text
    assert "sim.total_cycles" not in text  # pipelined total, not a module


def test_render_dashboard_single_snapshot_shows_totals():
    text = render_dashboard([_snap(1.0, 10.0, 1000.0)])
    assert "over 1 snapshot(s)" in text
    assert "completed 10" in text  # totals, not rates
    with pytest.raises(ValueError):
        window([])


def test_render_dashboard_slo_section_tolerates_empty_class():
    slo = {
        "schema": 1,
        "completed": 1,
        "statuses": {"completed": 1},
        "classes": [
            {"priority": 0, "name": "interactive", "completed": 1,
             "p50_s": 0.005, "p99_s": 0.006, "target_s": 0.033,
             "attained": 1.0, "required": 0.99, "slo_met": True},
            {"priority": 2, "name": "batch", "completed": 0,
             "p50_s": None, "p99_s": None, "target_s": 1.0,
             "attained": None, "required": 0.5, "slo_met": False},
        ],
    }
    text = render_dashboard([_snap(1.0, 1.0, 1.0)], slo=slo)
    assert "slo attainment" in text
    assert "interactive" in text and "batch" in text
    assert "terminal: completed=1" in text


def test_render_dashboard_online_panel():
    online = {
        "scene": "mic",
        "frames_ingested": 12,
        "generations": 3,
        "psnr_trend": [11.0, 14.5, 17.2],
        "last_psnr_db": 17.2,
        "target_psnr_db": 16.0,
        "time_to_target_s": 1.25,
        "steps_total": 120,
        "steps_per_s": 80.0,
        "rollbacks": 0,
    }
    text = render_dashboard([_snap(1.0, 1.0, 1.0)], online=online)
    assert "online reconstruction" in text
    assert "scene: mic" in text
    assert "generations deployed: 3" in text
    assert "psnr: 17.20 dB (target 16.0 dB, reached at t=1.25s)" in text
    assert "trend" in text
    # target not reached yet renders without a time
    not_there = dict(online, time_to_target_s=None, last_psnr_db=12.0)
    assert "not reached" in render_dashboard(
        [_snap(1.0, 1.0, 1.0)], online=not_there
    )
    # and the panel is absent unless a session is supplied
    assert "online reconstruction" not in render_dashboard(
        [_snap(1.0, 1.0, 1.0)]
    )


def test_sparkline_shape():
    assert sparkline([]) == ""
    assert len(sparkline([1.0, 2.0, 3.0])) == 3
    assert sparkline([5.0, 5.0]) == "▄▄"  # flat series, mid glyph
    line = sparkline(list(range(30)), width=12)
    assert len(line) == 12
    assert line[0] == "▁" and line[-1] == "█"


# -- end to end ------------------------------------------------------------


def test_run_demo_ops_feeds_renderable_history():
    from repro.obs import run_demo_ops

    history, slo, stats = run_demo_ops(
        rate_hz=150.0, duration_s=0.4, n_scenes=1, probe=8,
        hw_scale=100.0, interval_s=0.05,
    )
    assert len(history) >= 2
    assert slo["schema"] == 1 and slo["completed"] > 0
    text = render_dashboard(history, slo=slo)
    assert "fusion3d ops dashboard" in text
    assert "slo attainment" in text
    assert stats["completed"] == slo["statuses"]["completed"]


def test_cli_top_snapshot_mode(capsys):
    code = runner.main(
        ["top", "--snapshot", "--rate", "150", "--duration", "0.4",
         "--scenes", "1", "--probe", "8", "--hw-scale", "100"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("fusion3d ops dashboard") == 1  # single frame
    assert "slo attainment" in out


def test_cli_top_replay_prints_multiple_frames(capsys):
    code = runner.main(
        ["top", "--rate", "150", "--duration", "0.4", "--scenes", "1",
         "--probe", "8", "--hw-scale", "100", "--interval", "0.02"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("fusion3d ops dashboard") > 1


def test_cli_plan_from_saved_model(tmp_path, capsys):
    from repro.obs import FittedStat, SceneCostModel

    model = SceneCostModel(
        scene="chair",
        sim_s_per_ray=FittedStat.fit([1e-6, 1.1e-6]),
        meta={"rays_per_frame": 256},
    )
    path = str(tmp_path / "model.json")
    model.save(path)
    code = runner.main(
        ["plan", "--model", path, "--rate", "500", "--slo-ms", "10"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "plan: FEASIBLE" in out
    # Same plan as JSON.
    assert runner.main(
        ["plan", "--model", path, "--rate", "500", "--slo-ms", "10",
         "--json"]
    ) == 0
    out = capsys.readouterr().out
    payload = json.loads(out[out.index("{"):])  # skip the info log line
    assert payload["plan"]["feasible"] is True
    assert payload["model"]["schema"] == 1


def test_cli_plan_infeasible_exit_code(tmp_path, capsys):
    from repro.obs import FittedStat, SceneCostModel

    model = SceneCostModel(
        scene="chair",
        sim_s_per_ray=FittedStat.fit([1.0]),  # 1 s/ray: hopeless
        meta={"rays_per_frame": 256},
    )
    path = str(tmp_path / "model.json")
    model.save(path)
    code = runner.main(
        ["plan", "--model", path, "--rate", "500", "--slo-ms", "10"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "plan: INFEASIBLE" in out
