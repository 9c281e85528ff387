"""The telemetry subsystem: tracing, metrics, and integration.

Covers the acceptance surface of the observability PR: span nesting and
thread safety, log-scale histogram percentiles, hook dispatch order,
NullTracer no-op behaviour (including bit-identical training), the
Chrome-trace JSON schema, and the end-to-end wiring through the
experiment runner.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro import telemetry
from repro.experiments import runner
from repro.experiments.base import ExperimentResult
from repro.nerf.model import InstantNGPModel
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.telemetry.metrics import Histogram, MetricsRegistry
from repro.telemetry.tracing import NULL_TRACER, Tracer


@pytest.fixture(autouse=True)
def _restore_telemetry():
    """Every test leaves the process-wide session disabled."""
    yield
    telemetry.disable()


# -- tracing ---------------------------------------------------------------


def test_span_nesting_records_parents():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("middle"):
            with tracer.span("inner"):
                pass
        with tracer.span("sibling"):
            pass
    by_name = {s.name: s for s in tracer.finished}
    assert by_name["outer"].parent is None
    assert by_name["middle"].parent is by_name["outer"]
    assert by_name["inner"].parent is by_name["middle"]
    assert by_name["sibling"].parent is by_name["outer"]
    assert by_name["inner"].depth == 2
    # Completion order: innermost exits first.
    assert [s.name for s in tracer.finished] == [
        "inner", "middle", "sibling", "outer",
    ]
    # Children are contained in the parent's wall-clock interval.
    outer, inner = by_name["outer"], by_name["inner"]
    assert outer.start_s <= inner.start_s
    assert inner.duration_s <= outer.duration_s


def test_tracer_is_thread_safe():
    tracer = Tracer()
    barrier = threading.Barrier(4)

    def work():
        barrier.wait()  # overlap all threads so idents can't be reused
        for _ in range(50):
            with tracer.span("worker"):
                with tracer.span("nested"):
                    pass

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    spans = tracer.finished
    assert len(spans) == 4 * 50 * 2
    assert len({s.tid for s in spans}) == 4
    # Per-thread stacks: every nested span's parent lives on its thread.
    for span in spans:
        if span.name == "nested":
            assert span.parent.name == "worker"
            assert span.parent.tid == span.tid


def test_chrome_trace_schema():
    tracer = Tracer()
    with tracer.span("a", detail="x"):
        with tracer.span("b"):
            pass
    doc = tracer.to_chrome_trace()
    assert set(doc) == {"traceEvents", "displayTimeUnit"}
    assert len(doc["traceEvents"]) == 2
    for event in doc["traceEvents"]:
        assert event["ph"] == "X"
        assert isinstance(event["name"], str)
        for key in ("ts", "dur"):
            assert isinstance(event[key], float) and event[key] >= 0.0
        assert isinstance(event["pid"], int)
        assert isinstance(event["tid"], int)
    args = {e["name"]: e.get("args") for e in doc["traceEvents"]}
    assert args["a"] == {"detail": "x"}
    # The document round-trips through JSON.
    json.loads(json.dumps(doc))


def test_write_chrome_trace(tmp_path):
    tracer = Tracer()
    with tracer.span("only"):
        pass
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(str(path))
    doc = json.loads(path.read_text())
    assert doc["traceEvents"][0]["name"] == "only"


def test_null_tracer_is_noop():
    span = NULL_TRACER.span("anything", key="value")
    assert NULL_TRACER.span("other") is span  # shared singleton
    with span:
        pass
    assert NULL_TRACER.finished == []
    assert NULL_TRACER.aggregate() == {}
    assert NULL_TRACER.to_chrome_trace()["traceEvents"] == []
    assert not NULL_TRACER.enabled


def test_aggregate_totals():
    tracer = Tracer()
    for _ in range(3):
        with tracer.span("repeated"):
            pass
    agg = tracer.aggregate()
    assert agg["repeated"]["count"] == 3
    assert agg["repeated"]["total_s"] >= 0.0
    assert agg["repeated"]["mean_s"] == pytest.approx(
        agg["repeated"]["total_s"] / 3
    )


# -- metrics ---------------------------------------------------------------


def test_counter_and_gauge():
    registry = MetricsRegistry()
    registry.counter("c").inc()
    registry.counter("c").inc(2.5)
    registry.gauge("g").set(4.0)
    registry.gauge("g").inc(1.0)
    snap = registry.snapshot()
    assert snap["counters"]["c"] == pytest.approx(3.5)
    assert snap["gauges"]["g"] == pytest.approx(5.0)
    with pytest.raises(ValueError):
        registry.counter("c").inc(-1.0)
    with pytest.raises(ValueError):
        registry.gauge("c")  # name already taken by a Counter


def test_histogram_percentiles_log_scale():
    hist = Histogram("h")
    rng = np.random.default_rng(0)
    values = rng.lognormal(mean=0.0, sigma=2.0, size=20_000)
    for value in values.tolist():
        hist.observe(value)
    for q in (50.0, 95.0, 99.0):
        exact = float(np.percentile(values, q))
        assert hist.percentile(q) == pytest.approx(exact, rel=0.15), q
    summ = hist.summary()
    assert summ["count"] == 20_000
    assert summ["mean"] == pytest.approx(float(values.mean()), rel=1e-9)
    assert summ["min"] == pytest.approx(float(values.min()))
    assert summ["max"] == pytest.approx(float(values.max()))
    assert summ["p50"] <= summ["p95"] <= summ["p99"]


def test_histogram_edge_cases():
    hist = Histogram("h")
    assert hist.percentile(50.0) == 0.0
    assert hist.summary()["count"] == 0
    hist.observe(0.0)  # underflow bucket
    hist.observe(5.0, n=3)  # weighted observation
    assert hist.count == 4
    assert hist.sum == pytest.approx(15.0)
    assert hist.percentile(0.0) == 0.0
    assert hist.percentile(100.0) == pytest.approx(5.0, rel=0.10)
    with pytest.raises(ValueError):
        hist.percentile(101.0)


def test_histogram_empty_percentiles_defined():
    """Empty histogram: every quantile is 0.0, never NaN or a crash."""
    hist = Histogram("h")
    for q in (0.0, 50.0, 95.0, 99.0, 100.0):
        value = hist.percentile(q)
        assert value == 0.0 and value == value  # defined, not NaN
    summ = hist.summary()
    assert summ == {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}


def test_histogram_single_sample_percentiles_exact():
    """One observation: p50/p95/p99 all report that exact value, not a
    bucket-midpoint estimate the histogram never saw."""
    hist = Histogram("h")
    hist.observe(3.7)
    for q in (0.0, 50.0, 95.0, 99.0, 100.0):
        assert hist.percentile(q) == pytest.approx(3.7, abs=0.0)
    summ = hist.summary()
    assert summ["p50"] == summ["p95"] == summ["p99"] == pytest.approx(3.7)


def test_histogram_identical_population_percentiles_exact():
    """Many identical observations behave like the single-sample case."""
    hist = Histogram("h")
    hist.observe(0.25, n=1000)
    for q in (50.0, 95.0, 99.0):
        assert hist.percentile(q) == pytest.approx(0.25, abs=0.0)


def test_histogram_underflow_population_clamped():
    """All-underflow observations never report a value outside [min, max]."""
    hist = Histogram("h")
    hist.observe(0.0, n=5)
    assert hist.percentile(50.0) == 0.0
    hist2 = Histogram("h2")
    hist2.observe(-2.0)
    hist2.observe(-1.0)
    p50 = hist2.percentile(50.0)
    assert hist2.min <= p50 <= hist2.max


def test_histogram_rejects_non_finite():
    hist = Histogram("h")
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            hist.observe(bad)
    assert hist.count == 0


def test_snapshot_publisher_throttles_on_interval():
    from repro.telemetry.metrics import SnapshotPublisher

    registry = MetricsRegistry()
    pub = SnapshotPublisher(registry, interval_s=1.0, capacity=8)
    registry.counter("c").inc()
    assert pub.maybe_publish(now_s=0.0) is not None  # first always fires
    assert pub.maybe_publish(now_s=0.5) is None  # within interval
    registry.counter("c").inc()
    snap = pub.maybe_publish(now_s=1.0)
    assert snap is not None and snap["counters"]["c"] == 2.0
    assert [s["t_s"] for s in pub.history()] == [0.0, 1.0]
    assert len(pub) == 2
    pub.clear()
    assert pub.history() == [] and len(pub) == 0


def test_snapshot_publisher_ring_buffer_bounds_memory():
    from repro.telemetry.metrics import SnapshotPublisher

    registry = MetricsRegistry()
    pub = SnapshotPublisher(registry, interval_s=1.0, capacity=4)
    for i in range(10):
        pub.publish(now_s=float(i))
    assert len(pub) == 4
    assert [s["t_s"] for s in pub.history()] == [6.0, 7.0, 8.0, 9.0]


def test_attach_publisher_requires_enabled_session():
    with pytest.raises(ValueError):
        telemetry.TelemetrySession(enabled=False).attach_publisher()
    with telemetry.session() as tel:
        pub = tel.attach_publisher(interval_s=0.5)
        assert tel.publisher is pub


def test_serve_publishes_snapshots_on_service_clock():
    """The render service drives the publisher with simulated time."""
    from repro.serve import (
        RenderService,
        build_demo_registry,
        demo_camera,
        run_open_loop,
    )

    with telemetry.session() as tel:
        publisher = tel.attach_publisher(interval_s=0.05)
        registry = build_demo_registry(n_scenes=1)
        service = RenderService(registry)
        run_open_loop(
            service,
            [s["name"] for s in registry.scenes()],
            rate_hz=200.0,
            duration_s=0.5,
            camera=demo_camera(8, 8),
            rng=np.random.default_rng(0),
        )
        history = publisher.history()
    assert len(history) >= 2
    times = [s["t_s"] for s in history]
    assert times == sorted(times)  # service clock, monotone
    assert all(
        "serve.requests.completed" in s["counters"] for s in history[1:]
    )


def test_null_registry_is_noop():
    null = telemetry.NULL_METRICS
    null.counter("x").inc(5)
    null.gauge("y").set(1.0)
    null.histogram("z").observe(2.0)
    assert null.snapshot() == {"counters": {}, "gauges": {}, "histograms": {}}
    assert null.names() == []


# -- simulator metrics -------------------------------------------------------


def test_chip_counts_module_cycles(sample_trace):
    """Each simulated module reports its cycles as a counter."""
    from repro.sim.chip import SingleChipAccelerator

    with telemetry.session() as tel:
        report = SingleChipAccelerator().simulate(sample_trace)
    counters = tel.metrics.snapshot()["counters"]
    for name, stage in zip(
        ("sampling", "interpolation", "post-processing"), report.stages
    ):
        assert counters[f"sim.{name}.cycles"] == stage.cycles > 0, name


# -- session management ----------------------------------------------------


def test_session_scoping_restores_previous():
    assert not telemetry.enabled()
    with telemetry.session() as tel:
        assert telemetry.enabled()
        assert telemetry.get_session() is tel
        assert telemetry.get_tracer() is tel.tracer
    assert not telemetry.enabled()
    assert telemetry.get_tracer() is NULL_TRACER


def test_enable_disable_roundtrip():
    tel = telemetry.enable()
    assert telemetry.get_session() is tel
    tel.metrics.counter("x").inc()
    assert tel.summary()["metrics"]["counters"]["x"] == 1.0
    telemetry.disable()
    assert telemetry.get_metrics() is telemetry.NULL_METRICS


# -- disabled-path purity --------------------------------------------------


def test_training_bit_identical_with_and_without_telemetry(mic_dataset,
                                                           tiny_model_config):
    config = TrainerConfig(
        batch_rays=64, lr=5e-3, max_samples_per_ray=16,
        occupancy_resolution=16, occupancy_interval=4,
    )

    def losses(enabled: bool) -> list:
        model = InstantNGPModel(tiny_model_config, seed=0)
        trainer = Trainer(
            model, mic_dataset.cameras, mic_dataset.images,
            mic_dataset.normalizer, config,
        )
        if enabled:
            with telemetry.session():
                trainer.train(6)
        else:
            trainer.train(6)
        return trainer.state.losses

    baseline = losses(enabled=False)
    instrumented = losses(enabled=True)
    assert baseline == instrumented  # bit-identical, not approx


def test_trainer_records_metrics(tiny_trainer):
    with telemetry.session() as tel:
        tiny_trainer.train(4)
        snap = tel.metrics.snapshot()
    assert snap["counters"]["trainer.iterations"] == 4.0
    assert snap["counters"]["trainer.rays"] == 4.0 * tiny_trainer.config.batch_rays
    assert snap["counters"]["trainer.samples"] > 0
    assert snap["gauges"]["trainer.loss"] > 0.0
    assert snap["histograms"]["trainer.step_s"]["count"] == 4
    assert snap["histograms"]["sampler.samples_per_ray"]["count"] > 0
    assert 0.0 <= snap["gauges"]["sampler.early_termination_rate"] <= 1.0
    spans = tel.tracer.aggregate()
    for name in ("trainer.train_step", "trainer.forward", "trainer.backward",
                 "trainer.optimizer_step", "sampler.march"):
        assert spans[name]["count"] >= 4, name


# -- experiment integration ------------------------------------------------


def test_table3_emits_per_module_cycle_metrics():
    with telemetry.session() as tel:
        runner.run_experiment("table3", quick=True)
        snap = tel.metrics.snapshot()
    for module in ("sampling", "interpolation", "post-processing"):
        assert snap["counters"][f"sim.{module}.cycles"] > 0.0, module
    assert snap["counters"]["sim.total_cycles"] > 0.0
    assert 0.0 < snap["gauges"]["sim.stage_overlap_efficiency"] <= 1.0
    breakdown = runner.format_breakdown(tel.summary())
    assert "interpolation" in breakdown
    assert "stage-overlap efficiency" in breakdown


def test_multichip_telemetry(sample_trace):
    from repro.sim.multichip import MultiChipConfig, MultiChipSystem

    system = MultiChipSystem(MultiChipConfig(n_chips=2))
    with telemetry.session() as tel:
        system.simulate([sample_trace, sample_trace])
        snap = tel.metrics.snapshot()
    assert snap["gauges"]["multichip.chiplet0.utilization"] > 0.0
    assert snap["gauges"]["multichip.imbalance"] >= 1.0
    assert snap["counters"]["multichip.interconnect.moe_bytes"] > 0.0
    assert snap["gauges"]["multichip.interconnect.comm_saving"] > 0.9


def test_hash_tiling_conflict_metrics(sample_trace):
    from repro.sim.hash_tiling import compare_tilings

    with telemetry.session() as tel:
        compare_tilings(sample_trace.vertex_corners, sample_trace.vertex_indices)
        snap = tel.metrics.snapshot()
    assert snap["counters"]["sram.baseline.bank_conflicts"] > 0.0
    assert snap["counters"]["sram.two-level-tiling.bank_conflicts"] == 0.0
    assert snap["counters"]["sram.baseline.requests"] > 0.0


# -- runner CLI + result plumbing ------------------------------------------


def test_cli_run_trace_out_writes_valid_chrome_trace(tmp_path, capsys):
    path = tmp_path / "trace.json"
    assert runner.main(["run", "table3", "--trace-out", str(path),
                        "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "wrote Chrome trace" in out
    assert "counter" in out  # --metrics snapshot printed
    doc = json.loads(path.read_text())
    names = {event["name"] for event in doc["traceEvents"]}
    assert {"sampling", "interpolation", "post-processing"} <= names
    for event in doc["traceEvents"]:
        assert event["ph"] == "X"
        assert event["dur"] >= 0.0
    assert not telemetry.enabled()  # runner restored the disabled default


def test_cli_report_prints_breakdown(capsys):
    assert runner.main(["report", "table3"]) == 0
    out = capsys.readouterr().out
    assert "per-module breakdown" in out
    assert "interpolation" in out
    assert "pipelined total cycles" in out


def test_cli_quiet_suppresses_output(capsys):
    assert runner.main(["list", "--quiet"]) == 0
    assert capsys.readouterr().out == ""
    assert runner.main(["list"]) == 0
    assert "table3" in capsys.readouterr().out


def test_result_telemetry_section_serializes():
    with telemetry.session() as tel:
        tel.metrics.counter("sim.sampling.cycles").inc(10.0)
        with tel.tracer.span("sampling"):
            pass
        result = ExperimentResult(
            experiment="x", paper_ref="Table X", rows=[{"a": 1.0}],
            telemetry=tel.summary(),
        )
    payload = json.loads(result.to_json())
    assert payload["telemetry"]["metrics"]["counters"]["sim.sampling.cycles"] == 10.0
    assert payload["telemetry"]["spans"]["sampling"]["count"] == 1
    # Without telemetry the key is absent, as before this PR.
    bare = ExperimentResult(experiment="x", paper_ref="y", rows=[])
    assert "telemetry" not in json.loads(bare.to_json())


def test_to_json_cleans_nested_nan_and_inf():
    nan, inf = float("nan"), float("inf")
    result = ExperimentResult(
        experiment="x",
        paper_ref="y",
        rows=[{"flat": nan, "nested": [1.0, nan, {"deep": inf}]}],
        summary={"flat": nan, "list": [nan, -inf], "np": np.float64("nan")},
    )
    payload = json.loads(result.to_json())  # must not raise / emit NaN
    assert payload["rows"][0]["flat"] is None
    assert payload["rows"][0]["nested"][1] is None
    assert payload["rows"][0]["nested"][2]["deep"] == "inf"
    assert payload["summary"]["flat"] is None
    assert payload["summary"]["list"] == [None, "-inf"]
    assert payload["summary"]["np"] is None
