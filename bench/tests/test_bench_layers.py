"""Self-time arithmetic, the class-level wrappers, and the metric catalog."""

import pytest

from bench import layers
from bench.__main__ import CATALOG, OVERHEAD_METRICS, end_to_end
from bench.workloads import WORKLOADS, Outcome
from repro.telemetry.tracing import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _nested_spans():
    """timed [0,10] > a [1,5] > b [2,3]; timed > sim [6,9] > sim [7,8]; stray [11,12]."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.span(layers.TIMED):
        clock.now = 1.0
        with tracer.span("a"):
            clock.now = 2.0
            with tracer.span("b"):
                clock.now = 3.0
            clock.now = 5.0
        clock.now = 6.0
        with tracer.span("sim"):
            clock.now = 7.0
            with tracer.span("sim"):
                clock.now = 8.0
            clock.now = 9.0
        clock.now = 10.0
    clock.now = 11.0
    with tracer.span("stray"):
        clock.now = 12.0
    return tracer.finished


def test_self_time_subtracts_child_spans():
    stats = layers.layer_stats(_nested_spans(), layers.TIMED)
    assert set(stats) == {layers.TIMED, "a", "b", "sim"}
    assert stats[layers.TIMED].busy_s == pytest.approx(10.0)
    assert stats[layers.TIMED].self_s == pytest.approx(3.0)
    assert (stats["a"].busy_s, stats["a"].self_s) == pytest.approx((4.0, 3.0))
    assert (stats["b"].busy_s, stats["b"].self_s) == pytest.approx((1.0, 1.0))


def test_a_layer_nested_in_itself_counts_once():
    sim = layers.layer_stats(_nested_spans(), layers.TIMED)["sim"]
    assert sim.calls == 1
    assert sim.busy_s == pytest.approx(3.0)
    assert sim.self_s == pytest.approx(3.0)


def test_self_times_add_up_to_the_phase_wall_time():
    stats = layers.layer_stats(_nested_spans(), layers.TIMED)
    assert sum(s.self_s for s in stats.values()) == pytest.approx(stats[layers.TIMED].busy_s)
    rows = layers.table(_nested_spans())
    assert rows[0]["layer"] == layers.TIMED
    assert sum(r["self_ms"] for r in rows) == pytest.approx(10e3)


def test_repeated_roots_are_summed():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    for start in (0.0, 10.0):
        clock.now = start
        with tracer.span(layers.SETUP):
            clock.now = start + 2.0
    assert layers.layer_stats(tracer.finished, layers.SETUP)[layers.SETUP].busy_s == pytest.approx(4.0)


class Probe:
    def work(self, n):
        return list(range(n))

    def fail(self):
        raise RuntimeError("boom")


def test_wrapper_records_only_inside_a_phase_and_keeps_counts():
    recorder = layers.LayerRecorder()
    calls = [(Probe, "work", "probe", lambda args, result: {"items": len(result)})]
    with layers.installed(recorder, calls):
        assert Probe().work(3) == [0, 1, 2]
        with recorder.phase(layers.TIMED):
            Probe().work(4)
            Probe().work(5)
    stats = layers.layer_stats(recorder.tracer.finished, layers.TIMED)
    assert stats["probe"].calls == 2
    assert stats["probe"].counts == {"items": 9}


def test_wrappers_restore_originals_by_identity_even_when_the_workload_raises():
    recorder = layers.LayerRecorder()
    original_work, original_fail = Probe.__dict__["work"], Probe.__dict__["fail"]
    with pytest.raises(RuntimeError, match="boom"):
        with layers.installed(recorder, [(Probe, "work", "p", None), (Probe, "fail", "p", None)]):
            assert Probe.__dict__["work"] is not original_work
            with recorder.phase(layers.TIMED):
                Probe().fail()
    assert Probe.__dict__["work"] is original_work
    assert Probe.__dict__["fail"] is original_fail
    assert not recorder.active


def test_every_program_call_is_restored():
    def originals():
        return [cls.__dict__[method] for cls, method, _, _ in layers.layer_calls()]

    before = originals()
    with pytest.raises(KeyError):
        with layers.installed(layers.LayerRecorder()):
            assert all(a is not b for a, b in zip(before, originals()))
            raise KeyError("workload failed")
    assert all(a is b for a, b in zip(before, originals()))


def test_metric_names_match_the_catalog():
    assert [w["name"] for w in CATALOG["workloads"]] == list(WORKLOADS)
    outcome = Outcome(
        attempted=200, failed=0, good=190, setup_s=[0.1, 0.2, 0.3],
        latency_ms=[float(i) for i in range(200)], busy_s=4.0, checks={},
    )
    metrics, samples = end_to_end(outcome, 50.0)
    assert set(metrics) == set(samples) == {m["name"] for m in CATALOG["end_to_end"]}
    per_layer = set(layers.per_layer_metrics([], {}))
    per_layer |= {f"overhead.{name}" for name in OVERHEAD_METRICS}
    assert per_layer == {m["name"] for m in CATALOG["per_layer"]}
    assert set(OVERHEAD_METRICS) <= set(metrics)


def test_catalog_stays_within_its_limits():
    assert set(CATALOG) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert any(m["name"] == "setup_s" and m["unit"] == "s" for m in CATALOG["end_to_end"])
    for metric in CATALOG["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup_bound = next(m["bound"] for m in CATALOG["end_to_end"] if m["name"] == "setup_s")
    assert setup_bound == max(m["bound"] for m in CATALOG["end_to_end"])
    for metric in CATALOG["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
