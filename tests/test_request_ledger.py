"""The one request ledger and admission front behind serve and fleet."""

import numpy as np
import pytest

from repro import telemetry
from repro.experiments import runner
from repro.fleet import FleetConfig, FleetController
from repro.serve import (
    AdmissionPolicy,
    RenderRequest,
    RenderService,
    RequestLedger,
    ServiceConfig,
    build_demo_registry,
    demo_camera,
    status_bucket,
)

TIERS = ["serve", "fleet"]


def _tier(tier_name, registry, admission=None):
    admission = admission or AdmissionPolicy()
    if tier_name == "serve":
        return RenderService(registry, config=ServiceConfig(admission=admission))
    return FleetController(registry, FleetConfig(admission=admission))


def _drain(tier) -> None:
    """Run to completion, bounded so a ledger regression cannot hang."""
    tier.run(until_s=60.0)


def _request(request_id, scene, arrival_s=0.0, **kwargs):
    return RenderRequest(
        request_id=request_id, scene=scene, camera=demo_camera(8, 8),
        arrival_s=arrival_s, **kwargs,
    )


# -- request ids ---------------------------------------------------------------


@pytest.mark.parametrize("tier_name", TIERS)
def test_second_submit_of_a_pending_id_raises(tier_name):
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    tier = _tier(tier_name, registry)
    first, second = [], []
    tier.submit(_request(0, scene), on_complete=first.append)
    with pytest.raises(ValueError, match="already pending"):
        tier.submit(_request(0, scene, arrival_s=0.001), on_complete=second.append)
    _drain(tier)
    assert [r.request_id for r in first] == [0] and first[0].completed
    assert second == []
    assert len(tier.responses) == 1
    assert sum(tier.slo.status_counts().values()) == 1
    assert tier.accounting() == {
        "offered": 1, "completed": 1, "shed": 0, "failed": 0, "unaccounted": 0,
    }


@pytest.mark.parametrize("tier_name", TIERS)
def test_a_settled_id_may_be_reused(tier_name):
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    tier = _tier(tier_name, registry)
    fired = []
    tier.submit(_request(0, scene), on_complete=fired.append)
    _drain(tier)
    tier.submit(_request(0, "ghost", arrival_s=tier.now_s), on_complete=fired.append)
    _drain(tier)
    assert [r.status for r in fired] == ["completed", "failed_unknown_scene"]
    assert tier.responses[0].status == "failed_unknown_scene"
    accounting = tier.accounting()
    assert accounting["offered"] == 2 and accounting["unaccounted"] == 0


# -- the ledger itself ---------------------------------------------------------


def test_settle_requires_a_pending_request():
    ledger = RequestLedger("serve")
    request = _request(5, "chair")
    with pytest.raises(ValueError, match="not pending"):
        ledger.settle(request, "completed", 1.0)
    ledger.offer(request)
    ledger.settle(request, "completed", 1.0)
    with pytest.raises(ValueError, match="not pending"):
        ledger.settle(request, "failed_unknown_scene", 2.0)
    assert ledger.accounting()["unaccounted"] == 0


@pytest.mark.parametrize("keep_frames", [False, True])
def test_settle_hands_the_callback_a_frame_and_stores_it_only_with_keep_frames(keep_frames):
    ledger = RequestLedger("fleet", keep_frames=keep_frames)
    frame = np.zeros((2, 2, 3), dtype=np.float32)
    seen = []
    with_callback = _request(1, "chair", arrival_s=0.25)
    without_callback = _request(2, "chair")
    ledger.offer(with_callback, seen.append)
    ledger.offer(without_callback)
    ledger.settle(with_callback, "completed", 1.0, frame=frame, served_by=3, via_hedge=True)
    ledger.settle(without_callback, "completed", 1.0, frame=frame)
    (response,) = seen
    assert response.frame is frame
    assert response.latency_s == 0.75
    assert (response.served_by, response.via_hedge) == (3, True)
    assert (ledger.responses[1].frame is frame) == keep_frames
    assert (ledger.responses[2].frame is frame) == keep_frames
    assert ledger.responses[1].served_by == 3


def test_settle_records_outcome_metrics_under_the_tier_prefix():
    ledger = RequestLedger("fleet")
    done, shed = _request(1, "chair"), _request(2, "chair")
    ledger.offer(done)
    ledger.offer(shed)
    with telemetry.session() as tel:
        ledger.settle(done, "completed", 0.5)
        ledger.settle(shed, "shed_overload", 0.5)
        snapshot = tel.metrics.snapshot()
    assert snapshot["counters"]["fleet.requests.completed"] == 1
    assert snapshot["counters"]["fleet.requests.shed_overload"] == 1
    assert snapshot["histograms"]["fleet.latency_s"]["count"] == 1
    assert ledger.slo.status_counts() == {"completed": 1, "shed_overload": 1}
    assert ledger.responses[2].latency_s is None


@pytest.mark.parametrize(
    "status, bucket",
    [
        ("completed", "completed"),
        ("shed_overload", "shed"),
        ("rejected_deadline_expired", "shed"),
        ("rejected_deadline_infeasible", "shed"),
        ("failed_unknown_scene", "failed"),
        ("failed_scene_evicted", "failed"),
        ("failed_rpc_expired", "failed"),
        ("failed_worker_unavailable", "failed"),
    ],
)
def test_status_bucket(status, bucket):
    assert status_bucket(status) == bucket


# -- the admission front -------------------------------------------------------


@pytest.mark.parametrize("tier_name", TIERS)
def test_admission_front_counts_degraded_and_sheds_per_tier(tier_name):
    """A tight ladder degrades, sheds and rejects in both tiers, and
    ``stats()["shed"]`` is the admission count, not the ledger bucket."""
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    policy = AdmissionPolicy(
        max_queue_rays=100, degrade_rays=1, heavy_degrade_rays=50,
    )
    tier = _tier(tier_name, registry, policy)
    for i in range(6):
        tier.submit(_request(i, scene, priority=1))
    tier.submit(_request(6, scene, arrival_s=0.0, deadline_s=0.0))
    with telemetry.session() as tel:
        _drain(tier)
        counters = tel.metrics.snapshot()["counters"]
    stats = tier.stats()
    accounting = tier.accounting()
    assert stats["shed"] == tier.admission.shed > 0
    assert stats["rejected_deadline"] == tier.admission.rejected_deadline == 1
    assert accounting["shed"] == stats["shed"] + stats["rejected_deadline"]
    assert counters[f"{tier_name}.requests.degraded"] == tier.admission.degraded > 0
    assert counters[f"{tier_name}.requests.shed_overload"] == stats["shed"]
    assert accounting["unaccounted"] == 0


# -- reports and the CLI -------------------------------------------------------


@pytest.mark.parametrize("tier_name", TIERS)
def test_report_ends_with_the_ledger_lines(tier_name):
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    tier = _tier(tier_name, registry)
    tier.submit(_request(0, scene))
    tier.submit(_request(1, "ghost"))
    _drain(tier)
    assert tier.report().splitlines()[-2:] == [
        "accounting: offered 2 = completed 1 + shed 0 + failed 1",
        "unaccounted requests: 0",
    ]


def test_runner_serve_smoke_prints_a_balanced_ledger(capsys):
    code = runner.main(["serve", "--smoke"])
    out = capsys.readouterr().out
    assert code == 0
    assert "unaccounted requests: 0" in out
    assert out.count("accounting: offered") == 1
