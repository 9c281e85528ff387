"""The one cost estimator behind deadline admission in serve and fleet.

Unit rules of :class:`repro.serve.admission.CostEstimator` (the
per-key EWMA, the generation rule), then seeded sweeps driving both
tiers through a costlier hot-swap, each ending in the one exactly-once
check both tiers share.
"""

from collections import Counter

import numpy as np
import pytest

from repro.fleet import FleetConfig, FleetController
from repro.nerf.occupancy import OccupancyGrid
from repro.serve import RenderRequest, RenderService, build_demo_registry, demo_camera
from repro.serve.admission import EWMA_ALPHA, AdmissionController, CostEstimator
from repro.serve.loadgen import demo_model

KEY = ("chair", "ngp", "full")


# -- the EWMA and the generation rule --------------------------------------------


def test_same_generation_blends_by_ewma_alpha():
    estimator = CostEstimator()
    estimator.observe(KEY, 2, 1e-6)
    estimator.observe(KEY, 2, 2e-6)
    expected = EWMA_ALPHA * 2e-6 + (1 - EWMA_ALPHA) * 1e-6
    assert estimator.estimate(KEY, 2) == expected
    assert estimator.reblends == 0


def test_newer_generation_snaps_and_counts_a_reblend():
    estimator = CostEstimator()
    estimator.observe(KEY, 1, 1e-6)
    # a stale estimate still serves the new generation's admission
    assert estimator.estimate(KEY, 2) == 1e-6
    estimator.observe(KEY, 2, 5e-6)
    assert estimator.estimate(KEY, 2) == 5e-6
    assert estimator.reblends == 1
    # the new generation's later observations blend again
    estimator.observe(KEY, 2, 1e-6)
    assert estimator.estimate(KEY, 2) == EWMA_ALPHA * 1e-6 + (1 - EWMA_ALPHA) * 5e-6
    assert estimator.stats()["ewma_reblends"] == 1


def test_older_generation_observation_is_dropped():
    estimator = CostEstimator()
    estimator.observe(KEY, 2, 5e-6)
    estimator.observe(KEY, 1, 1e-6)  # a request still draining after a swap
    assert estimator.estimate(KEY, 2) == 5e-6
    assert estimator.reblends == 0


# -- both tiers, seeded sweep ----------------------------------------------------


#: Billing scale putting a 64-ray probe near a millisecond of board time,
#: so the sweep's deadlines straddle what admission can promise.
HW_SCALE = 2e4


def _request(request_id, scene, camera, arrival_s, **kwargs):
    return RenderRequest(
        request_id=request_id, scene=scene, camera=camera,
        arrival_s=arrival_s, hw_scale=HW_SCALE, **kwargs,
    )


def _busy_s(tier) -> float:
    if isinstance(tier, RenderService):
        return tier.hardware_busy_s
    return sum(w.busy_s for w in tier.workers)


def _submit_traffic(tier, scene, camera, rng, first_id, n, fired):
    """``n`` Poisson arrivals from now, half of them with a deadline.

    Every request's callback counts its id into ``fired``.
    """
    t = tier.now_s
    for i in range(n):
        t += float(rng.exponential(0.002))
        deadline = t + float(rng.uniform(1e-4, 0.02)) if rng.random() < 0.5 else None
        tier.submit(
            _request(
                first_id + i, scene, camera, t,
                priority=int(rng.integers(3)), deadline_s=deadline,
            ),
            on_complete=lambda response: fired.update([response.request_id]),
        )
    tier.run()


def _assert_exactly_once(tier, fired, offered) -> dict:
    """The exactly-once check of both tiers; returns the accounting."""
    accounting = tier.accounting()
    assert accounting["offered"] == offered == len(tier.responses)
    assert accounting["unaccounted"] == 0
    assert (
        accounting["completed"] + accounting["shed"] + accounting["failed"]
        == offered
    )
    # every callback fired exactly once per id
    assert set(fired) == set(tier.responses)
    assert set(fired.values()) == {1}
    return accounting


def _tier(tier_name, registry):
    if tier_name == "serve":
        return RenderService(registry)
    return FleetController(registry, FleetConfig())


def _redeploy_costlier(registry, scene) -> None:
    """Hot-swap ``scene`` to an untrained field that keeps every sample."""
    handle = registry.acquire(scene)
    normalizer = handle.normalizer
    handle.release()
    registry.deploy(
        scene,
        model=demo_model(seed=1),
        occupancy=OccupancyGrid(resolution=16),  # keeps every sample
        normalizer=normalizer,
    )


@pytest.mark.parametrize("swap", [False, True], ids=["no-swap", "costlier-swap"])
@pytest.mark.parametrize("tier_name", ["serve", "fleet"])
def test_seeded_sweep_over_tiers_and_swaps(tier_name, swap):
    rng = np.random.default_rng([0, swap, tier_name == "fleet"])
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    key = (scene, "ngp", "full")
    tier = _tier(tier_name, registry)
    camera = demo_camera(8, 8)  # 64 rays
    fired = Counter()

    _submit_traffic(tier, scene, camera, rng, first_id=0, n=12, fired=fired)
    offered = 12
    generation = 1
    if swap:
        _redeploy_costlier(registry, scene)
        generation = 2
    before = tier.estimator.estimate(key, generation)
    busy = _busy_s(tier)
    # One probe served alone: the first observation of this generation
    # if the scene was just swapped.
    tier.submit(
        _request(100, scene, camera, tier.now_s),
        on_complete=lambda response: fired.update([response.request_id]),
    )
    tier.run()
    offered += 1
    assert tier.responses[100].completed
    observed = (_busy_s(tier) - busy) / 64
    after = tier.estimator.estimate(key, generation)
    if swap:
        assert after == pytest.approx(observed, rel=1e-12)
        assert tier.stats()["ewma_reblends"] == 1
    else:
        assert after == pytest.approx(
            EWMA_ALPHA * observed + (1 - EWMA_ALPHA) * before, rel=1e-12
        )
        assert tier.stats()["ewma_reblends"] == 0

    _submit_traffic(tier, scene, camera, rng, first_id=200, n=12, fired=fired)
    offered += 12
    accounting = _assert_exactly_once(tier, fired, offered)
    assert accounting["completed"] > 0 and accounting["shed"] > 0


def _sweep_exactly_once(seed, tier_name, swap, mean_gap_s, monkeypatch):
    """Deadline traffic, unknown scenes and a hot-swap landing mid-run
    (from inside a completion callback) all settle exactly once, and
    every admission verdict is taken at its request's own arrival."""
    verdicts = []  # (arrival_s, now) of every AdmissionController.decide
    decide = AdmissionController.decide

    def recording_decide(self, request, now, *args, **kwargs):
        verdicts.append((request.arrival_s, now))
        return decide(self, request, now, *args, **kwargs)

    monkeypatch.setattr(AdmissionController, "decide", recording_decide)
    rng = np.random.default_rng([seed, swap, tier_name == "fleet"])
    registry = build_demo_registry(n_scenes=1)
    scene = registry.scenes()[0]["name"]
    tier = _tier(tier_name, registry)
    camera = demo_camera(8, 8)
    fired = Counter()
    swapped = []

    def on_complete(response):
        fired.update([response.request_id])
        if swap and not swapped and len(fired) >= 10:
            _redeploy_costlier(registry, scene)
            swapped.append(response.request_id)

    n = 40
    t = 0.0
    known = 0
    for i in range(n):
        t += float(rng.exponential(mean_gap_s))
        deadline = t + float(rng.uniform(1e-4, 0.02)) if rng.random() < 0.5 else None
        name = scene if rng.random() < 0.9 else "ghost"
        known += name == scene
        tier.submit(
            _request(
                i, name, camera, t,
                priority=int(rng.integers(3)), deadline_s=deadline,
            ),
            on_complete=on_complete,
        )
    tier.run()
    accounting = _assert_exactly_once(tier, fired, n)
    # the sweep reaches every bucket
    assert min(accounting["completed"], accounting["shed"], accounting["failed"]) > 0
    assert bool(swapped) == swap
    # every known-scene request got its verdict at its own arrival
    assert len(verdicts) == known
    assert all(now == arrival_s for arrival_s, now in verdicts)


@pytest.mark.parametrize("swap", [False, True], ids=["no-swap", "costlier-swap"])
@pytest.mark.parametrize("tier_name", ["serve", "fleet"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exactly_once_over_seeds_tiers_and_swaps(seed, tier_name, swap, monkeypatch):
    _sweep_exactly_once(seed, tier_name, swap, 0.002, monkeypatch)


@pytest.mark.parametrize("swap", [False, True], ids=["no-swap", "costlier-swap"])
@pytest.mark.parametrize("tier_name", ["serve", "fleet"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_exactly_once_under_overload(seed, tier_name, swap, monkeypatch):
    """The same sweep at twice the rate, past what one board serves:
    serve's backlog drains long after the last arrival, so requests
    arrive, and are admitted, while the board renders."""
    _sweep_exactly_once(seed, tier_name, swap, 0.001, monkeypatch)
