"""SceneRegistry under churn: undeploy/hot-swap/evict racing live pins."""

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.nerf.occupancy import OccupancyGrid
from repro.serve import RenderRequest, RenderService
from repro.serve.loadgen import build_demo_registry, demo_camera, demo_model
from repro.serve.registry import (
    MemoryBudgetError,
    SceneRegistry,
    UnknownSceneError,
)
from repro.serve.service import FAILED_SCENE_EVICTED


def _deploy(registry, name, seed=0):
    scene = synthetic.make_scene(name)
    occupancy = OccupancyGrid(resolution=16, threshold=0.5)
    occupancy.set_from_function(
        scene.density_unit, rng=np.random.default_rng(seed)
    )
    return registry.deploy(
        name,
        model=demo_model(seed=seed),
        occupancy=occupancy,
        normalizer=scene.normalizer(),
        background=scene.background,
    )


def _record(registry, name):
    return registry._records[name]


def test_force_undeploy_invalidates_pins_and_parks_generation():
    registry = build_demo_registry(n_scenes=1)
    name = registry.scenes()[0]["name"]
    handle = registry.acquire(name)
    record = handle._record
    registry.undeploy(name, force=True)
    assert not handle.valid
    assert name not in registry
    # the generation is parked, not freed, while the pin lives
    assert record in registry._retiring
    assert record.refcount == 1
    handle.release()
    assert registry._retiring == []
    assert record.refcount == 0
    # releasing again is a no-op, never an underflow
    handle.release()
    assert record.refcount == 0


def test_inflight_request_fails_cleanly_on_force_undeploy():
    registry = build_demo_registry(n_scenes=1)
    name = registry.scenes()[0]["name"]
    service = RenderService(registry)
    # admit (pinning a handle) before the churn, then yank the scene:
    # the already-admitted request must fail cleanly, not render stale
    # weights or crash
    request = RenderRequest(
        request_id=0, scene=name, camera=demo_camera(8, 8), arrival_s=0.0
    )
    service.ledger.offer(request)  # what submit() does before the arrival
    service._admit(request)
    registry.undeploy(name, force=True)
    # a second undeploy of the same name is an error, not a double-free
    with pytest.raises(UnknownSceneError):
        registry.undeploy(name)
    service.run()
    assert service.responses[0].status == FAILED_SCENE_EVICTED
    # the handle was released exactly once: parked generation drained
    assert registry._retiring == []
    assert registry.memory_bytes == 0


def test_hot_swap_while_pinned_keeps_old_generation_alive():
    registry = SceneRegistry()
    _deploy(registry, "chair", seed=0)
    handle = registry.acquire("chair")
    old_model = handle.model
    _deploy(registry, "chair", seed=1)  # hot-swap
    assert registry.hot_swaps == 1
    # the pin still reads generation-1 weights...
    assert handle.valid
    assert handle.model is old_model
    # ...while new acquisitions get generation 2
    fresh = registry.acquire("chair")
    assert fresh.model is not old_model
    assert fresh._record.generation == 2
    # parked generation drains with its last pin
    assert len(registry._retiring) == 1
    handle.release()
    assert registry._retiring == []
    fresh.release()
    assert _record(registry, "chair").refcount == 0


def test_hot_swap_racing_lru_eviction_never_evicts_pinned():
    registry = SceneRegistry()
    _deploy(registry, "chair", seed=0)
    scene_bytes = registry.scenes()[0]["bytes"]
    # room for ~2.5 generations: chair gen1 (pinned) + gen2 + drums
    # must force an eviction decision
    registry.memory_budget_bytes = int(scene_bytes * 2.5)
    pinned = registry.acquire("chair")
    _deploy(registry, "chair", seed=1)  # gen1 parks (pinned), gen2 lands
    assert len(registry._retiring) == 1
    # deploying drums overflows the budget; the evictor takes the idle
    # chair gen2 — never the pinned gen1 park, which is not a candidate
    _deploy(registry, "drums", seed=2)
    assert "chair" not in registry  # gen2 evicted
    assert pinned.valid and pinned._record.refcount == 1
    assert len(registry._retiring) == 1  # gen1 still parked, untouched
    assert registry.memory_bytes <= registry.memory_budget_bytes

    # with every generation pinned, an overflowing deploy must raise
    # loudly rather than evict under a live pin
    drums_pin = registry.acquire("drums")
    with pytest.raises(MemoryBudgetError):
        _deploy(registry, "lego", seed=3)
    assert drums_pin.valid and pinned.valid
    # draining the park frees its bytes; lego then fits
    pinned.release()
    assert registry._retiring == []
    _deploy(registry, "lego", seed=3)
    assert "lego" in registry
    drums_pin.release()


def test_redeploy_after_eviction_serves_again():
    registry = SceneRegistry()
    _deploy(registry, "chair", seed=0)
    scene_bytes = registry.scenes()[0]["bytes"]
    registry.memory_budget_bytes = int(scene_bytes * 1.5)
    _deploy(registry, "drums", seed=1)  # evicts idle chair
    assert registry.evictions == 1
    assert "chair" not in registry
    with pytest.raises(UnknownSceneError):
        registry.acquire("chair")
    # redeploy the evicted scene: fresh generation, fully serviceable
    _deploy(registry, "chair", seed=0)  # evicts drums in turn
    handle = registry.acquire("chair")
    assert handle.valid
    assert handle._record.generation == 1
    handle.release()
    assert _record(registry, "chair").refcount == 0


def test_fifty_generation_churn_frees_parked_generations_when_drained():
    """Sustained hot-swap churn: 50 generations, random pins on older ones.

    Every parked (hot-swapped-out) generation is held by exactly its
    live pins, frees the moment its last pin releases, and the registry
    ends holding only the newest generation's bytes.
    """
    rng = np.random.default_rng(7)
    registry = SceneRegistry()
    pins = []
    for gen in range(1, 51):
        _deploy(registry, "chair", seed=gen)
        assert _record(registry, "chair").generation == gen
        if rng.random() < 0.4:
            pins.append(registry.acquire("chair"))
        # nothing unpinned ever lingers in the park
        for record in registry._retiring:
            assert record.refcount >= 1
    assert registry.hot_swaps == 49
    newest = _record(registry, "chair")
    parked_gens = sorted(r.generation for r in registry._retiring)
    expected = sorted(
        h._record.generation for h in pins if h._record is not newest
    )
    assert parked_gens == expected
    single_gen_bytes = registry.memory_bytes - sum(
        r.n_bytes for r in registry._retiring
    )
    # release in a shuffled order: the park drains pin by pin
    for index in rng.permutation(len(pins)):
        pins[index].release()
    assert registry._retiring == []
    assert newest.refcount == 0
    assert registry.memory_bytes == single_gen_bytes


def test_budget_eviction_never_takes_pinned_or_newest():
    """Under a tight budget, churned deploys only ever evict idle scenes."""
    registry = SceneRegistry()
    _deploy(registry, "chair", seed=0)
    scene_bytes = registry.scenes()[0]["bytes"]
    registry.memory_budget_bytes = int(scene_bytes * 2.5)
    pinned = registry.acquire("chair")
    for step, name in enumerate(["drums", "lego", "mic", "ship"], start=1):
        _deploy(registry, name, seed=step)
        assert "chair" in registry  # the pinned scene survives every pass
        assert name in registry  # the just-deployed scene always lands
        assert registry.memory_bytes <= registry.memory_budget_bytes
    assert registry.evictions >= 3
    assert pinned.valid and pinned._record.refcount == 1
    pinned.release()
    assert _record(registry, "chair").refcount == 0


def test_churn_storm_invariants_hold():
    """Deterministic interleaving of deploy/swap/undeploy/acquire/release.

    Whatever the order, refcounts stay non-negative, parked generations
    drain to zero once every pin is released, and memory never exceeds
    budget + parked bytes.
    """
    rng = np.random.default_rng(42)
    registry = SceneRegistry()
    names = ["chair", "drums", "lego"]
    for i, name in enumerate(names):
        _deploy(registry, name, seed=i)
    handles = []
    for step in range(120):
        op = int(rng.integers(5))
        name = names[int(rng.integers(len(names)))]
        if op == 0 and name in registry:
            handles.append(registry.acquire(name))
        elif op == 1 and handles:
            handles.pop(int(rng.integers(len(handles)))).release()
        elif op == 2:
            _deploy(registry, name, seed=step)  # deploy or hot-swap
        elif op == 3 and name in registry:
            registry.undeploy(name, force=bool(rng.integers(2)))
        elif op == 4 and handles:
            # double-release somewhere in the middle: must be a no-op
            victim = handles[int(rng.integers(len(handles)))]
            victim.release()
            victim.release()
        for record in list(registry._records.values()) + registry._retiring:
            assert record.refcount >= 0
    for handle in handles:
        handle.release()
        handle.release()
    assert registry._retiring == []
    for record in registry._records.values():
        assert record.refcount == 0
