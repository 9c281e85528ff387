"""SceneRegistry under churn: deploys and hot-swaps racing live pins.

A scene lives until a hot-swap replaces it, so a name's generation never
decreases and admission never prices a generation older than the one
its cost estimate was measured on.
"""

import numpy as np

from repro.datasets import synthetic
from repro.fleet import FleetConfig, FleetController
from repro.nerf.occupancy import OccupancyGrid
from repro.serve import RenderRequest, RenderService
from repro.serve.loadgen import demo_camera, demo_model
from repro.serve.registry import SceneRegistry


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


def test_hot_swap_while_pinned_keeps_old_generation_alive():
    registry = SceneRegistry()
    _deploy(registry, "chair", seed=0)
    handle = registry.acquire("chair")
    old_model = handle.model
    _deploy(registry, "chair", seed=1)  # hot-swap
    assert registry.hot_swaps == 1
    # the pin still reads generation-1 weights...
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


#: Billing scale putting an 8x8 probe near a millisecond of board time,
#: so requests queue behind each other and hot-swaps land mid-flight.
HW_SCALE = 2e4


def _storm(tier, registry, rng, names):
    """Poisson traffic whose completion callbacks deploy, hot-swap, pin
    and release at random; returns ``(asked, generations_seen)``.

    ``asked`` holds ``(generation asked, generation stored)`` for every
    admission estimate of a key that already had one.
    """
    asked = []
    estimate = tier.estimator.estimate

    def checked_estimate(key, generation):
        entry = tier.estimator._estimates.get(key)
        if entry is not None:
            asked.append((generation, entry[1]))
        return estimate(key, generation)

    tier.estimator.estimate = checked_estimate
    seen = {}
    pins = []

    def check_generations():
        for summary in registry.scenes():
            name, generation = summary["name"], summary["generation"]
            assert generation >= seen.get(name, 1)
            seen[name] = generation

    def on_complete(response):
        op = int(rng.integers(5))
        name = names[int(rng.integers(len(names)))]
        if op == 0:
            _deploy(registry, name, seed=int(rng.integers(1 << 16)))  # deploy or hot-swap
        elif op == 1 and name in registry:
            pins.append(registry.acquire(name))
        elif op == 2 and pins:
            pins.pop(int(rng.integers(len(pins)))).release()
        elif op == 3 and pins:
            # double-release somewhere in the middle: must be a no-op
            victim = pins[int(rng.integers(len(pins)))]
            victim.release()
            victim.release()
        for record in list(registry._records.values()) + registry._retiring:
            assert record.refcount >= 0
        check_generations()

    camera = demo_camera(8, 8)
    t = 0.0
    for i in range(120):
        t += float(rng.exponential(0.0005))
        deadline = t + float(rng.uniform(1e-3, 0.05)) if rng.random() < 0.3 else None
        tier.submit(
            RenderRequest(
                request_id=i, scene=names[int(rng.integers(len(names)))],
                camera=camera, arrival_s=t, priority=int(rng.integers(3)),
                deadline_s=deadline, hw_scale=HW_SCALE,
            ),
            on_complete=on_complete,
        )
    tier.run()
    for handle in pins:
        handle.release()
        handle.release()
    return asked, seen


def test_churn_storm_invariants_hold():
    """Deterministic interleaving of deploy/hot-swap/acquire/release
    against live traffic, through the serve and the fleet tier.

    Each name's generation never decreases, admission never asks the
    cost estimator about a generation below the one it stores, every
    request settles exactly once, and parked generations drain to zero
    once every pin is released.
    """
    names = ["chair", "drums", "lego"]
    for tier_name in ("serve", "fleet"):
        rng = np.random.default_rng([42, tier_name == "fleet"])
        registry = SceneRegistry()
        for i, name in enumerate(names[:2]):  # "lego" arrives by deploy
            _deploy(registry, name, seed=i)
        tier = (
            RenderService(registry)
            if tier_name == "serve"
            else FleetController(registry, FleetConfig())
        )
        asked, seen = _storm(tier, registry, rng, names)
        assert all(generation >= stored for generation, stored in asked)
        # the storm reaches the case the rule is for: a stale estimate
        # pricing a newer generation before that generation's first
        # observation
        assert any(generation > stored for generation, stored in asked)
        assert max(seen.values()) > 2 and set(seen) == set(names)
        assert tier.accounting()["unaccounted"] == 0
        assert registry._retiring == []
        for record in registry._records.values():
            assert record.refcount == 0
