"""Scene registry: refcounts, hot-swap, checkpoint cold-start."""

import numpy as np
import pytest

from repro.nerf.aabb import SceneNormalizer
from repro.nerf.checkpoint import save_model
from repro.nerf.occupancy import OccupancyGrid
from repro.serve import (
    SceneRegistry,
    SceneRegistryError,
    UnknownSceneError,
)
from repro.serve.loadgen import demo_model


def _occupancy(seed=0, resolution=8):
    rng = np.random.default_rng(seed)
    occ = OccupancyGrid(resolution=resolution, threshold=0.3)
    occ.density_ema = rng.random(occ.density_ema.shape).astype(np.float32)
    occ.mask = occ.density_ema > occ.threshold
    return occ


def _normalizer():
    return SceneNormalizer(offset=np.array([-1.0, -1.0, -1.0]), scale=0.5)


def _deploy(registry, name, seed=0):
    return registry.deploy(
        name,
        model=demo_model(seed=seed),
        occupancy=_occupancy(seed=seed),
        normalizer=_normalizer(),
    )


def test_deploy_acquire_release_refcounts():
    registry = SceneRegistry()
    summary = _deploy(registry, "lego")
    assert summary["generation"] == 1 and summary["warmed"]
    handle = registry.acquire("lego")
    assert registry._records["lego"].refcount == 1
    assert handle.name == "lego"
    handle.release()
    handle.release()  # idempotent
    assert registry._records["lego"].refcount == 0


def test_acquire_unknown_scene_raises():
    registry = SceneRegistry()
    with pytest.raises(UnknownSceneError):
        registry.acquire("nope")


def test_deploy_requires_model_and_normalizer():
    registry = SceneRegistry()
    with pytest.raises(SceneRegistryError):
        registry.deploy("x")
    with pytest.raises(SceneRegistryError):
        registry.deploy("x", model=demo_model(), occupancy=_occupancy())


def test_hot_swap_keeps_old_generation_until_released():
    registry = SceneRegistry()
    _deploy(registry, "lego", seed=0)
    old = registry.acquire("lego")
    single = registry.memory_bytes
    _deploy(registry, "lego", seed=1)  # re-deploy: new generation
    assert registry.hot_swaps == 1
    new = registry.acquire("lego")
    assert old.generation == 1 and new.generation == 2
    # Both generations are pinned in memory until the old handle drains.
    assert registry.memory_bytes > single
    old.release()
    assert registry.memory_bytes <= 2 * single - single // 2
    new.release()


def test_checkpoint_deploy_cold_starts_warmed(tmp_path):
    model = demo_model(seed=3)
    occ = _occupancy(seed=3)
    path = tmp_path / "scene.npz"
    save_model(model, path, occupancy=occ, normalizer=_normalizer())
    registry = SceneRegistry()
    summary = registry.deploy("ckpt", checkpoint=path)
    assert summary["warmed"]
    handle = registry.acquire("ckpt")
    assert np.array_equal(handle.occupancy.mask, occ.mask)
    assert np.array_equal(handle.occupancy.density_ema, occ.density_ema)
    handle.release()


def test_deploy_without_occupancy_falls_back_unwarmed():
    registry = SceneRegistry()
    summary = registry.deploy(
        "bare", model=demo_model(), normalizer=_normalizer()
    )
    assert not summary["warmed"]
    handle = registry.acquire("bare")
    assert handle.occupancy.mask.all()  # permissive keep-everything grid
    handle.release()


def test_representative_trace_built_at_deploy():
    registry = SceneRegistry()
    _deploy(registry, "lego")
    handle = registry.acquire("lego")
    assert handle.trace.n_rays > 0
    assert handle.trace.n_samples > 0
    handle.release()


def _old_deploy_trace(occupancy, max_samples, grid=24):
    """The deploy probe trace as it was built before the closed-form cell
    count: the boolean-mask DDA walk and one ``tolist`` per ray."""
    from test_occupancy import _traverse_rows

    from repro.nerf.aabb import intersect_octants, intersect_unit_cube
    from repro.nerf.rays import unit_directions
    from repro.nerf.sampling import RayMarcher, SamplerConfig

    u = (np.arange(grid, dtype=np.float64) + 0.5) / grid
    xx, yy = np.meshgrid(u, u, indexing="ij")
    origins = np.stack(
        [xx.reshape(-1), yy.reshape(-1), np.full(grid * grid, -0.25)], axis=-1
    )
    directions = np.tile(np.array([0.0, 0.0, 1.0]), (grid * grid, 1))
    n = grid * grid
    pairs = intersect_octants(origins, directions)
    batch = RayMarcher(SamplerConfig(max_samples=max_samples)).sample(
        origins, directions, occupancy=occupancy
    )
    unit, valid = unit_directions(directions)
    t0, t1, hit = intersect_unit_cube(origins, unit)
    hit &= valid
    n_cells = int(
        _traverse_rows(origins[hit], unit[hit], occupancy, t0[hit], t1[hit]).sum()
    )
    spans = pairs.t1 - pairs.t0
    span_per_ray = np.bincount(pairs.ray_idx, weights=spans, minlength=n)
    total = span_per_ray[pairs.ray_idx]
    share = np.divide(spans, total, out=np.zeros_like(spans), where=total > 0)
    kept = batch.samples_per_ray
    dur = kept[pairs.ray_idx].astype(np.float64) * share
    fences = np.concatenate(([0], np.cumsum(np.bincount(pairs.ray_idx, minlength=n))))
    durations = [dur[fences[r] : fences[r + 1]].tolist() for r in range(n)]
    return durations, len(batch), batch.candidates, kept, n_cells


@pytest.mark.parametrize("max_samples", [32, 128])
def test_deploy_trace_matches_the_walked_trace(max_samples):
    """The four demo scenes' deploy traces equal the trace built with the
    DDA walk and per-ray list builds: every pair duration and per-ray
    pair count, sample and candidate count and cell count."""
    from repro.serve.loadgen import build_demo_registry

    names = ("mic", "ship", "lego", "chair")
    registry = build_demo_registry(scenes=names, max_samples_per_ray=max_samples)
    for name in names:
        handle = registry.acquire(name)
        trace = handle.trace
        durations, n_samples, n_candidates, kept, n_cells = _old_deploy_trace(
            handle.occupancy, max_samples
        )
        assert trace.ray_groups(trace.pair_durations) == [
            pairs for pairs in durations if pairs
        ], name
        assert trace.pairs_per_ray.tolist() == [len(p) for p in durations]
        assert trace.pair_durations.dtype == np.float64
        assert trace.n_samples == n_samples and trace.n_candidates == n_candidates
        assert trace.samples_per_ray.tobytes() == kept.tobytes()
        assert trace.n_cells_visited == n_cells > 0
        handle.release()
