"""Workload traces: the NeRF-to-simulator interface."""

import numpy as np
import pytest

from repro.nerf.hash_encoding import HashEncoding, HashEncodingConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.sim.trace import WorkloadTrace, synthetic_trace, trace_from_rays


def _rays(n=32):
    rng = np.random.default_rng(0)
    origins = np.tile([[-1.0, 0.5, 0.5]], (n, 1)) + rng.normal(0, 0.1, (n, 3))
    directions = np.tile([[1.0, 0.0, 0.0]], (n, 1)) + rng.normal(0, 0.1, (n, 3))
    return origins, directions


def test_trace_from_rays_consistency(full_occupancy):
    o, d = _rays()
    trace = trace_from_rays(o, d, full_occupancy, max_samples=32)
    assert trace.n_rays == 32
    assert trace.n_samples <= trace.n_candidates
    assert len(trace.pair_durations) >= trace.n_rays - 4  # nearly every ray hits
    # Pair durations distribute each ray's kept samples.
    assert trace.pair_durations.sum() == pytest.approx(
        trace.n_samples, rel=0.01
    )


def test_trace_from_rays_with_gating():
    grid = OccupancyGrid(resolution=4, threshold=0.5)
    grid.density_ema[:] = 0.0
    grid.mask[:] = False
    grid.mask[2, 2, 2] = True
    o, d = _rays()
    trace = trace_from_rays(o, d, grid, max_samples=32)
    assert trace.occupancy_fraction < 0.5
    assert trace.mean_samples_per_ray < 8


def test_trace_from_rays_records_vertex_fetches(full_occupancy):
    encoding = HashEncoding(
        HashEncodingConfig(n_levels=2, log2_table_size=8, base_resolution=4,
                           finest_resolution=8)
    )
    o, d = _rays()
    trace = trace_from_rays(
        o, d, full_occupancy, encoding=encoding, max_samples=16,
        max_traced_vertices=64,
    )
    assert trace.vertex_corners is not None
    assert trace.vertex_corners.shape[1:] == (8, 3)
    assert trace.vertex_indices.shape == trace.vertex_corners.shape[:2]
    assert trace.vertex_corners.shape[0] <= 64


def test_trace_validation():
    with pytest.raises(ValueError):
        WorkloadTrace(
            n_rays=-1, pair_durations=[], pairs_per_ray=[], n_samples=0,
            n_candidates=0,
        )


@pytest.mark.parametrize(
    "durations, counts",
    [
        ([1.0, 2.0], [1, 0]),  # counts sum below the flat length
        ([1.0], [1, 1]),  # counts sum above it
        ([1.0, 2.0], [2]),  # one count for two rays
        ([1.0, 2.0], [1, 1, 0]),  # three counts for two rays
        ([1.0, 2.0], [3, -1]),  # right sum, negative count
    ],
)
def test_trace_rejects_counts_that_do_not_cover_durations(durations, counts):
    with pytest.raises(ValueError):
        WorkloadTrace(
            n_rays=2, pair_durations=durations, pairs_per_ray=counts,
            n_samples=3, n_candidates=3,
        )


def test_trace_ray_durations():
    trace = WorkloadTrace(
        n_rays=3, pair_durations=[1.0, 2.0, 3.0], pairs_per_ray=[2, 0, 1],
        n_samples=6, n_candidates=15,
    )
    assert np.array_equal(trace.ray_durations(), [3.0, 0.0, 3.0])
    assert trace.ray_groups(trace.pair_durations) == [[1.0, 2.0], [3.0]]
    assert trace.mean_samples_per_ray == 2.0
    assert trace.occupancy_fraction == 0.4


def test_scale_for_samples():
    trace = WorkloadTrace(
        n_rays=1, pair_durations=[5.0], pairs_per_ray=[1], n_samples=5,
        n_candidates=10,
    )
    assert trace.scale_for_samples(50) == 10.0
    empty = WorkloadTrace(
        n_rays=1, pair_durations=[], pairs_per_ray=[0], n_samples=0,
        n_candidates=0,
    )
    with pytest.raises(ValueError):
        empty.scale_for_samples(10)


def test_synthetic_trace_statistics(rng):
    trace = synthetic_trace(
        n_rays=2000, mean_samples_per_ray=6.0, occupancy_fraction=0.25, rng=rng
    )
    assert trace.n_rays == 2000
    assert trace.mean_samples_per_ray == pytest.approx(6.0, rel=0.2)
    assert trace.occupancy_fraction == pytest.approx(0.25, rel=0.05)
    # Pair counts stay in the paper's 1-3 range.
    assert trace.pairs_per_ray.max() <= 3
    assert trace.pairs_per_ray.min() >= 1


def test_synthetic_trace_vertex_data(rng):
    trace = synthetic_trace(
        n_rays=100, mean_samples_per_ray=4.0, occupancy_fraction=0.5, rng=rng,
        traced_vertices=128,
    )
    assert trace.vertex_corners.shape == (128, 8, 3)
    assert trace.vertex_indices.max() < 1 << 14


def test_synthetic_trace_validation(rng):
    with pytest.raises(ValueError):
        synthetic_trace(0, 5.0, 0.5, rng)
    with pytest.raises(ValueError):
        synthetic_trace(10, 5.0, 0.0, rng)
    with pytest.raises(ValueError):
        synthetic_trace(10, -1.0, 0.5, rng)


# -- flat layout against the per-ray list layout it replaced -------------------
#
# Until pair durations became one flat array, a trace held one Python list
# of durations per ray.  The functions below are that list-based code,
# kept verbatim as the oracle: every reader of the flat layout must give
# the same bytes.


def _oracle_synthetic(
    n_rays, mean_samples_per_ray, occupancy_fraction, rng,
    mean_pairs_per_ray=1.8, max_samples=128, table_size=1 << 14,
    traced_vertices=2048,
):
    from repro.nerf.hash_encoding import CORNER_OFFSETS, hash_vertices

    pair_counts = np.clip(rng.poisson(mean_pairs_per_ray - 1, size=n_rays) + 1, 1, 3)
    total_pairs = int(pair_counts.sum())
    mean_per_pair = max(mean_samples_per_ray * n_rays / total_pairs, 1e-6)
    lengths = np.minimum(
        rng.geometric(min(1.0 / (mean_per_pair + 1.0), 1.0), size=total_pairs) - 1,
        max_samples,
    ).astype(np.float64)
    pair_durations = []
    cursor = 0
    for count in pair_counts:
        pair_durations.append(lengths[cursor : cursor + count].tolist())
        cursor += count
    n_samples = int(lengths.sum())
    n_candidates = int(round(n_samples / occupancy_fraction))
    per_ray = np.array([sum(p) for p in pair_durations])
    base = rng.integers(0, 256, size=(traced_vertices, 3))
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    indices = hash_vertices(corners, table_size)
    return pair_durations, n_samples, n_candidates, corners, indices, per_ray


def _oracle_ray_durations(pair_durations):
    return np.array([sum(p) for p in pair_durations], dtype=np.float64)


def _oracle_inject(pair_durations, config, rng):
    if config.corrupt_fraction <= 0:
        return pair_durations
    flat = [d for pairs in pair_durations for d in pairs]
    n_entries = len(flat)
    n_corrupt = int(round(config.corrupt_fraction * n_entries))
    durations = [list(pairs) for pairs in pair_durations]
    if n_corrupt > 0 and n_entries > 0:
        targets = set(
            rng.choice(n_entries, size=min(n_corrupt, n_entries), replace=False)
            .tolist()
        )
        cursor = 0
        for pairs in durations:
            for j in range(len(pairs)):
                if cursor in targets:
                    if config.mode == "nan":
                        pairs[j] = float("nan")
                    else:
                        pairs[j] = pairs[j] * config.spike_factor
                cursor += 1
    return durations


def _oracle_scrub(pair_durations):
    """``(durations, samples_per_ray or None, n_scrubbed)``."""
    import itertools

    lengths = list(map(len, pair_durations))
    flat = np.fromiter(
        itertools.chain.from_iterable(pair_durations),
        dtype=np.float64,
        count=sum(lengths),
    )
    bad = np.flatnonzero(~(np.isfinite(flat) & (flat >= 0)))
    if len(bad) == 0:
        return pair_durations, None, 0
    durations = [list(pairs) for pairs in pair_durations]
    fences = np.cumsum([0] + lengths)
    rays = np.searchsorted(fences, bad, side="right") - 1
    for ray, index in zip(rays.tolist(), (bad - fences[rays]).tolist()):
        durations[ray][index] = 0.0
    per_ray = np.array([sum(p) for p in durations], dtype=np.float64)
    return durations, per_ray, len(bad)


def _oracle_schedules(pair_durations, cfg):
    from repro.sim.engine import schedule_dynamic, schedule_lockstep_batches

    groups = [
        [
            cfg.pair_setup_cycles + length / cfg.points_per_core_cycle
            for length in pairs
        ]
        for pairs in pair_durations
        if pairs
    ]
    naive = (
        cfg.general_intersect_cycles
        + _oracle_ray_durations(pair_durations) / cfg.points_per_core_cycle
    )
    return (
        schedule_dynamic(groups, cfg.n_cores),
        schedule_lockstep_batches(naive, cfg.n_cores),
    )


def _as_lists(trace):
    """The flat durations split back into one list per ray."""
    flat = trace.pair_durations.tolist()
    fences = np.cumsum(trace.pairs_per_ray).tolist()
    return [flat[a:b] for a, b in zip([0] + fences, fences)]


def _flat_bytes(pair_durations):
    return np.array(
        [d for pairs in pair_durations for d in pairs], dtype=np.float64
    ).tobytes()


def _schedule_bytes(result):
    return np.array([result.makespan, result.busy_cycles]).tobytes()


def _corruptions(trace, rng):
    """The clean trace plus NaN, spike, negative and -inf corruptions."""
    import dataclasses

    from repro.robustness.faults import TraceFaultConfig
    from repro.robustness.injection import inject_trace_faults

    out = [trace]
    for config in (
        TraceFaultConfig(corrupt_fraction=0.2, mode="nan"),
        TraceFaultConfig(corrupt_fraction=0.3, mode="spike", spike_factor=64.0),
    ):
        out.append(inject_trace_faults(trace, config, np.random.default_rng(1)))
    n = len(trace.pair_durations)
    for value in (-1.5, -np.inf):
        poisoned = trace.pair_durations.copy()
        poisoned[rng.choice(n, size=min(n, 3), replace=False)] = value
        out.append(dataclasses.replace(trace, pair_durations=poisoned))
    return out


def _sweep_traces():
    from repro.experiments.workloads import synthetic_workloads

    rng = np.random.default_rng(2024)
    for seed in range(40):
        n_rays = int(rng.integers(1, 300))
        mean = float(rng.uniform(0.2, 30.0))
        occupancy = float(rng.uniform(0.05, 1.0))
        pairs = float(rng.uniform(1.0, 3.0))
        yield ("synthetic", seed), synthetic_trace(
            n_rays, mean, occupancy, np.random.default_rng(seed),
            mean_pairs_per_ray=pairs, traced_vertices=16,
        )
    for workload in synthetic_workloads(scenes=("mic", "ship", "lego")):
        yield ("scene", workload.name), workload.trace


def test_flat_layout_matches_list_layout_byte_for_byte():
    from repro.robustness.faults import TraceFaultConfig
    from repro.robustness.injection import inject_trace_faults, scrub_trace
    from repro.sim.sampling_module import SamplingModule

    module = SamplingModule()
    cfg = module.config
    rng = np.random.default_rng(0)
    n_scrubbed_total = 0
    for label, base in _sweep_traces():
        assert base.pair_durations.dtype == np.float64, label
        for trace in _corruptions(base, rng):
            lists = _as_lists(trace)
            assert trace.ray_durations().tobytes() == (
                _oracle_ray_durations(lists).tobytes()
            ), label
            for config in (
                TraceFaultConfig(corrupt_fraction=0.25, mode="nan"),
                TraceFaultConfig(corrupt_fraction=1.0, mode="spike", spike_factor=3.0),
            ):
                new = inject_trace_faults(trace, config, np.random.default_rng(5))
                old = _oracle_inject(lists, config, np.random.default_rng(5))
                assert new.pair_durations.tobytes() == _flat_bytes(old), label
                assert np.array_equal(new.pairs_per_ray, base.pairs_per_ray)
            clean, n_scrubbed = scrub_trace(trace)
            old, old_per_ray, old_n = _oracle_scrub(lists)
            assert n_scrubbed == old_n, label
            n_scrubbed_total += n_scrubbed
            assert clean.pair_durations.tobytes() == _flat_bytes(old), label
            if old_per_ray is None:
                assert clean is trace
            else:
                assert clean.samples_per_ray.tobytes() == old_per_ray.tobytes()
            dynamic, naive = _oracle_schedules(_as_lists(clean), cfg)
            got = module._schedule_optimized(clean)
            assert _schedule_bytes(got) == _schedule_bytes(dynamic), label
            got = module._schedule_naive(clean)
            assert _schedule_bytes(got) == _schedule_bytes(naive), label
    assert n_scrubbed_total > 0


@pytest.mark.parametrize("seed", range(4))
def test_synthetic_trace_matches_list_builder(seed):
    args = (int(37 + 50 * seed), 5.0 + seed, 0.3)
    new = synthetic_trace(*args, np.random.default_rng(seed))
    durations, n_samples, n_candidates, corners, indices, per_ray = (
        _oracle_synthetic(*args, np.random.default_rng(seed))
    )
    assert _as_lists(new) == durations
    assert new.pair_durations.tobytes() == _flat_bytes(durations)
    assert (new.n_samples, new.n_candidates) == (n_samples, n_candidates)
    assert new.samples_per_ray.dtype == per_ray.dtype
    assert new.samples_per_ray.tobytes() == per_ray.tobytes()
    assert np.array_equal(new.vertex_corners, corners)
    assert np.array_equal(new.vertex_indices, indices)
