"""Workload traces: the interface between the NeRF algorithms and the
cycle simulator.

A trace summarizes one batch of pipeline work — rays, their octant
cube-pairs, the occupancy-gated samples each pair produces, and
(optionally) the integer vertex coordinates Stage II will hash, which the
bank-conflict simulation replays.  Traces come from two sources:

* :func:`trace_from_rays` runs the real Stage I on real rays against a
  real occupancy grid (exact, used by tests and small experiments);
* :func:`synthetic_trace` draws a trace from summary statistics (scene
  occupancy, samples-per-ray distribution), used for chip-scale workloads
  where replaying millions of rays through NumPy would be wasteful.

Durations are measured in *kept samples*: the sampling cores skip empty
occupancy cells at bitmask speed (a 32-cell mask word per cycle, folded
into the per-pair setup constant), so marching time is dominated by the
samples that survive gating.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nerf.aabb import intersect_octants
from ..nerf.occupancy import OccupancyGrid
from ..nerf.sampling import RayMarcher, SamplerConfig


@dataclass
class WorkloadTrace:
    """Per-batch workload description consumed by the chip simulator.

    Pair durations are stored flat: ``pair_durations`` holds every
    cube-pair's duration in ray-major order and ``pairs_per_ray[r]``
    says how many of them belong to ray r (rays with no valid pair
    count 0).  Construction coerces both to float64 / int64 arrays and
    checks that the counts cover the durations exactly.

    A trace is immutable after construction: nothing mutates its fields
    in place (fault injection and scrubbing build new traces), which is
    what lets :meth:`~repro.sim.chip.SingleChipAccelerator.simulate`
    memoize the trace's unscaled Stage I-III reports on the trace itself.
    """

    n_rays: int
    #: Kept-sample count of every valid cube-pair (the core-occupancy
    #: time of the pair), ray-major: ray 0's pairs, then ray 1's, ...
    pair_durations: np.ndarray
    #: Valid cube-pairs of each ray; sums to ``len(pair_durations)``.
    pairs_per_ray: np.ndarray
    #: Samples surviving occupancy gating (Stage II/III work).
    n_samples: int
    #: Candidate points tested by Stage I before gating.
    n_candidates: int
    #: Optional ``(k, 8, 3)`` integer vertex coordinates of a subsample of
    #: Stage II lookups at the finest level, for conflict replay.
    vertex_corners: np.ndarray = None
    #: Optional matching ``(k, 8)`` hash-table indices.
    vertex_indices: np.ndarray = None
    #: Per-ray kept-sample counts (workload-balance statistics).
    samples_per_ray: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    #: Occupancy-grid cells the DDA walk visits (Stage I mask reads);
    #: falls back to a candidate-derived estimate when not traced.
    n_cells_visited: int = 0
    #: ``(chip config, training, optimized_sampling) -> (stage I, II, III
    #: reports)`` at workload scale 1, filled by the chip simulator and
    #: freed with the trace.
    _stage_reports: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        if self.n_rays < 0 or self.n_samples < 0 or self.n_candidates < 0:
            raise ValueError("trace counts must be non-negative")
        self.pair_durations = np.asarray(self.pair_durations, dtype=np.float64)
        self.pairs_per_ray = np.asarray(self.pairs_per_ray, dtype=np.int64)
        if len(self.pairs_per_ray) != self.n_rays:
            raise ValueError("one pair count per ray required")
        counts = self.pairs_per_ray
        if (counts < 0).any() or int(counts.sum()) != len(self.pair_durations):
            raise ValueError("pair counts must sum to the number of durations")

    @property
    def mean_samples_per_ray(self) -> float:
        """Kept samples per ray (0 with no rays)."""
        if self.n_rays == 0:
            return 0.0
        return self.n_samples / self.n_rays

    @property
    def occupancy_fraction(self) -> float:
        """Fraction of candidate points that survived gating."""
        if self.n_candidates == 0:
            return 0.0
        return self.n_samples / self.n_candidates

    def ray_durations(self) -> np.ndarray:
        """Total kept samples per ray: the naive (unpartitioned) job sizes."""
        return per_ray_sums(self.pair_durations, self.pairs_per_ray)

    def ray_groups(self, per_pair) -> list:
        """Split a ray-major per-pair array into one list per ray.

        Rays without pairs are left out: this is the group layout
        :func:`~repro.sim.engine.schedule_dynamic` dispatches.
        """
        flat = np.asarray(per_pair).tolist()
        fences = np.cumsum(self.pairs_per_ray).tolist()
        return [
            flat[start:stop]
            for start, stop in zip([0] + fences, fences)
            if stop > start
        ]

    def scale_for_samples(self, target_samples: float) -> float:
        """Workload-scale factor covering ``target_samples``.

        The simulator is linear in workload volume: chip-scale runs
        simulate this representative batch once and multiply cycles and
        operation counts by the returned factor (see the ``workload_scale``
        argument of the chip simulators) instead of re-tracing millions of
        rays.
        """
        if self.n_samples == 0:
            raise ValueError("cannot scale an empty trace")
        return target_samples / self.n_samples


def per_ray_sums(per_pair: np.ndarray, pairs_per_ray: np.ndarray) -> np.ndarray:
    """Sum a ray-major per-pair array over each ray (0.0 for no pairs).

    ``np.bincount`` adds each ray's values in input order starting from
    0.0, which is what Python's ``sum`` over that ray's values gives.
    (``np.add.reduceat`` would not: it returns the next ray's first
    value for a ray with no pairs.)
    """
    n_rays = len(pairs_per_ray)
    ray_of_pair = np.repeat(np.arange(n_rays), pairs_per_ray)
    return np.bincount(ray_of_pair, weights=per_pair, minlength=n_rays)


def distribute_samples_over_pairs(
    pair_ray_idx: np.ndarray,
    spans: np.ndarray,
    kept_per_ray: np.ndarray,
    n_rays: int,
) -> np.ndarray:
    """Distribute each ray's kept samples over its cube-pairs
    proportionally to the pairs' span lengths.

    Vectorized replacement for the original append loop: ``np.bincount``
    accumulates weights in input order exactly like the ``np.add.at`` it
    replaces, and ``intersect_octants`` returns pairs sorted by
    ``ray_idx``, so the returned flat durations are ray-major and equal
    the loop's per-ray lists concatenated, bit for bit (see
    :func:`repro.perf.reference.pair_durations_reference`).
    """
    spans = np.asarray(spans, dtype=np.float64)
    span_per_ray = np.bincount(pair_ray_idx, weights=spans, minlength=n_rays)
    total = span_per_ray[pair_ray_idx]
    share = np.divide(spans, total, out=np.zeros_like(spans), where=total > 0)
    return np.asarray(kept_per_ray)[pair_ray_idx].astype(np.float64) * share


def trace_from_rays(
    origins: np.ndarray,
    directions: np.ndarray,
    occupancy: OccupancyGrid,
    encoding=None,
    max_samples: int = 128,
    max_traced_vertices: int = 4096,
) -> WorkloadTrace:
    """Exact trace: run Stage I on unit-space rays.

    When ``encoding`` (a :class:`~repro.nerf.hash_encoding.HashEncoding`)
    is given, the finest-level vertex lookups of up to
    ``max_traced_vertices`` samples are recorded for conflict replay.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    n_rays = origins.shape[0]
    pairs = intersect_octants(origins, directions)
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    batch = marcher.sample(origins, directions, occupancy=occupancy)
    # DDA walk over the occupancy grid: the Stage I mask-read workload.
    from .trace_traversal import count_cells_visited

    n_cells = count_cells_visited(origins, directions, occupancy)
    kept_per_ray = batch.samples_per_ray
    spans = pairs.t1 - pairs.t0
    pair_durations = distribute_samples_over_pairs(
        pairs.ray_idx, spans, kept_per_ray, n_rays
    )
    corners = indices = None
    if encoding is not None and len(batch):
        k = min(len(batch), max_traced_vertices)
        subset = batch.positions[:k]
        finest = encoding.config.n_levels - 1
        corners, indices, _ = encoding.level_lookup(subset, finest)
    return WorkloadTrace(
        n_rays=n_rays,
        pair_durations=pair_durations,
        pairs_per_ray=np.bincount(pairs.ray_idx, minlength=n_rays),
        n_samples=len(batch),
        n_candidates=batch.candidates,
        vertex_corners=corners,
        vertex_indices=indices,
        samples_per_ray=kept_per_ray,
        n_cells_visited=n_cells,
    )


def synthetic_trace(
    n_rays: int,
    mean_samples_per_ray: float,
    occupancy_fraction: float,
    rng: np.random.Generator,
    mean_pairs_per_ray: float = 1.8,
    max_samples: int = 128,
    table_size: int = 1 << 14,
    traced_vertices: int = 2048,
) -> WorkloadTrace:
    """Draw a trace from workload statistics.

    Pair counts are truncated-Poisson in [1, 3] (the paper's observed
    range); per-pair kept-sample counts are geometric with the requested
    per-ray mean, reproducing the heavy skew that motivates dynamic
    scheduling.
    """
    if n_rays < 1:
        raise ValueError("need at least one ray")
    if not 0.0 < occupancy_fraction <= 1.0:
        raise ValueError("occupancy_fraction must be in (0, 1]")
    if mean_samples_per_ray <= 0:
        raise ValueError("mean_samples_per_ray must be positive")
    pair_counts = np.clip(rng.poisson(mean_pairs_per_ray - 1, size=n_rays) + 1, 1, 3)
    total_pairs = int(pair_counts.sum())
    mean_per_pair = max(mean_samples_per_ray * n_rays / total_pairs, 1e-6)
    # Geometric lengths (support >= 1) shifted down by one to allow empty
    # pairs; the +1 in the success probability keeps the requested mean.
    lengths = np.minimum(
        rng.geometric(min(1.0 / (mean_per_pair + 1.0), 1.0), size=total_pairs) - 1,
        max_samples,
    ).astype(np.float64)
    n_samples = int(lengths.sum())
    n_candidates = int(round(n_samples / occupancy_fraction))
    # Synthetic finest-level vertex coordinates for conflict replay.
    from ..nerf.hash_encoding import CORNER_OFFSETS, hash_vertices

    base = rng.integers(0, 256, size=(traced_vertices, 3))
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    indices = hash_vertices(corners, table_size)
    return WorkloadTrace(
        n_rays=n_rays,
        pair_durations=lengths,
        pairs_per_ray=pair_counts,
        n_samples=n_samples,
        n_candidates=n_candidates,
        vertex_corners=corners,
        vertex_indices=indices,
        samples_per_ray=per_ray_sums(lengths, pair_counts),
    )
