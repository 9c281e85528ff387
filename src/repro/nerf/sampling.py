"""Ray-marching sampler: the core of NeRF pipeline Stage I.

Given rays in normalized space, the sampler marches fixed-size steps
between each ray's cube entry and exit, drops points in unoccupied cells
(the occupancy grid gating), and emits a flat batch of sample points ready
for Stage II.  It also records the workload statistics the cycle
simulator replays: candidate points tested, points kept, and the per-ray
sample distribution whose skew motivates dynamic scheduling (T1-2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from .aabb import intersect_unit_cube
from .occupancy import OccupancyGrid
from .rays import unit_directions


@dataclass
class SampleBatch:
    """Flat batch of sampled 3D points grouped by source ray.

    ``ray_idx`` maps each sample back to its ray; samples of one ray are
    contiguous and ordered front-to-back, which the renderer requires.
    """

    positions: np.ndarray  # (n_samples, 3) float32, in unit-cube space
    directions: np.ndarray  # (n_samples, 3) float32 unit view directions
    deltas: np.ndarray  # (n_samples,) marching step of each sample
    ts: np.ndarray  # (n_samples,) distance along the (normalized) ray
    ray_idx: np.ndarray  # (n_samples,) source ray of each sample
    n_rays: int
    #: Points evaluated before occupancy filtering (Stage I work).
    candidates: int = 0

    def __len__(self) -> int:
        return self.positions.shape[0]

    @property
    def samples_per_ray(self) -> np.ndarray:
        """Kept samples of each ray, ``(n_rays,)`` int64."""
        return np.bincount(self.ray_idx, minlength=self.n_rays)


@dataclass(frozen=True)
class SamplerConfig:
    """Marching parameters.

    ``max_samples`` bounds the steps taken across the unit cube; the
    actual per-ray count after occupancy gating is usually far smaller
    (the paper quotes 4-5 on sparse scenes up to 128-255 dense).
    """

    max_samples: int = 128
    #: Deterministic mid-step placement (False) or jittered (True).
    jitter: bool = False


class RayMarcher:
    """Fixed-step ray marcher over the normalized unit cube."""

    def __init__(self, config: SamplerConfig = SamplerConfig()):
        self.config = config

    def sample(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        occupancy: OccupancyGrid = None,
        rng: np.random.Generator = None,
    ) -> SampleBatch:
        """March rays (already in unit space) and return kept samples.

        Directions are re-normalized to unit length first, so ``t`` is a
        spatial distance in unit-cube units and a fixed step of
        ``sqrt(3)/max_samples`` (the cube diagonal over the budget) covers
        any chord with at most ``max_samples`` points.  A ray whose
        direction has zero or non-finite length is a miss: it keeps its
        slot in ``n_rays`` but gets no samples.
        """
        tel = telemetry.get_session()
        with tel.tracer.span("sampler.march"):
            origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
            directions, valid = unit_directions(
                np.atleast_2d(np.asarray(directions, dtype=np.float64))
            )
            n_rays = origins.shape[0]
            t0, t1, hit = intersect_unit_cube(origins, directions)
            hit &= valid
            step = np.sqrt(3.0) / self.config.max_samples
            spans = np.where(hit, t1 - t0, 0.0)
            counts = np.minimum(
                np.ceil(spans / step).astype(np.int64), self.config.max_samples
            )
            counts = np.maximum(counts, 0)
            total = int(counts.sum())
            if total == 0:
                empty = np.empty((0, 3), dtype=np.float32)
                batch = SampleBatch(
                    positions=empty,
                    directions=empty.copy(),
                    deltas=np.empty(0, dtype=np.float64),
                    ts=np.empty(0, dtype=np.float64),
                    ray_idx=np.empty(0, dtype=np.int64),
                    n_rays=n_rays,
                    candidates=0,
                )
                self._record_batch(tel, batch)
                return batch
            ray_idx = np.repeat(np.arange(n_rays), counts)
            # Index of each sample within its ray, computed without a loop.
            starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
            within = np.arange(total) - np.repeat(starts, counts)
            if self.config.jitter and rng is not None:
                offsets = rng.uniform(0.0, 1.0, size=total)
            else:
                offsets = 0.5
            # Column-wise (structure-of-arrays) marching: every per-ray
            # quantity is repeated as one contiguous column instead of
            # gathered as (n, 3) rows.  The float64 arithmetic is the
            # same, element for element, as ``origins[ray_idx] + t[:,
            # None] * directions[ray_idx]``.
            t = np.repeat(t0, counts) + (within + offsets) * step
            t = np.minimum(t, np.repeat(t1 - 1e-9, counts))
            # Stage II consumes float32 (the hash gather + MLP hot path);
            # march in float64 for t precision, then cast once per axis.
            # Clip in the float32 domain — clipping before the cast could
            # round a near-1 value back up to exactly 1.0.
            positions = np.empty((total, 3), dtype=np.float32)
            for axis in range(3):
                positions[:, axis] = np.repeat(
                    origins[:, axis], counts
                ) + t * np.repeat(directions[:, axis], counts)
            np.clip(
                positions,
                np.float32(0.0),
                np.nextafter(np.float32(1.0), np.float32(0.0)),
                out=positions,
            )
            per_ray = counts
            if occupancy is not None:
                # Query on the cast positions so gating agrees with the
                # coordinates Stage II actually sees.
                kept = np.flatnonzero(occupancy.query(positions))
                positions = positions[kept]
                t = t[kept]
                ray_idx = ray_idx[kept]
                per_ray = np.bincount(ray_idx, minlength=n_rays)
            # Samples stay grouped by ray, so each ray's direction is
            # repeated once per kept sample.
            directions32 = np.repeat(
                directions.astype(np.float32), per_ray, axis=0
            )
            # deltas/ts stay float64: they feed the float64 compositing
            # accumulators, unlike the float32 position/direction payload.
            batch = SampleBatch(
                positions=positions,
                directions=directions32,
                deltas=np.full(len(t), step, dtype=np.float64),
                ts=t,
                ray_idx=ray_idx,
                n_rays=n_rays,
                candidates=total,
            )
            self._record_batch(tel, batch)
            return batch

    @staticmethod
    def _record_batch(tel, batch: "SampleBatch") -> None:
        """Stage I workload metrics: gating rate and per-ray skew."""
        if not tel.enabled:
            return
        m = tel.metrics
        kept = len(batch)
        m.counter("sampler.candidates").inc(batch.candidates)
        m.counter("sampler.kept").inc(kept)
        if batch.candidates:
            m.gauge("sampler.early_termination_rate").set(
                1.0 - kept / batch.candidates
            )
        hist = m.histogram("sampler.samples_per_ray")
        values, repeats = np.unique(batch.samples_per_ray, return_counts=True)
        for value, repeat in zip(values.tolist(), repeats.tolist()):
            hist.observe(value, n=repeat)
