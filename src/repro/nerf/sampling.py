"""Ray-marching sampler: the core of NeRF pipeline Stage I.

Given rays in normalized space, the sampler marches fixed-size steps
between each ray's cube entry and exit, drops points in unoccupied cells
(the occupancy grid gating), and emits a flat batch of sample points ready
for Stage II.  It also records the workload statistics the cycle
simulator replays: candidate points tested, points kept, and the per-ray
sample distribution whose skew motivates dynamic scheduling (T1-2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from .aabb import intersect_unit_cube
from .occupancy import OccupancyGrid


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
        return np.bincount(self.ray_idx, minlength=self.n_rays)


@dataclass(frozen=True)
class SamplerConfig:
    """Marching parameters.

    ``max_samples`` bounds the steps taken across the unit cube; the
    actual per-ray count after occupancy gating is usually far smaller
    (the paper quotes 4-5 on sparse scenes up to 128-255 dense).
    """

    max_samples: int = 128
    #: Skip samples whose cell is unoccupied.
    use_occupancy: bool = True
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
            directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
            norms = np.linalg.norm(directions, axis=-1, keepdims=True)
            valid = np.isfinite(norms[:, 0]) & (norms[:, 0] > 0.0)
            if not valid.all():
                # A zero-length or non-finite direction names no ray:
                # march it as a miss (zero samples) through a placeholder
                # unit direction instead of dividing by its norm.
                directions = np.where(valid[:, None], directions, [0.0, 0.0, 1.0])
                norms = np.where(valid[:, None], norms, 1.0)
            directions = directions / norms
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
            t = t0[ray_idx] + (within + offsets) * step
            t = np.minimum(t, t1[ray_idx] - 1e-9)
            positions = origins[ray_idx] + t[:, None] * directions[ray_idx]
            # Stage II consumes float32 (the hash gather + MLP hot path);
            # march in float64 for t precision, then cast once.  Clip in
            # the float32 domain — clipping before the cast could round a
            # near-1 value back up to exactly 1.0.
            positions = np.clip(
                positions.astype(np.float32),
                np.float32(0.0),
                np.nextafter(np.float32(1.0), np.float32(0.0)),
            )
            # deltas/ts stay float64: they feed the float64 compositing
            # accumulators, unlike the float32 position/direction payload.
            deltas = np.full(total, step, dtype=np.float64)
            keep = np.ones(total, dtype=bool)
            if self.config.use_occupancy and occupancy is not None:
                # Query on the cast positions so gating agrees with the
                # coordinates Stage II actually sees.
                keep = occupancy.query(positions)
            directions32 = directions.astype(np.float32)
            batch = SampleBatch(
                positions=positions[keep],
                directions=directions32[ray_idx[keep]],
                deltas=deltas[keep],
                ts=t[keep],
                ray_idx=ray_idx[keep],
                n_rays=n_rays,
                candidates=total,
            )
            self._record_batch(tel, batch)
            return batch

    def sample_chunked(
        self,
        origins: np.ndarray,
        directions: np.ndarray,
        occupancy: OccupancyGrid = None,
        rng: np.random.Generator = None,
        chunk: int = 8192,
        jobs: int = 1,
    ) -> SampleBatch:
        """March a large ray batch in ray-contiguous chunks.

        Semantically identical to :meth:`sample` — every ray's samples
        depend only on that ray, chunks are split and re-assembled in
        ray order, and chunk boundaries never move with ``jobs`` — so
        the returned batch is bit-identical to the one-shot call for
        deterministic sampling.  With ``jobs > 1`` chunks evaluate on a
        thread pool (the NumPy kernels release the GIL), which is how a
        single large experiment uses multiple workers.

        Jittered sampling draws from a *sequential* RNG, so when
        ``jitter`` is on and an ``rng`` is supplied this falls back to
        the one-shot path rather than silently changing the stream.
        """
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        n_rays = origins.shape[0]
        if n_rays <= chunk or (self.config.jitter and rng is not None):
            return self.sample(origins, directions, occupancy=occupancy, rng=rng)
        from ..parallel.chunking import chunk_spans, parallel_map_chunks

        def march(start, stop):
            return self.sample(
                origins[start:stop], directions[start:stop], occupancy=occupancy
            )

        spans = chunk_spans(n_rays, chunk)
        batches = parallel_map_chunks(march, n_rays, chunk, jobs=jobs)
        return SampleBatch(
            positions=np.concatenate([b.positions for b in batches]),
            directions=np.concatenate([b.directions for b in batches]),
            deltas=np.concatenate([b.deltas for b in batches]),
            ts=np.concatenate([b.ts for b in batches]),
            ray_idx=np.concatenate(
                [b.ray_idx + start for b, (start, _) in zip(batches, spans)]
            ),
            n_rays=n_rays,
            candidates=sum(b.candidates for b in batches),
        )

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


@dataclass
class SamplingStats:
    """Workload statistics Stage I hands to the cycle simulator."""

    n_rays: int = 0
    candidates: int = 0
    kept: int = 0
    samples_per_ray: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    @classmethod
    def from_batch(cls, batch: SampleBatch) -> "SamplingStats":
        return cls(
            n_rays=batch.n_rays,
            candidates=batch.candidates,
            kept=len(batch),
            samples_per_ray=batch.samples_per_ray,
        )

    @property
    def keep_fraction(self) -> float:
        if self.candidates == 0:
            return 0.0
        return self.kept / self.candidates


def batch_to_stats(batch: SampleBatch) -> dict:
    """Summarize a sample batch for logging or trace extraction."""
    per_ray = batch.samples_per_ray
    return {
        "n_rays": batch.n_rays,
        "n_samples": len(batch),
        "candidates": batch.candidates,
        "mean_samples_per_ray": float(per_ray.mean()) if batch.n_rays else 0.0,
        "max_samples_per_ray": int(per_ray.max()) if batch.n_rays else 0,
    }
