"""Occupancy grid: empty-space skipping and the MoE gating function.

A coarse binary grid over the normalized unit cube marks which cells may
contain matter.  Stage I only emits samples in occupied cells, which both
cuts Stage II/III work and — the paper's key multi-chip insight — acts as
a built-in per-expert gating function: an expert whose grid is empty at a
location contributes nothing there, so expert outputs can be fused by
plain addition.
"""

from __future__ import annotations

import functools

import numpy as np

from .volume_rendering import evaluate_in_tiles


@functools.lru_cache(maxsize=4)
def _cell_origins(resolution: int) -> np.ndarray:
    """Integer corner of every cell, ``(resolution**3, 3)``, C order;
    built once per resolution and shared read-only.

    Stored as int16, a quarter of float64's bytes for as long as the
    process lives; the integers convert to float64 exactly, so float
    arithmetic on them gives the same bits.
    """
    r = resolution
    origins = (
        np.stack(np.meshgrid(*([np.arange(r)] * 3), indexing="ij"), axis=-1)
        .reshape(-1, 3)
        .astype(np.int16)
    )
    origins.flags.writeable = False
    return origins


class OccupancyGrid:
    """Binary occupancy over the unit cube with EMA density statistics.

    Mirrors Instant-NGP's maintenance scheme: a per-cell exponential
    moving average of sampled densities, thresholded into a binary mask.
    """

    def __init__(self, resolution: int = 32, threshold: float = 0.01, ema_decay: float = 0.95):
        if resolution < 1:
            raise ValueError("resolution must be positive")
        if not 0.0 <= ema_decay < 1.0:
            raise ValueError("ema_decay must be in [0, 1)")
        self.resolution = resolution
        self.threshold = threshold
        self.ema_decay = ema_decay
        self.density_ema = np.zeros((resolution,) * 3, dtype=np.float32)
        self.mask = np.ones((resolution,) * 3, dtype=bool)

    @property
    def n_cells(self) -> int:
        """Number of grid cells, ``resolution**3``."""
        return self.resolution**3

    @property
    def occupancy_fraction(self) -> float:
        """Share of cells the mask marks occupied, in [0, 1]."""
        return float(self.mask.mean())

    def cell_indices(self, points: np.ndarray) -> np.ndarray:
        """Map unit-cube points to integer cell coordinates ``(n, 3)``."""
        points = np.atleast_2d(points)
        cells = np.floor(points * self.resolution).astype(np.int64)
        return np.clip(cells, 0, self.resolution - 1)

    def query(self, points: np.ndarray) -> np.ndarray:
        """Boolean occupancy of each point (points outside [0,1]^3 are
        clamped to the boundary cells)."""
        return self.mask.reshape(-1).take(self._flat_cells(points))

    def _flat_cells(self, points: np.ndarray) -> np.ndarray:
        """C-order flat index ``(x*r + y)*r + z`` of each point's cell."""
        r = self.resolution
        cells = self.cell_indices(points)
        return (cells[:, 0] * r + cells[:, 1]) * r + cells[:, 2]

    def update(self, points: np.ndarray, densities: np.ndarray) -> None:
        """Fold sampled densities into the EMA and refresh the mask."""
        points = np.atleast_2d(points)
        densities = np.asarray(densities, dtype=np.float32).reshape(-1)
        if points.shape[0] != densities.shape[0]:
            raise ValueError("points and densities must align")
        self.density_ema *= self.ema_decay
        if points.shape[0]:
            flat = self._flat_cells(points)
            # Max-reduce densities into cells (match Instant-NGP: a cell is
            # as occupied as its densest observed sample).  The buffered
            # ``np.maximum.at`` is deliberate: NumPy >= 1.25 gives 1-D
            # integer-indexed ufunc.at a fast path, and the perf harness
            # measured it ~8x faster here than an argsort + ``reduceat``
            # sorted-segment rewrite — vectorizing past it is a
            # regression, not an optimization.
            updates = np.zeros(self.n_cells, dtype=np.float32)
            np.maximum.at(updates, flat, densities)
            ema_flat = self.density_ema.reshape(-1)
            np.maximum(ema_flat, updates, out=ema_flat)
        self.mask = self.density_ema > self.threshold

    def set_from_function(self, density_fn, samples_per_cell: int = 2, rng=None) -> None:
        """Initialize the grid from an analytic density field.

        Used by the procedural datasets (which know their geometry) and by
        tests that need a deterministic grid.
        """
        rng = rng or np.random.default_rng(0)
        r = self.resolution
        base = _cell_origins(r)
        # One jitter round at a time: a single (S, n, 3) draw consumes
        # the RNG stream identically but holds S times the points.
        best = np.zeros(self.n_cells, dtype=np.float32)
        for _ in range(samples_per_cell):
            jitter = rng.uniform(0.0, 1.0, size=base.shape)
            points = (base + jitter) / r
            density = np.asarray(density_fn(points), dtype=np.float32).reshape(-1)
            np.maximum(best, density, out=best)
        self.density_ema = best.reshape((r,) * 3)
        self.mask = self.density_ema > self.threshold

    def refresh_from_density(self, density_fn, rng: np.random.Generator) -> None:
        """Re-estimate occupancy from a learned density field.

        Queries ``density_fn`` at one uniformly jittered point per cell
        (tiled, see :func:`~repro.nerf.volume_rendering.evaluate_in_tiles`)
        and folds the result into the EMA with :meth:`update`.  The
        training loops call this every ``occupancy_interval`` steps.
        """
        base = _cell_origins(self.resolution)
        points = (base + rng.uniform(0.0, 1.0, size=base.shape)) / self.resolution
        (density,) = evaluate_in_tiles(lambda p: (density_fn(p),), points)
        self.update(points, density)
        # Never let the grid collapse to fully-empty early in training.
        if not self.mask.any():
            self.mask[:] = True

    def occupied_aabbs(self) -> tuple:
        """Unit-space bounds of every occupied cell: ``(mins, maxs)``.

        The multi-chip gate uses this to decide which samples an expert
        must process.
        """
        cells = np.argwhere(self.mask)
        mins = cells / self.resolution
        maxs = (cells + 1) / self.resolution
        return mins, maxs


def traverse_grid(
    origins: np.ndarray,
    directions: np.ndarray,
    grid: "OccupancyGrid",
    t_starts: np.ndarray,
    t_ends: np.ndarray,
) -> np.ndarray:
    """Amanatides-Woo DDA: cells each ray visits between entry and exit.

    This is the hardware-aware sampling walk the Stage I cores perform:
    instead of testing every fine marching step, a core strides the
    occupancy grid cell by cell and only descends to sample generation
    inside occupied cells.  Returns the per-ray count of grid cells
    visited — the workload statistic behind the sampling cores'
    empty-space-skipping cost.

    Directions must be unit-norm (as the marcher normalizes them) and
    ``t_starts``/``t_ends`` are the unit-cube entry/exit distances.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    t_starts = np.asarray(t_starts, dtype=np.float64).reshape(-1)
    t_ends = np.asarray(t_ends, dtype=np.float64).reshape(-1)
    n = origins.shape[0]
    if not (directions.shape[0] == t_starts.shape[0] == t_ends.shape[0] == n):
        raise ValueError("per-ray arrays must align")
    res = grid.resolution
    counts = np.zeros(n, dtype=np.int64)
    eps = 1e-9
    # Vectorized over rays, stepping cell boundaries one at a time; the
    # loop bound is the maximum Manhattan cell distance (3 * res).  The
    # live rays' origin, direction, step and exit columns are the rows
    # of one float64 block, re-compacted in one copy only when a ray
    # finishes; a ray's count is the number of steps it stayed live.
    # Along each axis the walk heads for the cell's upper boundary when
    # the direction is positive and its lower one otherwise: ``cell +
    # up`` with ``up`` 1 or 0 is that boundary's index exactly.
    t = np.maximum(t_starts, 0.0) + eps
    safe_dir = np.where(np.abs(directions) < 1e-12, 1e-12, directions)
    live = np.flatnonzero(t < t_ends)
    t = t[live]
    rays = np.empty((13, live.size), dtype=np.float64)
    rays[0:3] = origins[live].T
    rays[3:6] = directions[live].T
    rays[6:9] = safe_dir[live].T
    rays[9:12] = rays[6:9] > 0
    rays[12] = t_ends[live]
    for step in range(1, 3 * res + 3):
        if live.size == 0:
            break
        o, d, sd, up, t_end = rays[0:3], rays[3:6], rays[6:9], rays[9:12], rays[12]
        t_next = None
        for axis in range(3):
            cell = np.floor((o[axis] + t * d[axis]) * res)
            np.clip(cell, 0, res - 1, out=cell)
            # Distance to the next cell boundary along this axis; the
            # running minimum takes the axes in order x, y, z.
            cell += up[axis]
            cell /= res
            cell -= o[axis]
            cell /= sd[axis]
            t_next = cell if t_next is None else np.minimum(t_next, cell, out=t_next)
        t = np.maximum(t_next, t, out=t_next)
        t += eps
        going = t < t_end
        if not going.all():
            counts[live[~going]] = step
            live, t, rays = live[going], t[going], rays[:, going]
    # Rays still live after the last step made every step.
    counts[live] = 3 * res + 2
    return counts
