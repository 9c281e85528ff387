"""Occupancy cell-visit counting for trace extraction (Stage I mask reads).

The Stage I sampling cores stride the occupancy grid one cell per step.
A walk that steps one axis per cycle visits, along each axis, every cell
between the one it enters in and the one it leaves from, so a ray's cell
count has a closed form:

    1 + sum over x, y, z of |exit cell - entry cell|

with the entry cell at ``max(t_start, 0) + 1e-9`` and the exit cell at
``t_end - 1e-9``, each ``clip(floor(position * resolution), 0,
resolution - 1)``.  A ray with ``max(t_start, 0) + 1e-9 >= t_end`` visits
no cell.  A ray that crosses a cell edge or vertex exactly counts one
cell per axis crossing, as a walk that steps one axis per cycle would:
the diagonal through the grid's corners visits ``3*r - 2`` cells and a
face diagonal ``2*r - 1``.
"""

from __future__ import annotations

import numpy as np

from ..nerf.aabb import intersect_unit_cube
from ..nerf.occupancy import OccupancyGrid
from ..nerf.rays import unit_directions

#: Distance past the entry and short of the exit at which the end cells
#: are read, so a ray starting or ending on a cell face counts the cell
#: it runs through.
EPS = 1e-9


def cells_per_ray(
    origins: np.ndarray,
    directions: np.ndarray,
    grid: OccupancyGrid,
    t_starts: np.ndarray,
    t_ends: np.ndarray,
) -> np.ndarray:
    """Per-ray count of grid cells between ``t_starts`` and ``t_ends``.

    ``directions`` must be unit-norm (as the marcher normalizes them)
    and ``t_starts``/``t_ends`` are the unit-cube entry/exit distances;
    the count follows the module's closed form.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    t_starts = np.asarray(t_starts, dtype=np.float64).reshape(-1)
    t_ends = np.asarray(t_ends, dtype=np.float64).reshape(-1)
    n = origins.shape[0]
    if not (directions.shape[0] == t_starts.shape[0] == t_ends.shape[0] == n):
        raise ValueError("per-ray arrays must align")
    res = grid.resolution
    t_in = np.maximum(t_starts, 0.0) + EPS
    t_out = t_ends - EPS
    steps = np.zeros(n, dtype=np.float64)
    for axis in range(3):
        o, d = origins[:, axis], directions[:, axis]
        entry = np.floor((o + t_in * d) * res)
        leave = np.floor((o + t_out * d) * res)
        np.clip(entry, 0, res - 1, out=entry)
        np.clip(leave, 0, res - 1, out=leave)
        leave -= entry
        steps += np.abs(leave, out=leave)
    counts = steps.astype(np.int64) + 1
    counts[t_in >= t_ends] = 0
    return counts


def count_cells_visited(
    origins: np.ndarray,
    directions: np.ndarray,
    occupancy: OccupancyGrid,
) -> int:
    """Total occupancy cells the rays visit (see :func:`cells_per_ray`).

    A ray whose direction has zero or non-finite length is a miss that
    visits no cell, as in :meth:`~repro.nerf.sampling.RayMarcher.sample`.
    """
    origins = np.atleast_2d(origins)
    unit, valid = unit_directions(np.atleast_2d(directions))
    t0, t1, hit = intersect_unit_cube(origins, unit)
    hit &= valid
    if not hit.any():
        return 0
    counts = cells_per_ray(origins[hit], unit[hit], occupancy, t0[hit], t1[hit])
    return int(counts.sum())
