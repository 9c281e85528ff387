"""DDA cell-visit counting for trace extraction (Stage I mask reads)."""

from __future__ import annotations

import numpy as np

from ..nerf.aabb import intersect_unit_cube
from ..nerf.occupancy import OccupancyGrid, traverse_grid
from ..nerf.rays import unit_directions


def count_cells_visited(
    origins: np.ndarray,
    directions: np.ndarray,
    occupancy: OccupancyGrid,
) -> int:
    """Total occupancy cells the rays' DDA walks visit.

    A ray whose direction has zero or non-finite length is a miss that
    visits no cell, as in :meth:`~repro.nerf.sampling.RayMarcher.sample`.
    """
    origins = np.atleast_2d(origins)
    unit, valid = unit_directions(np.atleast_2d(directions))
    t0, t1, hit = intersect_unit_cube(origins, unit)
    hit &= valid
    if not hit.any():
        return 0
    counts = traverse_grid(
        origins[hit], unit[hit], occupancy, t0[hit], t1[hit]
    )
    return int(counts.sum())
