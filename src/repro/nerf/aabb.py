"""Ray-box intersection: the entry computation of Stage I.

Two implementations are provided, mirroring the paper's Technique T1-1:

* :func:`intersect_aabb_general` — the baseline slab test against an
  arbitrary axis-aligned box.  The paper counts this as solving six linear
  equations: 18 divisions, 54 multiplications, 54 additions per ray.
* :func:`intersect_unit_cube` — after *model normalization* maps the scene
  into the unit cube, the per-axis entry/exit parameters collapse to
  ``t = -o * inv_d`` and ``t = inv_d - o * inv_d``: 3 multiplications and
  3 multiply-accumulates per ray (``inv_d`` is produced once at ray
  generation and shared by all eight partition cubes).

*Model partitioning* splits the unit cube into eight octants; only the
ray-octant pairs with a real intersection are forwarded to the sampling
cores, giving the parallelism the dynamic scheduler (T1-2) exploits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Per-ray arithmetic cost of the general intersection (paper, Sec. IV-A1).
GENERAL_INTERSECT_COST = {"div": 18, "mul": 54, "add": 54}
#: Per-ray-cube cost after model normalization (paper, Sec. IV-A1).
NORMALIZED_INTERSECT_COST = {"mul": 3, "mac": 3}

_EPS = 1e-12


def _safe_inverse(directions: np.ndarray) -> np.ndarray:
    """Per-component 1/d with zeros nudged off the axis."""
    d = np.asarray(directions, dtype=np.float64)
    return 1.0 / np.where(np.abs(d) < _EPS, np.copysign(_EPS, d + _EPS), d)


def intersect_aabb_general(
    origins: np.ndarray,
    directions: np.ndarray,
    box_min: np.ndarray,
    box_max: np.ndarray,
) -> tuple:
    """Slab-test a ray batch against an arbitrary AABB.

    Returns ``(t0, t1, hit)`` where ``hit`` marks rays with a non-empty
    intersection in front of the origin (``t1 > max(t0, 0)``).
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    box_min = np.asarray(box_min, dtype=np.float64)
    box_max = np.asarray(box_max, dtype=np.float64)
    if np.any(box_max <= box_min):
        raise ValueError("box_max must exceed box_min on every axis")
    inv_d = _safe_inverse(directions)
    t_low = (box_min - origins) * inv_d
    t_high = (box_max - origins) * inv_d
    t_near, t_far = _slab_span(t_low, t_high)
    t0 = np.maximum(t_near, 0.0)
    hit = t_far > t0
    return t0, t_far, hit


def _slab_span(t_low: np.ndarray, t_high: np.ndarray) -> tuple:
    """``(t_near, t_far)`` of per-axis slab parameters ``(..., 3)``.

    The max/min over the three axes is taken column by column: NumPy
    reduces a length-3 trailing axis element by element, many times
    slower than two binary ufuncs over whole columns, and max/min are
    exact, so the result matches ``.max(axis=-1)``/``.min(axis=-1)``.
    """
    near = np.minimum(t_low, t_high)
    far = np.maximum(t_low, t_high)
    t_near = np.maximum(np.maximum(near[..., 0], near[..., 1]), near[..., 2])
    t_far = np.minimum(np.minimum(far[..., 0], far[..., 1]), far[..., 2])
    return t_near, t_far


@dataclass(frozen=True)
class SceneNormalizer:
    """Affine map between world space and the normalized unit cube.

    ``unit = (world - offset) * scale`` with a single isotropic ``scale``
    so ray directions stay directions (lengths change uniformly, which the
    sampler's step size absorbs).
    """

    offset: np.ndarray
    scale: float

    @classmethod
    def from_aabb(cls, box_min, box_max, margin: float = 0.0) -> "SceneNormalizer":
        """Fit the box's longest side, grown by ``margin``, to the unit
        cube, centred on the box; raises ``ValueError`` on an empty box."""
        box_min = np.asarray(box_min, dtype=np.float64)
        box_max = np.asarray(box_max, dtype=np.float64)
        if np.any(box_max <= box_min):
            raise ValueError("box_max must exceed box_min on every axis")
        span = (box_max - box_min).max() * (1.0 + margin)
        center = (box_min + box_max) / 2.0
        offset = center - span / 2.0
        return cls(offset=offset, scale=1.0 / span)

    def to_unit(self, points: np.ndarray) -> np.ndarray:
        """World-space points to unit-cube coordinates (float64)."""
        return (np.asarray(points, dtype=np.float64) - self.offset) * self.scale

    def from_unit(self, points: np.ndarray) -> np.ndarray:
        """Unit-cube coordinates back to world-space points (float64)."""
        return np.asarray(points, dtype=np.float64) / self.scale + self.offset

    def rays_to_unit(self, origins: np.ndarray, directions: np.ndarray) -> tuple:
        """Map rays into unit-cube space (directions are not re-normalized,
        so ``t`` parameters remain comparable across rays)."""
        return self.to_unit(origins), np.asarray(directions) * self.scale


def intersect_unit_cube(
    origins: np.ndarray,
    directions: np.ndarray,
    inv_d: np.ndarray = None,
    cube_min: np.ndarray = None,
    cube_max: np.ndarray = None,
) -> tuple:
    """Normalized-cube intersection (Technique T1-1 fast path).

    With bounds fixed at 0 and 1 the slab parameters are
    ``t_low = -o * inv_d`` (3 muls) and ``t_high = inv_d - o * inv_d``
    (3 MACs).  ``cube_min``/``cube_max`` select one of the eight partition
    octants; they default to the full unit cube.
    """
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    if inv_d is None:
        inv_d = _safe_inverse(directions)
    if cube_min is None:
        prod = origins * inv_d  # the 3 multiplications
        t_low = -prod
        t_high = inv_d - prod  # the 3 MACs
    else:
        cube_min = np.asarray(cube_min, dtype=np.float64)
        cube_max = np.asarray(cube_max, dtype=np.float64)
        t_low = (cube_min - origins) * inv_d
        t_high = (cube_max - origins) * inv_d
    t_near, t_far = _slab_span(t_low, t_high)
    t0 = np.maximum(t_near, 0.0)
    hit = t_far > t0
    return t0, t_far, hit


def octant_bounds() -> tuple:
    """Bounds of the eight partition cubes of the unit cube.

    Returns ``(mins, maxs)``, each ``(8, 3)``, ordered by octant index
    ``(x_bit | y_bit << 1 | z_bit << 2)``.
    """
    bits = np.arange(8)
    mins = 0.5 * np.stack(
        [(bits >> 0) & 1, (bits >> 1) & 1, (bits >> 2) & 1], axis=-1
    ).astype(np.float64)
    return mins, mins + 0.5


@dataclass
class RayCubePairs:
    """Valid ray-octant intersections: Stage I's unit of scheduling work.

    ``ray_idx[k]``/``cube_idx[k]`` identify pair *k*; ``t0``/``t1`` bound
    its marching segment in normalized space.  ``pairs_per_ray`` gives the
    per-ray fan-out the dynamic scheduler balances (1-3 typically).
    """

    ray_idx: np.ndarray
    cube_idx: np.ndarray
    t0: np.ndarray
    t1: np.ndarray
    n_rays: int

    def __len__(self) -> int:
        return self.ray_idx.shape[0]

    @property
    def pairs_per_ray(self) -> np.ndarray:
        """``(n_rays,)`` count of octants each ray crosses (0 on a miss)."""
        return np.bincount(self.ray_idx, minlength=self.n_rays)


def intersect_octants(origins: np.ndarray, directions: np.ndarray) -> RayCubePairs:
    """Intersect rays (already in unit-cube space) with all eight octants."""
    origins = np.atleast_2d(origins)
    directions = np.atleast_2d(directions)
    n = origins.shape[0]
    inv_d = _safe_inverse(directions)
    mins, maxs = octant_bounds()
    # Broadcast to (n_rays, 8, 3): one slab test per ray-octant pair.
    t_low = (mins[None] - origins[:, None]) * inv_d[:, None]
    t_high = (maxs[None] - origins[:, None]) * inv_d[:, None]
    t_near, t_far = _slab_span(t_low, t_high)
    t0 = np.maximum(t_near, 0.0)
    hit = t_far > t0 + _EPS
    ray_idx, cube_idx = np.nonzero(hit)
    return RayCubePairs(
        ray_idx=ray_idx,
        cube_idx=cube_idx,
        t0=t0[ray_idx, cube_idx],
        t1=t_far[ray_idx, cube_idx],
        n_rays=n,
    )
