"""Procedural analytic scenes: the stand-in for the NeRF image datasets.

We do not ship NeRF-Synthetic / NeRF-360 images (no network, no assets),
so each scene is an *analytic radiance field* — a union of soft-edged
primitives with spatially varying color.  Ground-truth images are rendered
by densely marching the analytic field with the exact same compositing
math the model uses, which gives perfectly multi-view-consistent
supervision a NeRF can actually fit.  What the hardware experiments need
from a dataset is its *workload statistics* (occupancy sparsity, samples
per ray), and those are directly controlled by the primitive layouts.

The field is evaluated column-wise: a batch of ``(n, 3)`` points is
transposed once into three contiguous coordinate columns and every
primitive computes on those, so no kernel reduces over a length-3 row
(NumPy walks such a reduction element by element).  Norms sum in the
order ``np.linalg.norm(axis=-1)`` uses, so every value is bit-identical
to the row-wise form.  :meth:`AnalyticScene.density_and_color` evaluates
each primitive once for both outputs; :meth:`AnalyticScene.density`
serves the occupancy fills that need no color.

Each primitive is evaluated only on its support: the points inside
:attr:`Primitive.support`, the box outside which its density is exactly
``+0.0``.  A skipped point would add ``+0.0`` to the union max, the
blend weight and every color channel, so the result is bit-identical to
evaluating every primitive everywhere, while a scene whose boxes cover a
few percent of its AABB does a few percent of the work.  The
ground-truth :meth:`AnalyticScene.render` writes each chunk's sample
coordinates straight into one ``(3, n)`` world-space block, then colours
and composites only the samples inside some support (92.8-99.6% of a
view's samples lie outside every one).  A dropped sample has density
``+0.0`` and adds exactly ``0`` to the compositing sums, so the images
are bit-identical to the dense march's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from ..nerf.aabb import SceneNormalizer
from ..nerf.camera import Camera, look_at
from ..nerf.rays import generate_rays, norm3
from ..nerf.volume_rendering import composite


#: Relative widening of :attr:`Primitive.support`; float64 rounding moves
#: a bound or a signed distance by about 1e-16 of its magnitude.
SUPPORT_MARGIN = 1e-9


@dataclass(frozen=True)
class Primitive:
    """A soft-edged density primitive with its own base color.

    ``kind`` is ``"sphere"`` (radius = ``size[0]``), ``"box"`` (half
    extents = ``size``), or ``"shell"`` (hollow sphere of thickness
    ``size[1]``).  Density falls off over ``edge`` world units outside the
    surface, so renders are anti-aliased and densities are smooth enough
    for a NeRF to learn.
    """

    kind: str
    center: tuple
    size: tuple
    color: tuple
    density: float = 40.0
    edge: float = 0.02

    def signed_distance(self, points: np.ndarray) -> np.ndarray:
        """Signed distance (world units, negative inside) of ``(n, 3)`` points.

        The kernel reads the three coordinate columns ``points.T``; they
        are contiguous when ``points`` is the transpose of a C-ordered
        ``(3, n)`` block, which is how :class:`AnalyticScene` passes them.
        Norms go through :func:`~repro.nerf.rays.norm3`, so the result is
        bit-identical to the row-wise ``np.linalg.norm(axis=-1)`` form.
        """
        x, y, z = np.atleast_2d(np.asarray(points, dtype=np.float64)).T
        cx, cy, cz = self.center
        x, y, z = x - cx, y - cy, z - cz
        if self.kind == "sphere":
            return norm3(x, y, z) - self.size[0]
        if self.kind == "box":
            sx, sy, sz = self.size
            qx, qy, qz = np.abs(x) - sx, np.abs(y) - sy, np.abs(z) - sz
            outside = norm3(
                np.maximum(qx, 0.0), np.maximum(qy, 0.0), np.maximum(qz, 0.0)
            )
            inside = np.minimum(np.maximum(np.maximum(qx, qy), qz), 0.0)
            return outside + inside
        if self.kind == "shell":
            return np.abs(norm3(x, y, z) - self.size[0]) - self.size[1]
        raise ValueError(f"unknown primitive kind {self.kind!r}")

    def density_at(self, points: np.ndarray) -> np.ndarray:
        """Density of ``(n, 3)`` points: ``density`` inside, a linear ramp
        to zero across the ``edge`` band around the surface."""
        sd = self.signed_distance(points)
        # Smooth step from full density inside to zero past the edge band.
        t = np.clip(-sd / self.edge, -1.0, 1.0)
        return self.density * 0.5 * (1.0 + t)

    @cached_property
    def support(self) -> tuple:
        """World AABB ``(lo, hi)`` outside which :meth:`density_at` is
        exactly ``+0.0``.

        The box is the centre ± (half extent + ``edge``) for a box,
        ± (radius + ``edge``) for a sphere and ± (radius + thickness +
        ``edge``) for a shell, widened by :data:`SUPPORT_MARGIN` of each
        bound's magnitude so that rounding, in the bound or in
        :meth:`signed_distance`, cannot leave out a point of nonzero
        density.
        """
        if self.kind == "box":
            half = np.asarray(self.size, dtype=np.float64) + self.edge
        elif self.kind == "sphere":
            half = np.full(3, self.size[0] + self.edge, dtype=np.float64)
        elif self.kind == "shell":
            half = np.full(
                3, self.size[0] + self.size[1] + self.edge, dtype=np.float64
            )
        else:
            raise ValueError(f"unknown primitive kind {self.kind!r}")
        center = np.asarray(self.center, dtype=np.float64)
        half = half + SUPPORT_MARGIN * (np.abs(center) + half)
        return center - half, center + half


def _columns(points: np.ndarray) -> np.ndarray:
    """``(n, 3)`` points as one C-ordered float64 ``(3, n)`` column block
    (no copy when ``points`` is already the transpose of such a block)."""
    return np.ascontiguousarray(np.atleast_2d(points).T, dtype=np.float64)


@dataclass
class AnalyticScene:
    """A named analytic radiance field over a world-space AABB."""

    name: str
    primitives: list
    world_min: np.ndarray
    world_max: np.ndarray
    background: float = 1.0
    #: Mild spatial color modulation so color is non-trivial to learn.
    color_frequency: float = 4.0

    def __post_init__(self):
        self.world_min = np.asarray(self.world_min, dtype=np.float64)
        self.world_max = np.asarray(self.world_max, dtype=np.float64)
        if np.any(self.world_max <= self.world_min):
            raise ValueError("world_max must exceed world_min")

    def normalizer(self) -> SceneNormalizer:
        """The isotropic map from this scene's world AABB to the unit cube."""
        return SceneNormalizer.from_aabb(self.world_min, self.world_max)

    def _on_support(self, columns: np.ndarray):
        """Yield ``(primitive, idx)`` for every primitive whose
        :attr:`~Primitive.support` holds any of the ``(3, n)`` points:
        ``idx`` are the flat indices of the points inside it (a point
        with a NaN in any coordinate counts as inside every box, so it
        stays NaN)."""
        x, y, z = columns
        nan = None
        # ``min`` propagates NaN, so finite input pays for no mask.
        if np.isnan(columns.min(initial=np.inf)):
            nan = np.flatnonzero(np.isnan(columns).any(axis=0))
        for prim in self.primitives:
            lo, hi = prim.support
            outside = x < lo[0]
            outside |= x > hi[0]
            outside |= y < lo[1]
            outside |= y > hi[1]
            outside |= z < lo[2]
            outside |= z > hi[2]
            if nan is not None:
                outside[nan] = False
            idx = np.flatnonzero(np.logical_not(outside, out=outside))
            if idx.size:
                yield prim, idx

    def density(self, points: np.ndarray) -> np.ndarray:
        """World-space density: max over primitives (solid union)."""
        columns = _columns(points)
        total = np.zeros(columns.shape[1], dtype=np.float64)
        for prim, idx in self._on_support(columns):
            d = prim.density_at(columns[:, idx].T)
            total[idx] = np.maximum(total[idx], d)
        return total

    def density_and_color(self, points: np.ndarray) -> tuple:
        """World-space ``(density, albedo)`` of ``(n, 3)`` points.

        Density is :meth:`density`'s union max.  Albedo is the
        density-weighted blend of primitive colors (0.5 grey where no
        primitive contributes) plus a smooth positional modulation,
        clipped to [0, 1], as ``(n, 3)``.  Each primitive is evaluated
        once per point for both outputs.
        """
        columns = _columns(points)
        n = columns.shape[1]
        total = np.zeros(n, dtype=np.float64)
        weight = np.zeros(n, dtype=np.float64)
        weighted = np.zeros((3, n), dtype=np.float64)
        for prim, idx in self._on_support(columns):
            d = prim.density_at(columns[:, idx].T)
            total[idx] = np.maximum(total[idx], d)
            for channel, value in zip(weighted, prim.color):
                channel[idx] += d * value
            weight[idx] += d
        blended = weight > 1e-9
        safe_weight = np.maximum(weight, 1e-9)
        x, y, z = columns
        k = self.color_frequency * np.pi
        mod = 0.15 * ((np.sin(k * x) + np.sin(k * y)) + np.sin(k * z))
        color = np.empty((n, 3), dtype=np.float64)
        for c, channel in enumerate(weighted):
            base = np.where(blended, channel / safe_weight, 0.5)
            color[:, c] = np.clip(base + mod, 0.0, 1.0)
        return total, color

    def density_unit(self, unit_points: np.ndarray) -> np.ndarray:
        """Density sampled at normalized unit-cube coordinates."""
        return self.density(self.normalizer().from_unit(unit_points))

    def occupancy_fraction(self, resolution: int = 32, threshold: float = 0.5) -> float:
        """Fraction of unit-cube cells containing matter (workload knob)."""
        r = resolution
        grid = (
            np.stack(np.meshgrid(*([np.arange(r)] * 3), indexing="ij"), axis=-1)
            .reshape(-1, 3)
            + 0.5
        ) / r
        return float((self.density_unit(grid) > threshold).mean())

    def render(self, camera: Camera, n_steps: int = 192) -> np.ndarray:
        """Ground-truth render by marching the analytic field densely.

        Every ray takes ``n_steps`` evenly spaced samples across its
        unit-cube segment, but only the samples on the support (see
        :meth:`_composite_on_support`) are coloured and composited.
        """
        from ..nerf.aabb import intersect_unit_cube

        normalizer = self.normalizer()
        rays = generate_rays(camera)
        origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
        n_rays = len(rays)
        t0, t1, hit = intersect_unit_cube(origins, directions)
        spans = np.where(hit, t1 - t0, 0.0)
        # Fractional march positions shared by all rays; per-ray t values
        # stretch them over each ray's own entry/exit segment.
        fracs = (np.arange(n_steps) + 0.5) / n_steps
        image = np.empty((n_rays, 3), dtype=np.float64)
        chunk = 4096
        for start in range(0, n_rays, chunk):
            stop = min(start + chunk, n_rays)
            m = stop - start
            ts = t0[start:stop, None] + fracs[None, :] * spans[start:stop, None]
            # World coordinates of the (m, n_steps) samples as one (3, n)
            # block, axis by axis: ``o + ts*d``, clipped to the unit cube,
            # then ``from_unit``'s ``/ scale + offset``.
            world = np.empty((3, m * n_steps), dtype=np.float64)
            for axis, column in enumerate(world):
                coord = column.reshape(m, n_steps)
                np.multiply(ts, directions[start:stop, axis, None], out=coord)
                np.add(origins[start:stop, axis, None], coord, out=coord)
                np.clip(coord, 0.0, 1.0, out=coord)
                coord /= normalizer.scale
                coord += normalizer.offset[axis]
            image[start:stop] = self._composite_on_support(
                world, ts, spans[start:stop] / n_steps
            )
        return np.clip(image, 0.0, 1.0).reshape(camera.height, camera.width, 3)

    def _composite_on_support(
        self, world: np.ndarray, ts: np.ndarray, deltas: np.ndarray
    ) -> np.ndarray:
        """``(m, 3)`` colours of ``m`` rays of ``k`` samples each.

        ``ts`` are the ``(m, k)`` sample distances, ``world`` their
        ``(3, m*k)`` world coordinates and ``deltas`` each ray's step.
        The field is evaluated, and the batch composited, only on the
        samples :meth:`_support_samples` keeps.  A dropped sample has
        density ``+0.0``, so it adds exactly ``0`` to the float64
        optical-depth prefix sum and to every per-ray sum: the colours
        are bit-identical to compositing all ``m*k`` samples.
        """
        m, k = ts.shape
        keep = self._support_samples(world)
        ray_idx = keep // k
        sigma, rgb = self.density_and_color(world[:, keep].T)
        result = composite(
            sigma,
            rgb,
            deltas[ray_idx],
            ts.reshape(-1)[keep],
            ray_idx,
            m,
            background=self.background,
        )
        return result.colors

    def _support_samples(self, columns: np.ndarray) -> np.ndarray:
        """Flat indices of the ``(3, n)`` points that can change a composite.

        These are the points inside some :attr:`Primitive.support` box,
        the points with a non-finite coordinate (their colour is NaN), and
        every point from the first one with a NaN coordinate on: its NaN
        density turns the prefix sum, and so every later sample of the
        batch, NaN.
        """
        keep = np.zeros(columns.shape[1], dtype=bool)
        for _, idx in self._on_support(columns):
            keep[idx] = True
        # ``min`` and ``max`` propagate NaN and reach ±inf, so finite input
        # pays for no mask.
        low, high = columns.min(initial=0.0), columns.max(initial=0.0)
        if not (np.isfinite(low) and np.isfinite(high)):
            keep |= ~np.isfinite(columns).all(axis=0)
            nan = np.flatnonzero(np.isnan(columns).any(axis=0))
            if nan.size:
                keep[nan[0]:] = True
        return np.flatnonzero(keep)


@dataclass
class SceneDataset:
    """A posed multi-view dataset rendered from an analytic scene."""

    scene: AnalyticScene
    cameras: list
    images: np.ndarray
    normalizer: SceneNormalizer = field(default=None)

    def __post_init__(self):
        if self.normalizer is None:
            self.normalizer = self.scene.normalizer()

    @property
    def name(self) -> str:
        """Name of the analytic scene the images were rendered from."""
        return self.scene.name

    def split(self, n_train: int) -> tuple:
        """(train_cameras, train_images, test_cameras, test_images)."""
        if not 0 < n_train <= len(self.cameras):
            raise ValueError("invalid split size")
        return (
            self.cameras[:n_train],
            self.images[:n_train],
            self.cameras[n_train:],
            self.images[n_train:],
        )


def camera_on_sphere_poses(
    n_views: int,
    radius: float,
    rng: np.random.Generator,
    center=(0.0, 0.0, 0.0),
    elevation_range=(0.15, 1.2),
) -> list:
    """Seeded random views on a sphere cap (BlenderNeRF's COS idiom).

    Unlike :func:`~repro.nerf.camera.sphere_poses` (a deterministic
    golden-angle sweep), every view here is an independent draw — azimuth
    uniform over the full circle, elevation uniform over
    ``elevation_range`` radians above the horizon — which is what a
    handheld capture walking around an object actually produces.  The
    stream is a pure function of ``rng``, so a capture session replays
    bit-exactly from its seed.
    """
    if n_views < 1:
        raise ValueError("need at least one view")
    center = np.asarray(center, dtype=np.float64)
    poses = []
    for _ in range(n_views):
        azimuth = rng.uniform(0.0, 2.0 * np.pi)
        elevation = rng.uniform(*elevation_range)
        eye = center + radius * np.array(
            [
                np.cos(elevation) * np.cos(azimuth),
                np.cos(elevation) * np.sin(azimuth),
                np.sin(elevation),
            ]
        )
        poses.append(look_at(eye, center))
    return poses


def spherical_trajectory_poses(
    n_views: int,
    radius: float,
    center=(0.0, 0.0, 0.0),
    turns: float = 1.0,
    elevation_range=(0.2, 1.0),
) -> list:
    """A smooth spherical orbit trajectory (BlenderNeRF's SOF idiom).

    Cameras advance along one continuous spiral — ``turns`` full
    azimuthal revolutions while elevation sweeps ``elevation_range`` —
    so consecutive frames overlap heavily, the way a turntable or
    drone-orbit capture does.  Deterministic: no RNG involved.
    """
    if n_views < 1:
        raise ValueError("need at least one view")
    center = np.asarray(center, dtype=np.float64)
    poses = []
    for i in range(n_views):
        frac = i / max(n_views - 1, 1)
        azimuth = 2.0 * np.pi * turns * frac
        elevation = elevation_range[0] + frac * (
            elevation_range[1] - elevation_range[0]
        )
        eye = center + radius * np.array(
            [
                np.cos(elevation) * np.cos(azimuth),
                np.cos(elevation) * np.sin(azimuth),
                np.sin(elevation),
            ]
        )
        poses.append(look_at(eye, center))
    return poses


#: Named trajectory generators of the streaming capture API.  ``"cos"``
#: (camera-on-sphere) draws seeded random views; ``"sof"`` (spherical
#: orbit of frames) is the deterministic spiral sweep.
TRAJECTORIES = ("cos", "sof")


def trajectory_poses(
    kind: str,
    n_views: int,
    radius: float,
    seed: int = 0,
    center=(0.0, 0.0, 0.0),
) -> list:
    """Build a named capture trajectory (see :data:`TRAJECTORIES`).

    The ``"cos"`` trajectory derives its RNG from ``seed`` alone, so the
    same ``(kind, n_views, radius, seed)`` tuple always produces the
    same poses — the replay contract the online reconstruction session
    relies on.
    """
    if kind == "cos":
        return camera_on_sphere_poses(
            n_views, radius, rng=np.random.default_rng(seed), center=center
        )
    if kind == "sof":
        return spherical_trajectory_poses(n_views, radius, center=center)
    raise ValueError(
        f"unknown trajectory {kind!r}; choose from {TRAJECTORIES}"
    )


def build_dataset(
    scene: AnalyticScene,
    poses: list,
    width: int = 64,
    height: int = 64,
    focal: float = None,
    gt_steps: int = 192,
) -> SceneDataset:
    """Render a posed image set from an analytic scene."""
    if focal is None:
        focal = 1.1 * width
    cameras = [
        Camera(width=width, height=height, focal=focal, c2w=pose) for pose in poses
    ]
    images = np.stack([scene.render(camera, n_steps=gt_steps) for camera in cameras])
    return SceneDataset(scene=scene, cameras=cameras, images=images)
