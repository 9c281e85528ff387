"""Ray generation: the front of NeRF pipeline Stage I.

For each target pixel, a ray is cast from the camera center through the
pixel; Stage I then intersects the ray with the (normalized) model
bounding box and marches samples along it.  Training generates each
view's rays once, into a :class:`RayTable`, and gathers its batches
from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .camera import Camera


@dataclass
class RayBundle:
    """A batch of rays.

    Attributes
    ----------
    origins:
        ``(n, 3)`` world-space ray origins.
    directions:
        ``(n, 3)`` unit-norm world-space directions.
    pixel_ids:
        ``(n,)`` flat pixel index of each ray in its source image, or -1
        when the bundle was not generated from an image grid.
    """

    origins: np.ndarray
    directions: np.ndarray
    pixel_ids: np.ndarray

    def __post_init__(self):
        self.origins = np.atleast_2d(np.asarray(self.origins, dtype=np.float64))
        self.directions = np.atleast_2d(np.asarray(self.directions, dtype=np.float64))
        self.pixel_ids = np.atleast_1d(np.asarray(self.pixel_ids, dtype=np.int64))
        if self.origins.shape != self.directions.shape:
            raise ValueError("origins and directions must have matching shapes")
        if self.origins.shape[0] != self.pixel_ids.shape[0]:
            raise ValueError("pixel_ids length must match ray count")

    def __len__(self) -> int:
        return self.origins.shape[0]


def norm3(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """Euclidean length from the three coordinate columns of vectors.

    Sums ``(x*x + y*y) + z*z``, the order ``np.linalg.norm(v, axis=-1)``
    uses on ``(n, 3)`` rows, so ``norm3(*v.T)`` is bit-identical to it;
    NumPy reduces a length-3 trailing axis element by element, several
    times slower than these whole-column ufuncs.
    """
    return np.sqrt((x * x + y * y) + z * z)


def unit_directions(directions: np.ndarray) -> tuple:
    """``(unit, valid)`` for ``(n, 3)`` ray directions.

    ``unit`` is each direction over its :func:`norm3` length; ``valid``
    marks the rows whose length is finite and nonzero.  An invalid row
    names no ray: it gets the placeholder ``+z`` instead of a division by
    its norm, and callers treat it as a miss.
    """
    norms = norm3(*directions.T)[:, None]
    valid = np.isfinite(norms[:, 0]) & (norms[:, 0] > 0.0)
    if not valid.all():
        directions = np.where(valid[:, None], directions, [0.0, 0.0, 1.0])
        norms = np.where(valid[:, None], norms, 1.0)
    return directions / norms, valid


def pixel_directions(camera: Camera, pixel_ids: np.ndarray) -> np.ndarray:
    """Unit world-space directions through the given flat pixel indices."""
    pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
    if pixel_ids.size and (pixel_ids.min() < 0 or pixel_ids.max() >= camera.n_pixels):
        raise ValueError("pixel id out of range")
    ys, xs = np.divmod(pixel_ids, camera.width)
    # Camera-space direction through the pixel center (NeRF convention:
    # x right, y up, looking down -z).
    cam_dirs = np.stack(
        [
            (xs + 0.5 - camera.width / 2.0) / camera.focal,
            -(ys + 0.5 - camera.height / 2.0) / camera.focal,
            -np.ones_like(xs, dtype=np.float64),
        ],
        axis=-1,
    )
    world_dirs = cam_dirs @ camera.c2w[:3, :3].T
    world_dirs /= norm3(*world_dirs.T)[:, None]
    return world_dirs


def generate_rays(camera: Camera, pixel_ids: np.ndarray = None) -> RayBundle:
    """Rays for the given pixels (default: every pixel, row-major)."""
    if pixel_ids is None:
        pixel_ids = np.arange(camera.n_pixels, dtype=np.int64)
    else:
        pixel_ids = np.asarray(pixel_ids, dtype=np.int64)
    directions = pixel_directions(camera, pixel_ids)
    origins = np.broadcast_to(camera.origin, directions.shape).copy()
    return RayBundle(origins=origins, directions=directions, pixel_ids=pixel_ids)


class RayTable:
    """Every training pixel's unit-space ray and color, one row per pixel.

    A view contributes its unit-cube origin, the unit-cube direction of
    each of its pixels (``rays_to_unit`` of :func:`generate_rays` over
    the whole view, row-major) and each pixel's ground-truth color.
    :meth:`sample` draws a batch uniformly over every pixel of every view
    and gathers its rows, so a training step generates no rays.

    Parameters
    ----------
    cameras:
        List of :class:`Camera`, one per training image.
    images:
        ``(n_views, h, w, 3)`` float array in [0, 1]; every camera must
        have ``h * w`` pixels.
    normalizer:
        The :class:`~repro.nerf.aabb.SceneNormalizer` into the unit cube.
    """

    def __init__(self, cameras: list, images: np.ndarray, normalizer):
        images = np.asarray(images, dtype=np.float64)
        if len(cameras) != images.shape[0]:
            raise ValueError("one camera per image required")
        self.normalizer = normalizer
        #: ``(h, w, 3)``: the shape every view's image has.
        self.view_shape = images.shape[1:]
        self.cameras = list(cameras)
        rays = [self._unit_rays(camera) for camera in self.cameras]
        #: ``(n_views, 3)`` float64 unit-cube origins.
        self.origins = np.array([origin for origin, _ in rays], dtype=np.float64)
        #: ``(n_views, h * w, 3)`` float64 unit-cube directions.
        self.directions = np.array(
            [directions for _, directions in rays], dtype=np.float64
        )
        #: ``(n_views, h * w, 3)`` float64 ground-truth colors.
        self.colors = images.reshape(len(rays), -1, 3)

    def _unit_rays(self, camera: Camera) -> tuple:
        """One view's unit-cube origin and per-pixel directions."""
        h, w = self.view_shape[:2]
        if camera.n_pixels != h * w:
            raise ValueError(
                f"camera has {camera.n_pixels} pixels, its image {h * w}"
            )
        bundle = generate_rays(camera)
        origins, directions = self.normalizer.rays_to_unit(
            bundle.origins, bundle.directions
        )
        return origins[0], directions

    @property
    def images(self) -> np.ndarray:
        """The ``(n_views, h, w, 3)`` images (a view of :attr:`colors`)."""
        return self.colors.reshape((len(self.cameras),) + self.view_shape)

    def add_view(self, camera: Camera, image: np.ndarray) -> int:
        """Append one posed view; returns the view count.

        The image must match the existing ``(h, w, 3)`` resolution.
        """
        image = np.asarray(image, dtype=np.float64)
        if image.shape != self.view_shape:
            raise ValueError(
                f"view shape {image.shape} does not match the training set "
                f"{self.view_shape}"
            )
        origin, directions = self._unit_rays(camera)
        self.cameras.append(camera)
        self.origins = np.concatenate([self.origins, origin[None]])
        self.directions = np.concatenate([self.directions, directions[None]])
        self.colors = np.concatenate([self.colors, image.reshape(1, -1, 3)])
        return len(self.cameras)

    def sample(self, batch_size: int, rng: np.random.Generator) -> tuple:
        """Random training rays plus their ground-truth colors.

        Draws ``batch_size`` view ids, then as many pixel ids, each
        uniform, and returns the gathered ``(origins, directions,
        colors)``, each ``(batch_size, 3)`` float64.
        """
        n_views, n_pixels = self.colors.shape[:2]
        view_ids = rng.integers(0, n_views, size=batch_size)
        pixel_ids = rng.integers(0, n_pixels, size=batch_size)
        rows = view_ids * n_pixels + pixel_ids
        return (
            self.origins.take(view_ids, axis=0),
            self.directions.reshape(-1, 3).take(rows, axis=0),
            self.colors.reshape(-1, 3).take(rows, axis=0),
        )
