"""Pinhole cameras and pose generation.

NeRF datasets provide camera-to-world poses for each training image; our
procedural datasets generate the same thing: cameras distributed on a
sphere (object scenes) or a ring (360-style unbounded scenes), all looking
at the scene center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Camera:
    """A pinhole camera with a camera-to-world pose.

    Attributes
    ----------
    width, height:
        Image resolution in pixels.
    focal:
        Focal length in pixels (square pixels, principal point centered).
    c2w:
        4x4 camera-to-world matrix; camera looks down its -Z axis,
        +X right, +Y up (OpenGL/NeRF convention).
    """

    width: int
    height: int
    focal: float
    c2w: np.ndarray

    def __post_init__(self):
        c2w = np.asarray(self.c2w, dtype=np.float64)
        if c2w.shape != (4, 4):
            raise ValueError("c2w must be a 4x4 matrix")
        object.__setattr__(self, "c2w", c2w)

    @property
    def origin(self) -> np.ndarray:
        """Camera center in world coordinates."""
        return self.c2w[:3, 3]

    @property
    def n_pixels(self) -> int:
        """Pixels per image: ``width * height``."""
        return self.width * self.height


def look_at(eye: np.ndarray, target: np.ndarray, up=(0.0, 0.0, 1.0)) -> np.ndarray:
    """Build a camera-to-world matrix looking from ``eye`` toward ``target``."""
    eye = np.asarray(eye, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    up = np.asarray(up, dtype=np.float64)
    forward = target - eye
    norm = np.linalg.norm(forward)
    if norm < 1e-12:
        raise ValueError("eye and target coincide")
    forward = forward / norm
    right = np.cross(forward, up)
    right_norm = np.linalg.norm(right)
    if right_norm < 1e-9:
        # Looking straight along `up`; pick another reference axis.
        right = np.cross(forward, np.array([1.0, 0.0, 0.0]))
        right_norm = np.linalg.norm(right)
    right = right / right_norm
    true_up = np.cross(right, forward)
    c2w = np.eye(4)
    c2w[:3, 0] = right
    c2w[:3, 1] = true_up
    c2w[:3, 2] = -forward  # camera looks down -Z
    c2w[:3, 3] = eye
    return c2w


def sphere_poses(
    n_views: int,
    radius: float,
    center=(0.0, 0.0, 0.0),
    elevation_range=(0.2, 1.1),
    rng: np.random.Generator = None,
) -> list:
    """Camera-to-world poses spread over a sphere cap around the scene.

    Views are placed at golden-angle azimuths with elevations swept over
    ``elevation_range`` (radians above the horizon), matching the capture
    pattern of object-centric NeRF datasets.
    """
    if n_views < 1:
        raise ValueError("need at least one view")
    center = np.asarray(center, dtype=np.float64)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    poses = []
    for i in range(n_views):
        azimuth = i * golden
        frac = i / max(n_views - 1, 1)
        elevation = elevation_range[0] + frac * (elevation_range[1] - elevation_range[0])
        if rng is not None:
            azimuth += rng.uniform(-0.05, 0.05)
            elevation += rng.uniform(-0.02, 0.02)
        eye = center + radius * np.array(
            [
                np.cos(elevation) * np.cos(azimuth),
                np.cos(elevation) * np.sin(azimuth),
                np.sin(elevation),
            ]
        )
        poses.append(look_at(eye, center))
    return poses


def ring_poses(
    n_views: int,
    radius: float,
    height: float,
    center=(0.0, 0.0, 0.0),
) -> list:
    """Inward-facing ring of cameras, the NeRF-360 capture pattern."""
    center = np.asarray(center, dtype=np.float64)
    poses = []
    for i in range(n_views):
        azimuth = 2.0 * np.pi * i / n_views
        eye = center + np.array(
            [radius * np.cos(azimuth), radius * np.sin(azimuth), height]
        )
        poses.append(look_at(eye, center))
    return poses
