"""Procedural datasets standing in for NeRF-Synthetic and NeRF-360.

See DESIGN.md for the substitution argument: the hardware results depend
on workload statistics, which the analytic scenes control directly.
"""

from .generator import (
    Primitive,
    AnalyticScene,
    AnalyticField,
    SceneDataset,
    TRAJECTORIES,
    build_dataset,
    camera_on_sphere_poses,
    spherical_trajectory_poses,
    trajectory_poses,
)
from . import synthetic
from . import nerf360
from .synthetic import SYNTHETIC_SCENES
from .nerf360 import NERF360_SCENES

__all__ = [
    "Primitive",
    "AnalyticScene",
    "AnalyticField",
    "SceneDataset",
    "TRAJECTORIES",
    "build_dataset",
    "camera_on_sphere_poses",
    "spherical_trajectory_poses",
    "trajectory_poses",
    "synthetic",
    "nerf360",
    "SYNTHETIC_SCENES",
    "NERF360_SCENES",
]
