"""Top-level Fusion-3D API: the system facade, bandwidth accounting, and
reporting helpers."""

from .fusion3d import (
    Fusion3D,
    Fusion3DConfig,
    ReconstructionResult,
    RenderingResult,
)
from .bandwidth import (
    BandwidthModel,
    TrafficConstants,
    WorkloadVolume,
    VolumeBreakdown,
)
from .metrics import (
    fps_from_throughput,
    ssim,
)

__all__ = [
    "Fusion3D",
    "Fusion3DConfig",
    "ReconstructionResult",
    "RenderingResult",
    "BandwidthModel",
    "TrafficConstants",
    "WorkloadVolume",
    "VolumeBreakdown",
    "fps_from_throughput",
    "ssim",
]
