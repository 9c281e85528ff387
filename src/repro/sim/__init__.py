"""Cycle-level simulator of the Fusion-3D chip and multi-chip system.

Module-by-module cycle and energy accounting driven by workload traces
extracted from the functional NeRF substrate, calibrated with the 28 nm
technology models of :mod:`repro.hw`.
"""

from .engine import (
    CorePool,
    ScheduleResult,
    schedule_dynamic,
    schedule_ray_by_ray,
    schedule_lockstep_batches,
)
from .trace import WorkloadTrace, trace_from_rays, synthetic_trace
from .hash_tiling import (
    BankingScheme,
    BaselineBanking,
    TwoLevelTiling,
    replay_feature_fetches,
    compare_tilings,
    TilingComparison,
)
from .sampling_module import SamplingModule, SamplingModuleConfig, SamplingReport
from .interp_module import InterpModule, InterpModuleConfig, InterpReport
from .postproc_module import PostProcModule, PostProcModuleConfig, PostProcReport
from .chip import ChipConfig, ChipReport, SingleChipAccelerator, StageReport
from .chiplet import ChipletConfig, ChipletSystem, ChipletReport
from .multichip import (
    MultiChipConfig,
    MultiChipSystem,
    MultiChipReport,
    CommunicationReport,
    CAMERA_BROADCAST_BYTES,
    PARTIAL_PIXEL_BYTES,
    FEATURE_BYTES_PER_SAMPLE,
)

__all__ = [
    "CorePool",
    "ScheduleResult",
    "schedule_dynamic",
    "schedule_ray_by_ray",
    "schedule_lockstep_batches",
    "WorkloadTrace",
    "trace_from_rays",
    "synthetic_trace",
    "BankingScheme",
    "BaselineBanking",
    "TwoLevelTiling",
    "replay_feature_fetches",
    "compare_tilings",
    "TilingComparison",
    "SamplingModule",
    "SamplingModuleConfig",
    "SamplingReport",
    "InterpModule",
    "InterpModuleConfig",
    "InterpReport",
    "PostProcModule",
    "PostProcModuleConfig",
    "PostProcReport",
    "ChipConfig",
    "ChipReport",
    "SingleChipAccelerator",
    "StageReport",
    "ChipletConfig",
    "ChipletSystem",
    "ChipletReport",
    "MultiChipConfig",
    "MultiChipSystem",
    "MultiChipReport",
    "CommunicationReport",
    "CAMERA_BROADCAST_BYTES",
    "PARTIAL_PIXEL_BYTES",
    "FEATURE_BYTES_PER_SAMPLE",
]
