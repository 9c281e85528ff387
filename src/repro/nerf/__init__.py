"""Functional NeRF substrate: the algorithms the accelerator executes.

Pure-NumPy Instant-NGP (hash encoding, occupancy-gated ray marching,
MLPs, volumetric rendering) with hand-written gradients, plus the MoE
decomposition of the multi-chip system, the INT8 quantized-training study,
and a dense-grid (TensoRF-style) baseline.
"""

from .camera import Camera, look_at, sphere_poses, ring_poses
from .rays import RayBundle, RayTable, generate_rays, pixel_directions
from .aabb import (
    GENERAL_INTERSECT_COST,
    NORMALIZED_INTERSECT_COST,
    intersect_aabb_general,
    intersect_unit_cube,
    intersect_octants,
    octant_bounds,
    SceneNormalizer,
    RayCubePairs,
)
from .occupancy import OccupancyGrid
from .sampling import RayMarcher, SamplerConfig, SampleBatch
from .hash_encoding import (
    HashEncoding,
    HashEncodingConfig,
    EncodingTrace,
    hash_vertices,
    PRIMES,
    CORNER_OFFSETS,
)
from .mlp import MLP, spherical_harmonics, SH_DIM
from .volume_rendering import (
    composite,
    composite_backward,
    RenderResult,
    psnr,
    segment_starts,
    segment_sum,
    segmented_exclusive_cumsum,
)
from .model import InstantNGPModel, ModelConfig, ForwardCache
from .optimizer import Adam, mse_loss
from .trainer import Trainer, TrainerConfig, TrainState
from .quantization import (
    quantize_int8,
    quantize_int8_fixed,
    quantize_model_parameters,
    PeriodicQuantizationHook,
)
from .early_termination import AdaptiveStats, render_batch_adaptive
from .precision import (
    FULL_PRECISION,
    PRECISION_MODES,
    LowPrecisionField,
    PrecisionGate,
    PrecisionReport,
)
from .checkpoint import save_model, load_model, deployment_payload_bytes
from .moe import MoENeRF, MoEConfig, dominance_map, dominance_ascii
from .tensorf import (
    DenseGridField,
    DenseGridConfig,
    PlaneLineEncoding,
    PlaneLineTrace,
    TensoRFConfig,
    TensoRFModel,
)

__all__ = [
    "Camera",
    "look_at",
    "sphere_poses",
    "ring_poses",
    "RayBundle",
    "RayTable",
    "generate_rays",
    "pixel_directions",
    "GENERAL_INTERSECT_COST",
    "NORMALIZED_INTERSECT_COST",
    "intersect_aabb_general",
    "intersect_unit_cube",
    "intersect_octants",
    "octant_bounds",
    "SceneNormalizer",
    "RayCubePairs",
    "OccupancyGrid",
    "RayMarcher",
    "SamplerConfig",
    "SampleBatch",
    "HashEncoding",
    "HashEncodingConfig",
    "EncodingTrace",
    "hash_vertices",
    "PRIMES",
    "CORNER_OFFSETS",
    "MLP",
    "spherical_harmonics",
    "SH_DIM",
    "composite",
    "composite_backward",
    "RenderResult",
    "psnr",
    "segment_starts",
    "segment_sum",
    "segmented_exclusive_cumsum",
    "InstantNGPModel",
    "ModelConfig",
    "ForwardCache",
    "Adam",
    "mse_loss",
    "Trainer",
    "TrainerConfig",
    "TrainState",
    "quantize_int8",
    "quantize_int8_fixed",
    "quantize_model_parameters",
    "PeriodicQuantizationHook",
    "AdaptiveStats",
    "render_batch_adaptive",
    "FULL_PRECISION",
    "PRECISION_MODES",
    "LowPrecisionField",
    "PrecisionGate",
    "PrecisionReport",
    "save_model",
    "load_model",
    "deployment_payload_bytes",
    "MoENeRF",
    "MoEConfig",
    "dominance_map",
    "dominance_ascii",
    "DenseGridField",
    "DenseGridConfig",
    "PlaneLineEncoding",
    "PlaneLineTrace",
    "TensoRFConfig",
    "TensoRFModel",
]
