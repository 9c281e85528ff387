"""Stage III cycle model: the Post Processing Module.

Evaluates the density/color MLPs on every sample and volumetrically
composites the results into pixels.  Per the paper's design methodology,
Stage III's MAC array is sized so it never throttles Stage II ("first
push the speed of Stage II ..., then match the speed of Stages I and III
by adjusting the number of computing cores").  Inference runs the MLPs in
INT8 (Table II shows post-training INT8 is lossless); training keeps FP16
and triples the MAC traffic (forward, input-grad, weight-grad passes).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..hw.energy import OpCounts
from .trace import WorkloadTrace


@dataclass(frozen=True)
class PostProcModuleConfig:
    """Stage III hardware parameters."""

    #: Multiply-accumulate lanes in the MLP array.
    mac_lanes: int = 12288
    #: MLP multiply-accumulates per sample (model-dependent; the default
    #: matches the paper's 2-hidden-layer Instant-NGP heads).
    macs_per_sample: int = 8960
    #: Renderer ops per sample: one exp, a handful of FP32 blends.
    renderer_flops_per_sample: int = 8


@dataclass
class PostProcReport:
    """Cycle and energy outcome of simulating Stage III on a trace."""

    cycles: float
    ops: OpCounts
    mode: str


class PostProcModule:
    """Cycle/energy simulator for the post-processing stage."""

    #: Training multiplies MAC traffic by ~3 (forward + two grad passes).
    TRAIN_MAC_FACTOR = 3.0

    def __init__(self, config: PostProcModuleConfig = PostProcModuleConfig()):
        self.config = config

    def simulate(self, trace: WorkloadTrace, training: bool = False) -> PostProcReport:
        """Cycles and operations of Stage III for the trace's kept samples."""
        cfg = self.config
        macs = trace.n_samples * cfg.macs_per_sample
        if training:
            macs *= self.TRAIN_MAC_FACTOR
        cycles = macs / cfg.mac_lanes
        ops = OpCounts()
        ops.fp16_mac += macs
        ops.exp_lookup += trace.n_samples  # density -> alpha
        ops.fp32_add += cfg.renderer_flops_per_sample * trace.n_samples
        if training:
            # Backward rendering: transmittance suffix scan + grads.
            ops.fp32_add += 2 * cfg.renderer_flops_per_sample * trace.n_samples
        # Composited pixels leave through the I/O path: 3 x fp16 + alpha.
        ops.noc_bytes += 8 * trace.n_rays
        # MLP weights stay resident; activations spill to cluster SRAM.
        ops.sram_read_bytes += 2 * 32 * trace.n_samples
        ops.sram_write_bytes += 2 * 16 * trace.n_samples
        return PostProcReport(
            cycles=cycles, ops=ops, mode="training" if training else "inference"
        )
