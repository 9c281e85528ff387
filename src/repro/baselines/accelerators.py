"""Analytical models of the prior NeRF accelerators.

The paper compares against reported numbers (see Table III's footnotes);
accelerators are far less workload-sensitive than GPUs — their dedicated
datapaths keep utilization high — so per-scene variation is mild and
driven mainly by the occupancy-gated sample volume.  We model each
baseline as its reported throughput with a small irregularity penalty on
very sparse scenes (their schedulers are static, unlike T1-2's dynamic
dispatch).
"""

from __future__ import annotations

from dataclasses import dataclass

from .specs import PlatformSpec
from ..sim.trace import WorkloadTrace


@dataclass(frozen=True)
class AcceleratorModelConfig:
    """Shape of the (mild) workload sensitivity of fixed-function designs."""

    #: Samples/ray below which static schedulers start to stall.
    stall_knee: float = 4.0
    #: Worst-case utilization on degenerate (1-sample) rays.
    min_utilization: float = 0.6
    reference_samples_per_ray: float = 13.0


class AcceleratorModel:
    """Per-scene throughput of a prior accelerator."""

    def __init__(
        self,
        spec: PlatformSpec,
        config: AcceleratorModelConfig = AcceleratorModelConfig(),
    ):
        if spec.kind != "accelerator":
            raise ValueError(f"{spec.name} is not an accelerator")
        self.spec = spec
        self.config = config

    def _utilization(self, samples_per_ray: float) -> float:
        cfg = self.config
        s = max(samples_per_ray, 1e-6)
        return cfg.min_utilization + (1.0 - cfg.min_utilization) * s / (
            s + cfg.stall_knee
        )

    def throughput_mps(self, trace: WorkloadTrace, training: bool = False) -> float:
        reported = self.spec.training_mps if training else self.spec.inference_mps
        if reported is None:
            raise ValueError(
                f"{self.spec.name} does not support "
                f"{'training' if training else 'inference'}"
            )
        ref = self._utilization(self.config.reference_samples_per_ray)
        return reported * self._utilization(trace.mean_samples_per_ray) / ref

    def runtime_s(self, trace: WorkloadTrace, training: bool = False) -> float:
        mps = self.throughput_mps(trace, training=training)
        return trace.n_samples / (mps * 1e6)
