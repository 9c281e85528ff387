"""Data-volume and off-chip bandwidth accounting (Sec. II-B, Fig. 3).

Training a hash-grid NeRF to 25 PSNR moves on the order of 155 GB of
intermediate data; which part of it crosses the chip boundary depends on
the *design boundary* — how many pipeline stages the accelerator covers
and whether the feature tables fit on chip.  This model decomposes the
traffic into documented per-sample/per-iteration components and evaluates
any design boundary against any deadline, reproducing:

* Fig. 3's stage data volumes (inter-stage vs intra-stage vs pure I/O);
* Table I's bandwidth comparison (prior partial-pipeline accelerators
  need tens of GB/s; the end-to-end chip with resident tables needs only
  the USB budget);
* Fig. 13(b)'s bandwidth-vs-model-size sweep, including the 76% (~44
  GB/s) reduction at Instant-3D's model size that is attributable to the
  end-to-end pipeline alone.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TrafficConstants:
    """Per-sample / per-ray / per-iteration byte costs of the pipeline."""

    #: Stage I -> II: quantized sample coords + dt + ray id.
    stage1_to_2_bytes: float = 10.0
    #: Stage II -> III: encoded features forward (fp16, compacted).
    stage2_to_3_fwd_bytes: float = 24.0
    #: Stage III -> II: feature gradients during training.
    stage2_to_3_bwd_bytes: float = 28.0
    #: Stage II internal: vertex feature reads after ray-locality reuse.
    stage2_feature_read_bytes: float = 128.0
    #: Stage II internal: gradient read-modify-write traffic (training).
    stage2_feature_update_bytes: float = 192.0
    #: Stage III internal: MLP activation spills.
    stage3_activation_bytes: float = 64.0
    #: Per-ray supervision streamed from the host during training
    #: (quantized ray spec + RGB target + ids).
    ray_supervision_bytes: float = 24.0
    #: One-off model download/upload (hash tables + MLP weights).
    model_io_bytes: float = 10e6
    #: A non-end-to-end trainer streams the touched table entries through
    #: DRAM roughly once per iteration (Adam reads + writes).
    table_stream_factor: float = 1.0


@dataclass(frozen=True)
class WorkloadVolume:
    """Scale of one training or inference run."""

    total_samples: float
    total_rays: float
    iterations: int = 1
    deadline_s: float = 2.0

    @classmethod
    def instant_training(
        cls,
        samples_per_second: float = 199e6,
        samples_per_ray: float = 13.0,
        iterations: int = 3072,
        deadline_s: float = 2.0,
    ) -> "WorkloadVolume":
        """The paper's 2-second instant-training working point."""
        total = samples_per_second * deadline_s
        return cls(
            total_samples=total,
            total_rays=total / samples_per_ray,
            iterations=iterations,
            deadline_s=deadline_s,
        )


@dataclass
class VolumeBreakdown:
    """Bytes moved, by category, for one run (Fig. 3's quantities)."""

    inter_stage_bytes: float
    intra_stage_bytes: float
    io_bytes: float

    @property
    def total_intermediate_bytes(self) -> float:
        """Inter-stage plus intra-stage bytes (what fusion keeps on chip)."""
        return self.inter_stage_bytes + self.intra_stage_bytes

    def rates_gbps(self, deadline_s: float) -> dict:
        """Each category's bytes as a rate over ``deadline_s``, GB/s."""
        return {
            "inter_stage": self.inter_stage_bytes / deadline_s / 1e9,
            "intra_stage": self.intra_stage_bytes / deadline_s / 1e9,
            "io": self.io_bytes / deadline_s / 1e9,
        }


class BandwidthModel:
    """Evaluate data volumes and off-chip bandwidth for design boundaries."""

    def __init__(self, constants: TrafficConstants = TrafficConstants()):
        self.constants = constants

    # -- data volumes (Fig. 3) -------------------------------------------

    def training_volume(self, workload: WorkloadVolume) -> VolumeBreakdown:
        """Bytes a training run moves, by category (Fig. 3)."""
        c = self.constants
        s = workload.total_samples
        inter = s * (
            c.stage1_to_2_bytes + c.stage2_to_3_fwd_bytes + c.stage2_to_3_bwd_bytes
        )
        intra = s * (
            c.stage2_feature_read_bytes
            + c.stage2_feature_update_bytes
            + c.stage3_activation_bytes
        )
        io = workload.total_rays * c.ray_supervision_bytes + c.model_io_bytes
        return VolumeBreakdown(
            inter_stage_bytes=inter, intra_stage_bytes=intra, io_bytes=io
        )

    # -- model footprint ---------------------------------------------------

    @staticmethod
    def table_bytes(
        log2_table_size: int,
        n_hashed_levels: int = 10,
        n_features: int = 2,
        bytes_per_feature: int = 2,
    ) -> float:
        """fp16 feature-table footprint; the paper's headline model
        (2^14 per level across ten hashed levels) is exactly the
        2 x 5 x 64 KB = 640 KB it stores on chip.  Coarse dense levels
        live in the misc buffer space and are not counted here."""
        return n_hashed_levels * (1 << log2_table_size) * n_features * bytes_per_feature

    # -- off-chip bandwidth for a design boundary -------------------------

    def required_training_bandwidth_gbps(
        self,
        workload: WorkloadVolume,
        table_bytes: float,
        on_chip_feature_bytes: float = 640 * 1024,
        end_to_end: bool = True,
    ) -> float:
        """Off-chip bandwidth to finish training within the deadline.

        ``end_to_end=False`` models a partial-pipeline accelerator
        (Instant-3D's boundary): inter-stage data and Stage III activation
        spills cross the chip edge, feature reads miss DRAM in sample
        order, and the updated table streams back every iteration.  The
        end-to-end chip instead processes samples sorted by table region
        (the two-level tiling makes that streaming order natural), so any
        table overflow crosses the boundary once per iteration.
        """
        c = self.constants
        volume = self.training_volume(workload)
        bw = volume.io_bytes / workload.deadline_s
        miss = max(0.0, 1.0 - on_chip_feature_bytes / max(table_bytes, 1.0))
        table_stream = (
            table_bytes * workload.iterations * c.table_stream_factor * miss
        )
        bw += table_stream / workload.deadline_s
        if not end_to_end:
            # Sample-order feature reads miss DRAM individually.
            bw += (
                workload.total_samples * c.stage2_feature_read_bytes * miss
            ) / workload.deadline_s
            bw += volume.inter_stage_bytes / workload.deadline_s
            spill = workload.total_samples * c.stage3_activation_bytes
            bw += spill / workload.deadline_s
        return bw / 1e9

    def end_to_end_reduction(
        self,
        workload: WorkloadVolume,
        table_bytes: float,
        baseline_sram_bytes: float = 1536 * 1024,
    ) -> dict:
        """Bandwidth saved by the end-to-end boundary at equal model size
        (Fig. 13(b)'s 76% / 44 GB/s callout vs Instant-3D)."""
        ours = self.required_training_bandwidth_gbps(
            workload, table_bytes, end_to_end=True
        )
        theirs = self.required_training_bandwidth_gbps(
            workload,
            table_bytes,
            on_chip_feature_bytes=baseline_sram_bytes,
            end_to_end=False,
        )
        return {
            "end_to_end_gbps": ours,
            "partial_gbps": theirs,
            "saved_gbps": theirs - ours,
            "reduction": 1.0 - ours / theirs if theirs > 0 else 0.0,
        }
