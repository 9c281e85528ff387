"""Stage II cycle model: the Feature Interpolation Module (Technique T2).

Each interpolation core owns a shared vertex path (coordinate generation,
hash computation, weight generation — used identically by inference and
training) and two reconfigurable interpolation arrays.  In the forward
pass an array is a MAC tree folding eight FIEM products per level; in the
backward pass it flips into a vector-multiply/scatter unit updating the
same eight vertices.  With the two-level hash tiling of
:mod:`repro.sim.hash_tiling` every 8-fetch group is conflict-free, so an
array sustains one level per cycle; the untiled baseline multiplies
memory-bound cycles by the replayed conflict factor.

Training walks read-compute-write per level; time-division multiplexing
(T2-1) slots an inference task into the otherwise idle feature-SRAM
cycle, modeled as the difference between ``train_rmw_cycles_per_level``
with and without TDM.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..hw.energy import OpCounts
from ..nerf.hash_encoding import HashEncodingConfig
from .hash_tiling import BankingScheme, TwoLevelTiling, BaselineBanking, replay_feature_fetches
from .trace import WorkloadTrace


@dataclass(frozen=True)
class InterpModuleConfig:
    """Stage II hardware parameters."""

    n_cores: int = 10
    #: Reconfigurable interpolation arrays per core (levels per cycle).
    arrays_per_core: int = 2
    #: Backward read-modify-write cycles per level with TDM (T2-1).
    train_rmw_cycles_with_tdm: float = 2.0
    #: ... and without TDM (the idle memory slot stalls the pipeline).
    train_rmw_cycles_without_tdm: float = 3.0
    #: Use the two-level hash tiling (T4); False replays baseline banking.
    use_two_level_tiling: bool = True
    #: Use time-division multiplexing of training and inference (T2-1).
    use_tdm: bool = True
    #: Sustained issue rate of the interpolation pipeline, measured on the
    #: prototype (hazards between dependent level fetches and ping-pong
    #: swaps keep it below 1.0).
    issue_efficiency: float = 0.85


@dataclass
class InterpReport:
    """Cycle and energy outcome of simulating Stage II on a trace."""

    cycles: float
    conflict_factor: float
    ops: OpCounts
    mode: str


class InterpModule:
    """Cycle/energy simulator for the feature-interpolation stage."""

    def __init__(
        self,
        config: InterpModuleConfig = InterpModuleConfig(),
        encoding: HashEncodingConfig = HashEncodingConfig(),
    ):
        self.config = config
        self.encoding = encoding

    @property
    def tiling(self) -> BankingScheme:
        """The banking scheme the configuration selects."""
        if self.config.use_two_level_tiling:
            return TwoLevelTiling()
        return BaselineBanking()

    def conflict_factor(self, trace: WorkloadTrace) -> float:
        """Mean cycles per 8-fetch group under the active bank mapping."""
        if trace.vertex_corners is None or self.config.use_two_level_tiling:
            # Tiled accesses are conflict-free by construction; without a
            # recorded fetch trace we also assume the design point (tiled).
            return 1.0
        stats = replay_feature_fetches(
            trace.vertex_corners, trace.vertex_indices, self.tiling
        )
        return max(stats.mean_cycles_per_group, 1.0)

    def forward_cycles_per_sample(self) -> float:
        """Conflict-free forward cycles per sample on one core."""
        levels = self.encoding.n_levels
        return np.ceil(levels / self.config.arrays_per_core)

    def backward_cycles_per_sample(self) -> float:
        """Gradient-scatter cycles per sample on one core."""
        cfg = self.config
        rmw = (
            cfg.train_rmw_cycles_with_tdm
            if cfg.use_tdm
            else cfg.train_rmw_cycles_without_tdm
        )
        return self.encoding.n_levels * rmw / cfg.arrays_per_core

    def simulate(self, trace: WorkloadTrace, training: bool = False) -> InterpReport:
        """Cycles/energy for one batch of samples through Stage II."""
        factor = self.conflict_factor(trace)
        per_sample = self.forward_cycles_per_sample()
        if training:
            per_sample = per_sample + self.backward_cycles_per_sample()
        cycles = (
            trace.n_samples
            * per_sample
            * factor
            / (self.config.n_cores * self.config.issue_efficiency)
        )
        ops = self._ops(trace, training)
        return InterpReport(
            cycles=cycles,
            conflict_factor=factor,
            ops=ops,
            mode="training" if training else "inference",
        )

    def _ops(self, trace: WorkloadTrace, training: bool) -> OpCounts:
        ops = OpCounts()
        n = trace.n_samples
        levels = self.encoding.n_levels
        feats = self.encoding.n_features
        lookups = n * levels  # 8-vertex groups
        # Shared vertex path: hash needs 2 int muls per corner (x prime is
        # 1), xor/mod folded into adds; weights need 2 int16 muls/corner.
        ops.int32_mul += 2 * 8 * lookups
        ops.int32_add += 2 * 8 * lookups
        ops.int16_mac += 2 * 8 * lookups
        # Forward interpolation: 8 FIEM products + adder tree per feature.
        ops.fiem_mul += 8 * feats * lookups
        ops.fp16_mac += 7 * feats * lookups
        ops.sram_read_bytes += 8 * feats * 2 * lookups  # fp16 features
        if training:
            # Backward: weight x upstream-grad products, then
            # read-modify-write of the eight vertices per level.
            ops.fiem_mul += 8 * feats * lookups
            ops.fp16_mac += 8 * feats * lookups
            ops.sram_read_bytes += 8 * feats * 2 * lookups
            ops.sram_write_bytes += 8 * feats * 2 * lookups
        # Encoded features stream to Stage III over the NoC.
        ops.noc_bytes += 2 * levels * feats * n
        return ops
