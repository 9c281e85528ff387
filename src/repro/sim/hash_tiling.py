"""Two-level hash tiling (Technique T4) and the untiled baseline.

Stage II fetches eight vertices per sampled point per level.  With naive
bank assignment (``bank = index mod n_banks``) several of the eight can
land in the same single-ported bank, serializing the access group to
anywhere from 1 to 8 cycles.  The paper's remedy exploits two properties
of the Instant-NGP hash:

* **Level 2 ("interpolation level") tiling** — the eight corners split
  into four YZ-offset groups of two, and because the hash multiplies Y/Z
  by large primes, different YZ groups are spread far apart in the table;
  the table is physically partitioned into four SRAM groups by YZ offset,
  so each group serves exactly two of the eight requests.
* **Level 3 ("parity") tiling** — within a YZ group the two corners
  differ by one in X, and because the X hash factor is 1, their indices
  always have opposite parity; an even and an odd bank per group make the
  whole 8-fetch group conflict-free by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..hw.sram import BankedSram, SramBankSpec, AccessStats
from ..hw.technology import Technology, TECH_28NM


@dataclass(frozen=True)
class BankingScheme:
    """Maps the 8 vertex fetches of each sample to SRAM banks."""

    name: str
    n_banks: int = 8

    def bank_ids(self, corners: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """SRAM bank of each fetch, shaped like ``indices``."""
        raise NotImplementedError


class BaselineBanking(BankingScheme):
    """Untiled baseline: banks interleaved on the low index bits."""

    def __init__(self, n_banks: int = 8):
        super().__init__(name="baseline", n_banks=n_banks)

    def bank_ids(self, corners: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Bank = table index modulo the bank count."""
        return np.asarray(indices) % self.n_banks


class TwoLevelTiling(BankingScheme):
    """Level-2 + Level-3 tiling: bank = YZ-group * 2 + index parity."""

    def __init__(self):
        super().__init__(name="two-level-tiling", n_banks=8)

    def bank_ids(self, corners: np.ndarray, indices: np.ndarray) -> np.ndarray:
        """Bank = the vertex's YZ group * 2 + its table-index parity."""
        corners = np.asarray(corners)
        indices = np.asarray(indices)
        if corners.shape[:-1] != indices.shape:
            raise ValueError("corners and indices must describe the same fetches")
        yz_group = (corners[..., 1] % 2) * 2 + (corners[..., 2] % 2)
        parity = indices % 2
        return yz_group * 2 + parity


def replay_feature_fetches(
    corners: np.ndarray,
    indices: np.ndarray,
    scheme: BankingScheme,
    bytes_per_access: int = 4,
    bank_kb: float = 8.0,
    tech: Technology = TECH_28NM,
) -> AccessStats:
    """Replay one level's vertex fetches against a banked feature SRAM.

    ``corners``/``indices`` are ``(n_samples, 8, 3)`` / ``(n_samples, 8)``
    as produced by ``HashEncoding.level_lookup``.
    """
    tel = telemetry.get_session()
    with tel.tracer.span("hash_tiling.replay", scheme=scheme.name):
        banks = BankedSram(scheme.n_banks, SramBankSpec(size_kb=bank_kb), tech)
        bank_ids = scheme.bank_ids(corners, indices)
        stats = banks.replay_groups(bank_ids, bytes_per_access=bytes_per_access)
    if tel.enabled:
        m = tel.metrics
        prefix = f"sram.{scheme.name}"
        m.counter(f"{prefix}.bank_conflicts").inc(stats.conflicts)
        m.counter(f"{prefix}.access_cycles").inc(stats.cycles)
        m.counter(f"{prefix}.requests").inc(stats.requests)
    return stats


@dataclass
class TilingComparison:
    """Side-by-side conflict behaviour of baseline vs two-level tiling."""

    baseline: AccessStats
    tiled: AccessStats

    @property
    def latency_saving(self) -> float:
        """Fraction of the baseline's fetch cycles the tiling saves."""
        if self.baseline.cycles == 0:
            return 0.0
        return 1.0 - self.tiled.cycles / self.baseline.cycles

    @property
    def baseline_variance(self) -> float:
        """Variance of the untiled baseline's per-group fetch cycles."""
        return self.baseline.cycle_variance

    @property
    def tiled_variance(self) -> float:
        """Variance of the per-group fetch cycles under the tiling."""
        return self.tiled.cycle_variance


def compare_tilings(
    corners: np.ndarray,
    indices: np.ndarray,
    bytes_per_access: int = 4,
) -> TilingComparison:
    """Run both schemes on the same fetch trace (paper Fig. 12(c)-(e))."""
    return TilingComparison(
        baseline=replay_feature_fetches(
            corners, indices, BaselineBanking(), bytes_per_access
        ),
        tiled=replay_feature_fetches(
            corners, indices, TwoLevelTiling(), bytes_per_access
        ),
    )
