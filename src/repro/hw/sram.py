"""SRAM bank and array models.

Fusion-3D keeps the entire hash-encoded feature model on chip (2 x 5 x
64 KB per the paper's final configuration), organized so that the
two-level hash tiling of Sec. V-B can issue the eight vertex fetches of a
trilinear interpolation without bank conflicts.  This module models the
banks themselves: capacity, per-access cost, and conflict accounting when
several requests target one bank in the same cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .technology import Technology, TECH_28NM


@dataclass(frozen=True)
class SramBankSpec:
    """Static parameters of one SRAM bank."""

    size_kb: float
    word_bytes: int = 4

    def read_energy_pj(self, nbytes: int, tech: Technology = TECH_28NM) -> float:
        """Energy to read ``nbytes`` from the bank."""
        return nbytes * tech.sram.read_pj_per_byte

    def write_energy_pj(self, nbytes: int, tech: Technology = TECH_28NM) -> float:
        """Energy to write ``nbytes`` to the bank."""
        return nbytes * tech.sram.write_pj_per_byte


@dataclass
class AccessStats:
    """Aggregate outcome of replaying accesses against a banked array."""

    requests: int = 0
    cycles: int = 0
    conflicts: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    energy_pj: float = 0.0
    #: Per-group serialized cycle counts; used for latency-variance plots.
    group_cycles: list = field(default_factory=list)

    @property
    def mean_cycles_per_group(self) -> float:
        """Mean serialized cycles per access group (0 with none)."""
        if not self.group_cycles:
            return 0.0
        return float(np.mean(self.group_cycles))

    @property
    def cycle_variance(self) -> float:
        """Variance of the per-group cycle counts (0 with none)."""
        if not self.group_cycles:
            return 0.0
        return float(np.var(self.group_cycles))


class BankedSram:
    """A group of single-ported SRAM banks accessed in lockstep.

    The unit of work is an *access group*: a set of simultaneous requests
    (e.g. the 8 vertex fetches of one sampled point).  Requests that map to
    distinct banks complete in one cycle; requests that collide on a bank
    serialize, so a group costs ``max(requests per bank)`` cycles.  That is
    exactly the 1-to-8-cycle variability Sec. V-B describes for the
    untiled baseline.
    """

    def __init__(self, n_banks: int, bank: SramBankSpec, tech: Technology = TECH_28NM):
        if n_banks <= 0:
            raise ValueError("n_banks must be positive")
        self.n_banks = n_banks
        self.bank = bank
        self.tech = tech

    def replay_groups(
        self,
        bank_ids: np.ndarray,
        bytes_per_access: int,
        write: bool = False,
    ) -> AccessStats:
        """Replay access groups and account cycles, conflicts and energy.

        Parameters
        ----------
        bank_ids:
            Integer array of shape ``(n_groups, accesses_per_group)``; each
            entry is the bank targeted by one request.
        bytes_per_access:
            Payload of each request.
        write:
            Whether the accesses are writes (affects energy only; writes
            serialize exactly like reads on a single-ported bank).
        """
        bank_ids = np.asarray(bank_ids)
        if bank_ids.ndim != 2:
            raise ValueError("bank_ids must be (n_groups, accesses_per_group)")
        if bank_ids.size and (bank_ids.min() < 0 or bank_ids.max() >= self.n_banks):
            raise ValueError("bank id out of range")
        stats = AccessStats()
        n_groups, per_group = bank_ids.shape
        stats.requests = int(bank_ids.size)
        if n_groups == 0:
            return stats
        # Vectorized per-group max bank load: count occurrences of each
        # bank within each row.
        counts = np.zeros((n_groups, self.n_banks), dtype=np.int32)
        rows = np.repeat(np.arange(n_groups), per_group)
        np.add.at(counts, (rows, bank_ids.ravel()), 1)
        group_cycles = counts.max(axis=1)
        stats.group_cycles = group_cycles.tolist()
        stats.cycles = int(group_cycles.sum())
        stats.conflicts = int((group_cycles - 1).sum())
        nbytes = stats.requests * bytes_per_access
        if write:
            stats.bytes_written = nbytes
            stats.energy_pj = self.bank.write_energy_pj(nbytes, self.tech)
        else:
            stats.bytes_read = nbytes
            stats.energy_pj = self.bank.read_energy_pj(nbytes, self.tech)
        return stats
