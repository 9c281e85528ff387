"""SRAM bank model: conflict serialization and cost accounting."""

import numpy as np
import pytest

from repro.hw.sram import AccessStats, BankedSram, SramBankSpec


@pytest.fixture
def banks():
    return BankedSram(8, SramBankSpec(size_kb=4.0))


def test_conflict_free_group_is_one_cycle(banks):
    ids = np.arange(8)[None, :]
    stats = banks.replay_groups(ids, bytes_per_access=4)
    assert stats.cycles == 1
    assert stats.conflicts == 0


def test_full_conflict_group_serializes(banks):
    ids = np.zeros((1, 8), dtype=int)
    stats = banks.replay_groups(ids, bytes_per_access=4)
    assert stats.cycles == 8
    assert stats.conflicts == 7


def test_partial_conflicts(banks):
    ids = np.array([[0, 0, 1, 2, 3, 4, 5, 6]])
    stats = banks.replay_groups(ids, bytes_per_access=4)
    assert stats.cycles == 2


def test_group_cycles_recorded_per_group(banks):
    ids = np.array([[0, 1], [2, 2], [3, 3]])
    stats = banks.replay_groups(ids, bytes_per_access=4)
    assert stats.group_cycles == [1, 2, 2]
    assert stats.mean_cycles_per_group == pytest.approx(5 / 3)
    assert stats.cycle_variance > 0


def test_read_and_write_energy_differ(banks):
    ids = np.arange(8)[None, :]
    read = banks.replay_groups(ids, bytes_per_access=4)
    write = banks.replay_groups(ids, bytes_per_access=4, write=True)
    assert read.bytes_read == 32 and read.bytes_written == 0
    assert write.bytes_written == 32 and write.bytes_read == 0
    assert write.energy_pj > read.energy_pj


def test_empty_replay(banks):
    stats = banks.replay_groups(np.empty((0, 8), dtype=int), bytes_per_access=4)
    assert stats.cycles == 0
    assert stats.mean_cycles_per_group == 0.0
    assert stats.cycle_variance == 0.0


def test_replay_validates_inputs(banks):
    with pytest.raises(ValueError):
        banks.replay_groups(np.zeros(8, dtype=int), bytes_per_access=4)
    with pytest.raises(ValueError):
        banks.replay_groups(np.full((1, 8), 9), bytes_per_access=4)


def test_bank_count_validation():
    with pytest.raises(ValueError):
        BankedSram(0, SramBankSpec(size_kb=1.0))


def test_bank_spec_energy_scales_with_bytes():
    spec = SramBankSpec(size_kb=4.0)
    assert spec.read_energy_pj(64) == pytest.approx(2 * spec.read_energy_pj(32))


def test_access_stats_defaults():
    stats = AccessStats()
    assert stats.requests == 0
    assert stats.mean_cycles_per_group == 0.0
