"""Two-level hash tiling (T4): the conflict-freedom proof in test form."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nerf.hash_encoding import CORNER_OFFSETS, hash_vertices
from repro.sim.hash_tiling import (
    BaselineBanking,
    TwoLevelTiling,
    compare_tilings,
    replay_feature_fetches,
)


def _fetch_groups(rng, n=256, table_size=1 << 12):
    base = rng.integers(0, 500, size=(n, 3))
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    indices = hash_vertices(corners, table_size)
    return corners, indices


@given(x=st.integers(0, 5000), y=st.integers(0, 5000), z=st.integers(0, 5000))
@settings(max_examples=100, deadline=None)
def test_two_level_tiling_is_conflict_free_for_any_sample(x, y, z):
    """The core hardware invariant: for ANY sampled point, the eight
    vertex fetches map to eight distinct banks."""
    corners = np.array([x, y, z]) + CORNER_OFFSETS
    indices = hash_vertices(corners, 1 << 14)
    banks = TwoLevelTiling().bank_ids(corners[None], indices[None])[0]
    assert len(set(banks.tolist())) == 8


def test_tiled_replay_always_one_cycle(rng):
    corners, indices = _fetch_groups(rng)
    stats = replay_feature_fetches(corners, indices, TwoLevelTiling())
    assert stats.cycles == corners.shape[0]
    assert stats.conflicts == 0
    assert stats.cycle_variance == 0.0


def test_baseline_replay_has_conflicts(rng):
    corners, indices = _fetch_groups(rng)
    stats = replay_feature_fetches(corners, indices, BaselineBanking())
    assert stats.conflicts > 0
    assert stats.cycle_variance > 0.0
    assert stats.mean_cycles_per_group > 1.0


def test_comparison_latency_saving_positive(rng):
    corners, indices = _fetch_groups(rng)
    cmp = compare_tilings(corners, indices)
    assert 0.0 < cmp.latency_saving < 1.0
    assert cmp.tiled_variance == 0.0
    assert cmp.baseline_variance > 0.0


def test_access_pattern_diagonal_when_tiled(rng):
    """Fig. 12(e): with aligned sample bases, each vertex slot owns
    exactly one bank (a permutation matrix); in general every access
    group still covers all eight banks exactly once."""
    base = 2 * rng.integers(0, 250, size=(256, 3))  # even-parity bases
    corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
    indices = hash_vertices(corners, 1 << 12)
    bank_ids = TwoLevelTiling().bank_ids(corners, indices)  # (n, 8 slots)
    assert np.all(bank_ids == bank_ids[:1])
    # And it is a permutation: each bank serves exactly one slot.
    assert sorted(bank_ids[0]) == list(range(8))


def test_access_pattern_smeared_for_baseline(rng):
    corners, indices = _fetch_groups(rng)
    bank_ids = BaselineBanking().bank_ids(corners, indices)
    banks_per_slot = [np.unique(bank_ids[:, slot]).size for slot in range(8)]
    assert max(banks_per_slot) > 4


def test_bank_ids_stable_per_vertex(rng):
    """A physical vertex always lands in the same bank (the mapping is a
    storage layout, not a per-access choice)."""
    corners, indices = _fetch_groups(rng, n=64)
    tiling = TwoLevelTiling()
    banks_a = tiling.bank_ids(corners, indices)
    banks_b = tiling.bank_ids(corners, indices)
    assert np.array_equal(banks_a, banks_b)


def test_bank_ids_shape_validation(rng):
    corners, indices = _fetch_groups(rng, n=4)
    with pytest.raises(ValueError):
        TwoLevelTiling().bank_ids(corners, indices[:2])


def test_baseline_bank_count_configurable(rng):
    corners, indices = _fetch_groups(rng, n=32)
    banking = BaselineBanking(n_banks=4)
    banks = banking.bank_ids(corners, indices)
    assert banks.max() < 4
