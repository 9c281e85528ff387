"""Multiresolution hash encoding, including the two hash properties the
hardware tiling relies on (Sec. V-B)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nerf.hash_encoding import (
    CORNER_OFFSETS,
    HashEncoding,
    HashEncodingConfig,
    PRIMES,
    hash_vertices,
)

_coord = st.integers(0, 10_000)


def test_primes_x_factor_is_one():
    """The X factor must be 1 for the Level-3 parity property."""
    assert PRIMES[0] == 1


@given(x=_coord, y=_coord, z=_coord, log2_t=st.integers(4, 16))
@settings(max_examples=80, deadline=None)
def test_parity_property_x_neighbors(x, y, z, log2_t):
    """Vertices offset by one in X always have opposite index parity —
    the invariant behind Level-3 ("parity") tiling."""
    t = 1 << log2_t
    a = hash_vertices(np.array([x, y, z]), t)
    b = hash_vertices(np.array([x + 1, y, z]), t)
    assert (a % 2) != (b % 2)


def test_yz_offset_spreads_indices():
    """Y/Z neighbors land far apart in the table (Level-2 tiling)."""
    t = 1 << 14
    rng = np.random.default_rng(0)
    base = rng.integers(0, 1000, size=(512, 3))
    d_y = np.abs(
        hash_vertices(base + [0, 1, 0], t).astype(np.int64)
        - hash_vertices(base, t).astype(np.int64)
    )
    # Mean wrap-around distance of a uniform spread is ~T/4.
    wrapped = np.minimum(d_y, t - d_y)
    assert wrapped.mean() > t / 8


def test_hash_indices_in_range():
    coords = np.arange(30).reshape(10, 3)
    idx = hash_vertices(coords, 256)
    assert np.all((idx >= 0) & (idx < 256))


def test_hash_rejects_bad_trailing_dim():
    with pytest.raises(ValueError):
        hash_vertices(np.zeros((4, 2)), 16)


def test_corner_offsets_enumerate_cube():
    assert CORNER_OFFSETS.shape == (8, 3)
    assert len({tuple(c) for c in CORNER_OFFSETS}) == 8
    assert CORNER_OFFSETS.min() == 0 and CORNER_OFFSETS.max() == 1


def test_config_resolutions_geometric(tiny_encoding_config):
    res = tiny_encoding_config.level_resolutions
    assert res[0] == tiny_encoding_config.base_resolution
    assert res[-1] == tiny_encoding_config.finest_resolution
    assert np.all(np.diff(res) > 0)


def test_config_validation():
    with pytest.raises(ValueError):
        HashEncodingConfig(n_levels=0)
    with pytest.raises(ValueError):
        HashEncodingConfig(base_resolution=32, finest_resolution=16)


def test_config_sizes():
    cfg = HashEncodingConfig(n_levels=4, n_features=2, log2_table_size=10)
    assert cfg.table_size == 1024
    assert cfg.output_dim == 8
    assert cfg.n_parameters == 4 * 1024 * 2


def test_forward_shapes(tiny_encoding):
    pts = np.random.default_rng(1).uniform(0, 1, (7, 3))
    feats, trace = tiny_encoding.forward(pts)
    cfg = tiny_encoding.config
    assert feats.shape == (7, cfg.output_dim)
    assert trace.n_points == 7
    assert len(trace.indices) == cfg.n_levels
    assert trace.indices[0].shape == (7, 8)
    assert trace.weights[0].shape == (7, 8)


def test_forward_deterministic(tiny_encoding):
    pts = np.random.default_rng(2).uniform(0, 1, (5, 3))
    a, _ = tiny_encoding.forward(pts)
    b, _ = tiny_encoding.forward(pts)
    assert np.array_equal(a, b)


def test_trilinear_weights_partition_of_unity(tiny_encoding):
    pts = np.random.default_rng(3).uniform(0, 1, (16, 3))
    for level in range(tiny_encoding.config.n_levels):
        _, _, weights = tiny_encoding.level_lookup(pts, level)
        assert np.allclose(weights.sum(axis=1), 1.0)
        assert np.all(weights >= 0)


def test_encoding_is_continuous_across_cells(tiny_encoding):
    """Feature values must agree when approaching a cell face from both
    sides (trilinear interpolation is C0)."""
    eps = 1e-9
    res = int(tiny_encoding.config.level_resolutions[0])
    boundary = 1.0 / res
    left = np.array([[boundary - eps, 0.3, 0.3]])
    right = np.array([[boundary + eps, 0.3, 0.3]])
    fa, _ = tiny_encoding.forward(left)
    fb, _ = tiny_encoding.forward(right)
    assert np.allclose(fa, fb, atol=1e-6)


def test_backward_matches_finite_difference(tiny_encoding):
    rng = np.random.default_rng(4)
    pts = rng.uniform(0, 1, (6, 3))
    feats, trace = tiny_encoding.forward(pts)
    grad_out = rng.normal(size=feats.shape)
    grads = tiny_encoding.backward(grad_out, trace)
    # Check three touched entries against central differences.
    touched = np.argwhere(np.abs(grads) > 1e-12)
    rng.shuffle(touched)
    for level, entry, feat in touched[:3]:
        eps = 1e-6
        original = tiny_encoding.tables[level, entry, feat]
        tiny_encoding.tables[level, entry, feat] = original + eps
        up, _ = tiny_encoding.forward(pts)
        tiny_encoding.tables[level, entry, feat] = original - eps
        down, _ = tiny_encoding.forward(pts)
        tiny_encoding.tables[level, entry, feat] = original
        numeric = ((up - down) * grad_out).sum() / (2 * eps)
        assert np.isclose(grads[level, entry, feat], numeric, atol=1e-6)


def test_backward_accumulates_shared_vertices(tiny_encoding):
    """Two points in the same cell scatter into the same table entries."""
    pts = np.array([[0.31, 0.31, 0.31], [0.32, 0.32, 0.32]])
    feats, trace = tiny_encoding.forward(pts)
    g = np.ones_like(feats)
    both = tiny_encoding.backward(g, trace)
    single_feats, single_trace = tiny_encoding.forward(pts[:1])
    single = tiny_encoding.backward(np.ones_like(single_feats), single_trace)
    # The accumulated gradient must exceed the single-point gradient where
    # they overlap.
    overlap = (np.abs(single) > 0) & (np.abs(both) > 0)
    assert overlap.any()
    assert np.all(np.abs(both[overlap]) >= np.abs(single[overlap]) - 1e-12)


def test_backward_validates_shape(tiny_encoding):
    pts = np.random.default_rng(5).uniform(0, 1, (4, 3))
    _, trace = tiny_encoding.forward(pts)
    with pytest.raises(ValueError):
        tiny_encoding.backward(np.zeros((4, 3)), trace)


def test_parameter_round_trip(tiny_encoding):
    params = tiny_encoding.parameters()
    assert "hash_tables" in params
    tiny_encoding.load_parameters({"hash_tables": params["hash_tables"] * 2.0})
    with pytest.raises(ValueError):
        tiny_encoding.load_parameters({"hash_tables": np.zeros((1, 2, 3))})
