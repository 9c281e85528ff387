"""Ray-box intersection: general slab test vs the T1-1 normalized path."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nerf.aabb import (
    GENERAL_INTERSECT_COST,
    NORMALIZED_INTERSECT_COST,
    SceneNormalizer,
    intersect_aabb_general,
    intersect_octants,
    intersect_unit_cube,
    octant_bounds,
)

_coord = st.floats(-3.0, 3.0, allow_nan=False)
_dir_component = st.floats(-1.0, 1.0, allow_nan=False).filter(lambda x: abs(x) > 1e-3)


@given(
    origin=st.tuples(_coord, _coord, _coord),
    direction=st.tuples(_dir_component, _dir_component, _dir_component),
)
@settings(max_examples=60, deadline=None)
def test_normalized_path_matches_general_on_unit_cube(origin, direction):
    """T1-1's simplified equations must agree with the full slab test."""
    o = np.array([origin])
    d = np.array([direction])
    t0_g, t1_g, hit_g = intersect_aabb_general(o, d, np.zeros(3), np.ones(3))
    t0_n, t1_n, hit_n = intersect_unit_cube(o, d)
    assert hit_g[0] == hit_n[0]
    if hit_g[0]:
        assert np.isclose(t0_g[0], t0_n[0], atol=1e-9)
        assert np.isclose(t1_g[0], t1_n[0], atol=1e-9)


def test_general_intersection_through_center():
    t0, t1, hit = intersect_aabb_general(
        np.array([[-2.0, 0.5, 0.5]]),
        np.array([[1.0, 0.0, 0.0]]),
        np.zeros(3),
        np.ones(3),
    )
    assert hit[0]
    assert np.isclose(t0[0], 2.0)
    assert np.isclose(t1[0], 3.0)


def test_general_intersection_miss():
    _, _, hit = intersect_aabb_general(
        np.array([[-2.0, 5.0, 0.5]]),
        np.array([[1.0, 0.0, 0.0]]),
        np.zeros(3),
        np.ones(3),
    )
    assert not hit[0]


def test_general_intersection_behind_origin_is_miss():
    _, _, hit = intersect_aabb_general(
        np.array([[2.0, 0.5, 0.5]]),
        np.array([[1.0, 0.0, 0.0]]),
        np.zeros(3),
        np.ones(3),
    )
    assert not hit[0]


def test_origin_inside_cube_enters_at_zero():
    t0, t1, hit = intersect_unit_cube(
        np.array([[0.5, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]])
    )
    assert hit[0]
    assert t0[0] == 0.0
    assert np.isclose(t1[0], 0.5)


def test_general_rejects_degenerate_box():
    with pytest.raises(ValueError):
        intersect_aabb_general(
            np.zeros((1, 3)), np.ones((1, 3)), np.ones(3), np.ones(3)
        )


def test_op_cost_constants_match_paper():
    assert GENERAL_INTERSECT_COST == {"div": 18, "mul": 54, "add": 54}
    assert NORMALIZED_INTERSECT_COST == {"mul": 3, "mac": 3}


def test_octant_bounds_partition_unit_cube():
    mins, maxs = octant_bounds()
    assert mins.shape == (8, 3)
    assert np.all(maxs - mins == 0.5)
    # All eight octants are distinct and tile [0,1]^3.
    assert len({tuple(m) for m in mins}) == 8
    volume = np.prod(maxs - mins, axis=1).sum()
    assert np.isclose(volume, 1.0)


def test_octant_index_encoding():
    mins, _ = octant_bounds()
    # Octant 5 = x bit 1, y bit 0, z bit 1.
    assert np.allclose(mins[5], [0.5, 0.0, 0.5])


def test_intersect_octants_spans_match_unit_cube():
    o = np.array([[-1.0, 0.3, 0.6]])
    d = np.array([[1.0, 0.05, -0.02]])
    pairs = intersect_octants(o, d)
    t0, t1, hit = intersect_unit_cube(o, d)
    assert hit[0]
    # The octant segments must tile the full cube chord.
    total = (pairs.t1 - pairs.t0).sum()
    assert np.isclose(total, t1[0] - t0[0], atol=1e-9)


def test_intersect_octants_pair_counts_in_paper_range():
    rng = np.random.default_rng(0)
    o = np.array([[0.5, 0.5, -2.0]]) + rng.normal(0, 0.2, (64, 3))
    d = np.array([[0.0, 0.0, 1.0]]) + rng.normal(0, 0.2, (64, 3))
    pairs = intersect_octants(o, d)
    counts = pairs.pairs_per_ray
    hitting = counts[counts > 0]
    assert hitting.size > 16  # most of the jittered rays hit the cube
    assert hitting.max() <= 4  # a ray crosses at most 4 octants


def test_intersect_octants_miss_gives_no_pairs():
    pairs = intersect_octants(
        np.array([[5.0, 5.0, 5.0]]), np.array([[1.0, 0.0, 0.0]])
    )
    assert len(pairs) == 0
    assert pairs.pairs_per_ray[0] == 0


@given(
    points=st.lists(
        st.tuples(_coord, _coord, _coord), min_size=1, max_size=8
    )
)
@settings(max_examples=40, deadline=None)
def test_normalizer_round_trip(points):
    normalizer = SceneNormalizer.from_aabb((-2.0, -1.0, 0.0), (2.0, 3.0, 4.0))
    pts = np.array(points)
    assert np.allclose(normalizer.from_unit(normalizer.to_unit(pts)), pts)


def test_normalizer_maps_box_into_unit_cube():
    normalizer = SceneNormalizer.from_aabb((-2.0, -1.0, 0.0), (2.0, 3.0, 4.0))
    corners = np.array([[-2.0, -1.0, 0.0], [2.0, 3.0, 4.0]])
    unit = normalizer.to_unit(corners)
    assert np.all(unit >= -1e-12)
    assert np.all(unit <= 1.0 + 1e-12)


def test_normalizer_is_isotropic():
    """A single scale factor: directions keep their relative geometry."""
    normalizer = SceneNormalizer.from_aabb((0.0, 0.0, 0.0), (2.0, 8.0, 4.0))
    _, d = normalizer.rays_to_unit(np.zeros((1, 3)), np.array([[3.0, 4.0, 0.0]]))
    # Isotropic scaling preserves direction angles exactly.
    assert np.isclose(d[0, 0] / d[0, 1], 3.0 / 4.0)


def test_normalizer_rejects_degenerate_box():
    with pytest.raises(ValueError):
        SceneNormalizer.from_aabb((1.0, 0.0, 0.0), (1.0, 1.0, 1.0))


# -- column-wise slab spans: bit-identical to the row-wise reductions ----------

def _slab_rows(t_low, t_high):
    """The length-3 trailing-axis reductions the column kernels replaced."""
    return (
        np.minimum(t_low, t_high).max(axis=-1),
        np.maximum(t_low, t_high).min(axis=-1),
    )


def _safe_inverse_rows(d):
    return 1.0 / np.where(np.abs(d) < 1e-12, np.copysign(1e-12, d + 1e-12), d)


def _unit_cube_rows(o, d):
    inv_d = _safe_inverse_rows(d)
    prod = o * inv_d
    t_near, t_far = _slab_rows(-prod, inv_d - prod)
    t0 = np.maximum(t_near, 0.0)
    return t0, t_far, t_far > t0


def _box_rows(lo, hi):
    """Row-wise slab test against the box ``[lo, hi]``."""

    def reference(o, d):
        inv_d = _safe_inverse_rows(d)
        t_near, t_far = _slab_rows(
            (np.asarray(lo) - o) * inv_d, (np.asarray(hi) - o) * inv_d
        )
        t0 = np.maximum(t_near, 0.0)
        return t0, t_far, t_far > t0

    return reference


def _all_octants_rows(o, d):
    inv_d = _safe_inverse_rows(d)
    mins, maxs = octant_bounds()
    t_near, t_far = _slab_rows(
        (mins[None] - o[:, None]) * inv_d[:, None],
        (maxs[None] - o[:, None]) * inv_d[:, None],
    )
    t0 = np.maximum(t_near, 0.0)
    ray_idx, cube_idx = np.nonzero(t_far > t0 + 1e-12)
    return ray_idx, cube_idx, t0[ray_idx, cube_idx], t_far[ray_idx, cube_idx]


def _seeded_rays(seed):
    """Rays around the unit cube: many miss it, every fifth, seventh and
    eleventh direction has a zero component (the ``_safe_inverse``
    path) and every thirteenth points straight down the z axis."""
    rng = np.random.default_rng(seed)
    o = rng.normal(0.5, 1.2, size=(3000, 3))
    d = rng.normal(size=(3000, 3))
    d[::5, 0] = 0.0
    d[::7, 1] = 0.0
    d[::11, 2] = 0.0
    d[::13] = [0.0, 0.0, -1.0]
    return o, d


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _octant_pairs(o, d):
    pairs = intersect_octants(o, d)
    return pairs.ray_idx, pairs.cube_idx, pairs.t0, pairs.t1


_OCTANT = ([0.5, 0.0, 0.5], [1.0, 0.5, 1.0])
_BOX = ([-0.3, 0.1, 0.2], [0.8, 1.4, 0.9])

_SLAB_KERNELS = {
    "unit_cube": (intersect_unit_cube, _unit_cube_rows),
    "octant": (
        lambda o, d: intersect_unit_cube(
            o, d, cube_min=_OCTANT[0], cube_max=_OCTANT[1]
        ),
        _box_rows(*_OCTANT),
    ),
    "general": (
        lambda o, d: intersect_aabb_general(o, d, *_BOX),
        _box_rows(*_BOX),
    ),
    "octants": (_octant_pairs, _all_octants_rows),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("kernel", sorted(_SLAB_KERNELS))
def test_slab_tests_match_row_wise_reductions_bit_for_bit(kernel, seed):
    new, reference = _SLAB_KERNELS[kernel]
    o, d = _seeded_rays(seed)
    got, expected = new(o, d), reference(o, d)
    assert len(got) == len(expected)
    assert all(_same_bits(a, b) for a, b in zip(got, expected))
    # The batch must exercise hits and misses alike.
    _, _, hit = _unit_cube_rows(o, d)
    assert 0 < np.count_nonzero(hit) < len(o)
