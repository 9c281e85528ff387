"""Volumetric rendering: compositing invariants and gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.nerf.volume_rendering import (
    composite,
    composite_backward,
    psnr,
    segment_starts,
    segment_sum,
    segmented_exclusive_cumsum,
)


def _random_samples(rng, n_rays=4, n_samples=24):
    ray_idx = np.sort(rng.integers(0, n_rays, n_samples))
    sigmas = rng.uniform(0.0, 8.0, n_samples)
    rgbs = rng.uniform(0.0, 1.0, (n_samples, 3))
    deltas = rng.uniform(0.01, 0.05, n_samples)
    ts = np.arange(n_samples, dtype=np.float64) * 0.01
    return sigmas, rgbs, deltas, ts, ray_idx


def test_segment_starts_fence_posts():
    fences = segment_starts(np.array([0, 0, 2, 2, 2]), 4)
    assert np.array_equal(fences, [0, 2, 2, 5, 5])


def test_segment_starts_rejects_unsorted():
    with pytest.raises(ValueError):
        segment_starts(np.array([1, 0]), 2)


def test_segmented_exclusive_cumsum():
    fences = np.array([0, 2, 5])
    out = segmented_exclusive_cumsum(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), fences)
    assert np.allclose(out, [0.0, 1.0, 0.0, 3.0, 7.0])


def test_segmented_exclusive_cumsum_empty():
    out = segmented_exclusive_cumsum(np.empty(0), np.array([0, 0, 0]))
    assert out.size == 0


def test_segmented_exclusive_cumsum_trailing_empty_segment():
    fences = np.array([0, 3, 3])
    out = segmented_exclusive_cumsum(np.array([1.0, 1.0, 1.0]), fences)
    assert np.allclose(out, [0.0, 1.0, 2.0])


def test_segment_sum_vector_values():
    values = np.ones((4, 2))
    out = segment_sum(values, np.array([0, 0, 1, 1]), 3)
    assert np.allclose(out, [[2, 2], [2, 2], [0, 0]])


def test_composite_weights_bounded(rng):
    sigmas, rgbs, deltas, ts, ray_idx = _random_samples(rng)
    result = composite(sigmas, rgbs, deltas, ts, ray_idx, 4)
    assert np.all(result.weights >= 0.0)
    assert np.all(result.weights <= 1.0)
    assert np.all(result.opacity <= 1.0 + 1e-12)


def test_composite_opaque_wall_returns_its_color():
    n = 16
    result = composite(
        np.full(n, 1e4),
        np.tile([0.2, 0.6, 0.9], (n, 1)),
        np.full(n, 0.1),
        np.arange(n) * 0.1,
        np.zeros(n, dtype=np.int64),
        1,
        background=0.0,
    )
    assert np.allclose(result.colors[0], [0.2, 0.6, 0.9], atol=1e-6)
    assert result.opacity[0] == pytest.approx(1.0)


def test_composite_vacuum_returns_background():
    n = 8
    result = composite(
        np.zeros(n),
        np.random.default_rng(0).uniform(size=(n, 3)),
        np.full(n, 0.1),
        np.arange(n) * 0.1,
        np.zeros(n, dtype=np.int64),
        1,
        background=0.75,
    )
    assert np.allclose(result.colors[0], 0.75)
    assert result.opacity[0] == pytest.approx(0.0)


def test_composite_empty_ray_gets_background():
    result = composite(
        np.array([5.0]),
        np.array([[1.0, 0.0, 0.0]]),
        np.array([0.1]),
        np.array([0.0]),
        np.array([1]),  # ray 0 has no samples
        2,
        background=1.0,
    )
    assert np.allclose(result.colors[0], 1.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_segment_sum_of_empty_batch_is_zero():
    no_rays = np.zeros(0, dtype=np.intp)
    for values in (np.zeros(0), np.zeros((0, 3)), np.zeros((0, 2, 2))):
        out = segment_sum(values, no_rays, 3)
        assert out.dtype == np.float64
        assert out.shape == (3,) + values.shape[1:]
        assert not out.any()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("background", [0.0, 0.25, 1.0])
def test_composite_without_samples_is_background(background):
    no_rays = np.zeros(0, dtype=np.intp)
    empty = np.zeros(0)
    result = composite(
        empty, np.zeros((0, 3)), empty, empty, no_rays, 5, background=background
    )
    assert result.colors.dtype == np.float64
    assert (result.colors == background).all() and result.colors.shape == (5, 3)
    assert not result.opacity.any() and not result.depth.any()
    assert result.opacity.dtype == result.depth.dtype == np.float64
    grad_sigma, grad_rgb = composite_backward(
        np.ones((5, 3)), result, empty, np.zeros((0, 3)), empty, no_rays, 5,
        background=background,
    )
    assert grad_sigma.shape == (0,) and grad_rgb.shape == (0, 3)
    assert grad_sigma.dtype == grad_rgb.dtype == np.float64


def test_composite_front_sample_occludes_back():
    sigmas = np.array([50.0, 50.0])
    rgbs = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    deltas = np.array([0.2, 0.2])
    result = composite(
        sigmas, rgbs, deltas, np.array([0.0, 0.2]), np.array([0, 0]), 1,
        background=0.0,
    )
    assert result.colors[0, 0] > result.colors[0, 1]


def test_composite_depth_is_weighted_distance():
    result = composite(
        np.array([1e4]),
        np.array([[0.5, 0.5, 0.5]]),
        np.array([0.5]),
        np.array([0.7]),
        np.array([0]),
        1,
    )
    assert result.depth[0] == pytest.approx(0.7, abs=1e-6)


def test_composite_validates_lengths():
    with pytest.raises(ValueError):
        composite(
            np.zeros(3), np.zeros((2, 3)), np.zeros(3), np.zeros(3),
            np.zeros(3, dtype=np.int64), 1,
        )


@given(seed=st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_transmittance_monotone_within_ray(seed):
    rng = np.random.default_rng(seed)
    sigmas, rgbs, deltas, ts, ray_idx = _random_samples(rng)
    result = composite(sigmas, rgbs, deltas, ts, ray_idx, 4)
    fences = segment_starts(ray_idx, 4)
    for start, stop in zip(fences[:-1], fences[1:]):
        T = result.transmittance[start:stop]
        assert np.all(np.diff(T) <= 1e-12)


def test_backward_sigma_matches_finite_difference(rng):
    sigmas, rgbs, deltas, ts, ray_idx = _random_samples(rng)
    result = composite(sigmas, rgbs, deltas, ts, ray_idx, 4)
    grad_colors = rng.normal(size=(4, 3))
    grad_sigma, _ = composite_backward(
        grad_colors, result, sigmas, rgbs, deltas, ray_idx, 4
    )
    eps = 1e-7
    for k in (0, 7, 15, 23):
        bumped = sigmas.copy()
        bumped[k] += eps
        up = composite(bumped, rgbs, deltas, ts, ray_idx, 4)
        bumped[k] -= 2 * eps
        down = composite(bumped, rgbs, deltas, ts, ray_idx, 4)
        numeric = ((up.colors - down.colors) * grad_colors).sum() / (2 * eps)
        assert np.isclose(grad_sigma[k], numeric, atol=1e-5)


def test_backward_rgb_gradient_is_weights(rng):
    sigmas, rgbs, deltas, ts, ray_idx = _random_samples(rng)
    result = composite(sigmas, rgbs, deltas, ts, ray_idx, 4)
    grad_colors = np.ones((4, 3))
    _, grad_rgb = composite_backward(
        grad_colors, result, sigmas, rgbs, deltas, ray_idx, 4
    )
    assert np.allclose(grad_rgb, result.weights[:, None])


def test_backward_with_nonzero_background(rng):
    sigmas, rgbs, deltas, ts, ray_idx = _random_samples(rng)
    bg = 1.0
    result = composite(sigmas, rgbs, deltas, ts, ray_idx, 4, background=bg)
    grad_colors = rng.normal(size=(4, 3))
    grad_sigma, _ = composite_backward(
        grad_colors, result, sigmas, rgbs, deltas, ray_idx, 4, background=bg
    )
    eps = 1e-7
    k = 5
    bumped = sigmas.copy()
    bumped[k] += eps
    up = composite(bumped, rgbs, deltas, ts, ray_idx, 4, background=bg)
    bumped[k] -= 2 * eps
    down = composite(bumped, rgbs, deltas, ts, ray_idx, 4, background=bg)
    numeric = ((up.colors - down.colors) * grad_colors).sum() / (2 * eps)
    assert np.isclose(grad_sigma[k], numeric, atol=1e-5)


def test_psnr_known_values():
    a = np.zeros((4, 4))
    b = np.full((4, 4), 0.1)
    assert psnr(a, b) == pytest.approx(20.0)
    assert psnr(a, a) == float("inf")


def test_psnr_shape_mismatch():
    with pytest.raises(ValueError):
        psnr(np.zeros(3), np.zeros(4))
