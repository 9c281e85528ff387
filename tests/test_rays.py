"""Ray generation (Stage I front end)."""

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.nerf.camera import Camera, look_at
from repro.nerf.rays import (
    RayBundle,
    RayTable,
    generate_rays,
    norm3,
    pixel_directions,
)


@pytest.fixture
def camera():
    return Camera(width=8, height=6, focal=10.0, c2w=look_at((0, -3, 0), (0, 0, 0)))


def test_generate_rays_covers_all_pixels(camera):
    rays = generate_rays(camera)
    assert len(rays) == camera.n_pixels
    assert np.array_equal(rays.pixel_ids, np.arange(camera.n_pixels))


def test_ray_directions_are_unit_norm(camera):
    rays = generate_rays(camera)
    norms = np.linalg.norm(rays.directions, axis=-1)
    assert np.allclose(norms, 1.0)


def test_rays_originate_at_camera_center(camera):
    rays = generate_rays(camera)
    assert np.allclose(rays.origins, camera.origin)


def test_center_pixel_ray_points_along_view_axis(camera):
    center = (camera.height // 2) * camera.width + camera.width // 2
    rays = generate_rays(camera, np.array([center]))
    view_axis = -camera.c2w[:3, 2]
    assert np.dot(rays.directions[0], view_axis) > 0.99


def test_pixel_directions_rejects_out_of_range(camera):
    with pytest.raises(ValueError):
        pixel_directions(camera, np.array([camera.n_pixels]))


def test_corner_pixels_diverge_from_center(camera):
    corner = generate_rays(camera, np.array([0]))
    center_id = (camera.height // 2) * camera.width + camera.width // 2
    center = generate_rays(camera, np.array([center_id]))
    assert not np.allclose(corner.directions, center.directions)


def test_ray_bundle_validates_shapes():
    with pytest.raises(ValueError):
        RayBundle(
            origins=np.zeros((3, 3)),
            directions=np.zeros((2, 3)),
            pixel_ids=np.zeros(3, dtype=np.int64),
        )
    with pytest.raises(ValueError):
        RayBundle(
            origins=np.zeros((3, 3)),
            directions=np.zeros((3, 3)),
            pixel_ids=np.zeros(2, dtype=np.int64),
        )


def _table(dataset, n_views=None):
    return RayTable(
        dataset.cameras[:n_views], dataset.images[:n_views], dataset.normalizer
    )


def test_sample_training_rays_shapes(mic_dataset, rng):
    origins, directions, colors = _table(mic_dataset).sample(64, rng)
    assert origins.shape == directions.shape == colors.shape == (64, 3)
    assert origins.dtype == directions.dtype == colors.dtype == np.float64
    assert np.all((colors >= 0.0) & (colors <= 1.0))


def test_sample_training_rays_colors_match_pixels(mic_dataset, rng):
    _, _, colors = _table(mic_dataset).sample(256, rng)
    # Every returned color must exist somewhere in the image stack.
    flat = mic_dataset.images.reshape(-1, 3)
    for color in colors[:10]:
        assert np.any(np.all(np.isclose(flat, color, atol=1e-12), axis=1))


def test_sample_training_rays_requires_matching_counts(mic_dataset, rng):
    with pytest.raises(ValueError):
        RayTable(
            mic_dataset.cameras[:2], mic_dataset.images, mic_dataset.normalizer
        )


def _expected_rays(dataset_views, normalizer, view_ids, pixel_ids):
    """The rays the table must gather: ``generate_rays`` over each whole
    view, mapped by ``rays_to_unit``, then indexed."""
    origins, directions, colors = [], [], []
    for view, pixel in zip(view_ids, pixel_ids):
        camera, image = dataset_views[view]
        bundle = generate_rays(camera)
        o, d = normalizer.rays_to_unit(bundle.origins, bundle.directions)
        origins.append(o[pixel])
        directions.append(d[pixel])
        colors.append(np.asarray(image, dtype=np.float64).reshape(-1, 3)[pixel])
    return np.array(origins), np.array(directions), np.array(colors)


@pytest.mark.parametrize("scene", ["lego", "mic", "ship", "chair"])
def test_ray_table_gathers_generated_rays_byte_for_byte(scene):
    """Table rays equal ``generate_rays`` + ``rays_to_unit`` byte for
    byte, before and after ``add_view``, and a draw consumes the RNG
    stream as two ``integers`` calls: view ids, then pixel ids."""
    dataset = synthetic.make_dataset(scene, n_views=5, width=12, height=10)
    views = list(zip(dataset.cameras, dataset.images))
    table = RayTable(dataset.cameras[:3], dataset.images[:3], dataset.normalizer)
    for n_views in (3, 4, 5):
        if n_views > len(table.cameras):
            assert table.add_view(*views[n_views - 1]) == n_views
        assert table.images.shape == (n_views, 10, 12, 3)
        for seed in range(4):
            batch = 100 + seed
            rng = np.random.default_rng(seed)
            reference = np.random.default_rng(seed)
            got = table.sample(batch, rng)
            view_ids = reference.integers(0, n_views, size=batch)
            pixel_ids = reference.integers(0, 120, size=batch)
            assert rng.bit_generator.state == reference.bit_generator.state
            want = _expected_rays(views, dataset.normalizer, view_ids, pixel_ids)
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()


def test_ray_table_add_view_rejects_mismatched_shapes(mic_dataset):
    table = _table(mic_dataset, 2)
    with pytest.raises(ValueError, match="does not match"):
        table.add_view(mic_dataset.cameras[0], np.zeros((4, 4, 3)))
    small = Camera(width=4, height=4, focal=5.0, c2w=mic_dataset.cameras[0].c2w)
    with pytest.raises(ValueError, match="pixels"):
        table.add_view(small, mic_dataset.images[0])
    assert len(table.cameras) == 2


# -- column-wise direction norm: bit-identical to np.linalg.norm ---------------

@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_norm3_matches_linalg_norm_bit_for_bit(scale, dtype):
    rng = np.random.default_rng(3)
    v = (rng.normal(size=(4000, 3)) * scale).astype(dtype)
    v[::5, 0] = 0.0
    v[::7, 2] = 0.0
    v[::11] = 0.0
    got = norm3(*v.T)
    expected = np.linalg.norm(v, axis=-1)
    assert got.dtype == expected.dtype
    assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("eye", [(0, -3, 0), (2.0, 1.5, -0.7), (0, 0, 4)])
def test_pixel_directions_match_row_wise_norm(eye):
    camera = Camera(width=17, height=11, focal=13.0, c2w=look_at(eye, (0, 0, 0)))
    ids = np.arange(camera.n_pixels)
    ys, xs = np.divmod(ids, camera.width)
    cam_dirs = np.stack(
        [
            (xs + 0.5 - camera.width / 2.0) / camera.focal,
            -(ys + 0.5 - camera.height / 2.0) / camera.focal,
            -np.ones_like(xs, dtype=np.float64),
        ],
        axis=-1,
    )
    expected = cam_dirs @ camera.c2w[:3, :3].T
    expected /= np.linalg.norm(expected, axis=-1, keepdims=True)
    assert pixel_directions(camera, ids).tobytes() == expected.tobytes()
