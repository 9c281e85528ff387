"""Procedural datasets: the NeRF-Synthetic / NeRF-360 stand-ins."""

import numpy as np
import pytest

from repro.datasets import nerf360, synthetic
from repro.datasets.generator import AnalyticScene, Primitive


def test_synthetic_registry_has_eight_scenes():
    assert len(synthetic.SYNTHETIC_SCENES) == 8
    assert set(synthetic.SYNTHETIC_SCENES) == {
        "chair", "drums", "ficus", "hotdog", "lego", "materials", "mic", "ship",
    }


def test_nerf360_registry_has_seven_scenes():
    assert nerf360.NERF360_SCENES == (
        "bicycle", "bonsai", "counter", "garden", "kitchen", "room", "stump",
    )


def test_unknown_scene_raises():
    with pytest.raises(KeyError):
        synthetic.make_scene("teapot")
    with pytest.raises(KeyError):
        nerf360.make_scene("office")


def test_scene_construction_deterministic():
    a = synthetic.make_scene("drums")
    b = synthetic.make_scene("drums")
    assert len(a.primitives) == len(b.primitives)
    assert a.primitives[0].center == b.primitives[0].center


def test_mic_sparser_than_ship():
    """Workload ordering that drives Table VI's speedup spread."""
    mic = synthetic.make_scene("mic").occupancy_fraction()
    ship = synthetic.make_scene("ship").occupancy_fraction()
    assert mic < ship
    assert mic < 0.05
    assert ship > 0.05


def test_garden_is_densest_360_scene():
    """Table V: garden must be the GPU-friendliest (densest) scene."""
    fractions = {
        name: nerf360.make_scene(name).occupancy_fraction()
        for name in ("bicycle", "garden", "stump")
    }
    assert fractions["garden"] > fractions["bicycle"]
    assert fractions["garden"] > fractions["stump"]


def test_primitive_kinds():
    sphere = Primitive("sphere", (0, 0, 0), (0.5,), (1, 0, 0))
    box = Primitive("box", (0, 0, 0), (0.5, 0.5, 0.5), (1, 0, 0))
    shell = Primitive("shell", (0, 0, 0), (0.5, 0.1), (1, 0, 0))
    center = np.zeros((1, 3))
    assert sphere.signed_distance(center)[0] < 0
    assert box.signed_distance(center)[0] < 0
    assert shell.signed_distance(center)[0] > 0  # hollow at the center
    surface = np.array([[0.5, 0.0, 0.0]])
    assert abs(sphere.signed_distance(surface)[0]) < 1e-9


def test_primitive_unknown_kind_raises():
    prim = Primitive("torus", (0, 0, 0), (0.5,), (1, 0, 0))
    with pytest.raises(ValueError):
        prim.signed_distance(np.zeros((1, 3)))


def test_primitive_density_smooth_edge():
    prim = Primitive("sphere", (0, 0, 0), (0.5,), (1, 0, 0), density=40.0, edge=0.1)
    inside = prim.density_at(np.zeros((1, 3)))[0]
    edge = prim.density_at(np.array([[0.5, 0.0, 0.0]]))[0]
    outside = prim.density_at(np.array([[0.8, 0.0, 0.0]]))[0]
    assert inside == pytest.approx(40.0)
    assert edge == pytest.approx(20.0)
    assert outside == 0.0


def test_scene_density_is_union_max():
    scene = AnalyticScene(
        name="test",
        primitives=[
            Primitive("sphere", (0.0, 0, 0), (0.3,), (1, 0, 0), density=10.0),
            Primitive("sphere", (0.1, 0, 0), (0.3,), (0, 1, 0), density=40.0),
        ],
        world_min=(-1, -1, -1),
        world_max=(1, 1, 1),
    )
    assert scene.density(np.zeros((1, 3)))[0] == pytest.approx(40.0)


def test_scene_color_bounded(mic_dataset):
    pts = np.random.default_rng(0).uniform(-1, 1, (32, 3))
    _, colors = mic_dataset.scene.density_and_color(pts)
    assert np.all((colors >= 0.0) & (colors <= 1.0))


def test_rendered_images_valid(mic_dataset):
    assert mic_dataset.images.shape == (6, 24, 24, 3)
    assert mic_dataset.images.min() >= 0.0
    assert mic_dataset.images.max() <= 1.0
    # The object must actually be visible (not all background).
    assert mic_dataset.images.min() < 0.9


def test_render_multi_view_consistent_background(mic_dataset):
    """Corners of object-scene views see pure background."""
    corners = mic_dataset.images[:, 0, 0, :]
    assert np.allclose(corners, 1.0, atol=0.05)


def test_dataset_split(mic_dataset):
    train_cams, train_imgs, test_cams, test_imgs = mic_dataset.split(4)
    assert len(train_cams) == 4
    assert len(test_cams) == 2
    assert train_imgs.shape[0] == 4
    with pytest.raises(ValueError):
        mic_dataset.split(0)


def test_scene_rejects_degenerate_world():
    with pytest.raises(ValueError):
        AnalyticScene(
            name="bad", primitives=[], world_min=(1, 0, 0), world_max=(1, 1, 1)
        )


def test_occupancy_fraction_in_unit_range():
    frac = synthetic.make_scene("lego").occupancy_fraction(resolution=16)
    assert 0.0 < frac < 1.0


def test_nerf360_dataset_builds():
    ds = nerf360.make_dataset("stump", n_views=2, width=16, height=16, gt_steps=48)
    assert ds.images.shape == (2, 16, 16, 3)
    assert np.isfinite(ds.images).all()


# -- column-wise analytic field: bit-identical to the row-wise kernels ---------

_ALL_SCENES = [("synthetic", n) for n in synthetic.SYNTHETIC_SCENES] + [
    ("nerf360", n) for n in nerf360.NERF360_SCENES
]


def _make(family, name):
    return (synthetic if family == "synthetic" else nerf360).make_scene(name)


def _probe_points(scene):
    """Seeded points inside and around the AABB, every primitive's centre
    and one point on each primitive's surface."""
    rng = np.random.default_rng(7)
    margin = 0.25 * (scene.world_max - scene.world_min)
    around = rng.uniform(
        scene.world_min - margin, scene.world_max + margin, size=(2048, 3)
    )
    centres = np.array([p.center for p in scene.primitives], dtype=np.float64)
    surface = centres + np.array(
        [[p.size[0], 0.0, 0.0] for p in scene.primitives]
    )
    return np.concatenate([around, centres, surface])


def _signed_distance_rows(prim, points):
    """The row-wise signed distance the column kernel replaced."""
    p = np.atleast_2d(points) - np.asarray(prim.center)
    if prim.kind == "sphere":
        return np.linalg.norm(p, axis=-1) - prim.size[0]
    if prim.kind == "box":
        q = np.abs(p) - np.asarray(prim.size)
        outside = np.linalg.norm(np.maximum(q, 0.0), axis=-1)
        inside = np.minimum(q.max(axis=-1), 0.0)
        return outside + inside
    return np.abs(np.linalg.norm(p, axis=-1) - prim.size[0]) - prim.size[1]


def _density_at_rows(prim, points):
    t = np.clip(-_signed_distance_rows(prim, points) / prim.edge, -1.0, 1.0)
    return prim.density * 0.5 * (1.0 + t)


def _density_and_color_rows(scene, points):
    """The row-wise ``density`` and ``color`` the one-pass kernel replaced."""
    points = np.atleast_2d(points)
    n = points.shape[0]
    total = np.zeros(n)
    weighted = np.zeros((n, 3))
    weight = np.zeros(n)
    for prim in scene.primitives:
        d = _density_at_rows(prim, points)
        np.maximum(total, d, out=total)
        weighted += d[:, None] * np.asarray(prim.color)
        weight += d
    base = np.where(
        weight[:, None] > 1e-9,
        weighted / np.maximum(weight, 1e-9)[:, None],
        0.5,
    )
    mod = 0.15 * np.sin(scene.color_frequency * np.pi * points).sum(
        axis=-1, keepdims=True
    )
    return total, np.clip(base + mod, 0.0, 1.0)


def _assert_same_bits(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "family,name", _ALL_SCENES, ids=[n for _, n in _ALL_SCENES]
)
def test_analytic_field_matches_row_wise_kernels_bit_for_bit(family, name):
    scene = _make(family, name)
    points = _probe_points(scene)
    for prim in scene.primitives:
        _assert_same_bits(
            prim.signed_distance(points), _signed_distance_rows(prim, points)
        )
    density, color = scene.density_and_color(points)
    ref_density, ref_color = _density_and_color_rows(scene, points)
    _assert_same_bits(density, ref_density)
    _assert_same_bits(color, ref_color)
    _assert_same_bits(scene.density(points), ref_density)


# -- support culling: bit-identical to every primitive at every point ----------


def _support_points(scene):
    """Seeded points in and around every primitive's support box, and
    points on each face of the box (its centre and seeded points across
    it) exactly on the bound and one ulp either side of it."""
    rng = np.random.default_rng(11)
    chunks = []
    for prim in scene.primitives:
        lo, hi = prim.support
        span = hi - lo
        chunks.append(rng.uniform(lo - 0.25 * span, hi + 0.25 * span, (512, 3)))
        for axis in range(3):
            for bound in (lo[axis], hi[axis]):
                face = np.concatenate(
                    [[np.asarray(prim.center, dtype=np.float64)],
                     rng.uniform(lo, hi, (31, 3))]
                )
                for value in (
                    np.nextafter(bound, -np.inf), bound, np.nextafter(bound, np.inf)
                ):
                    on_face = face.copy()
                    on_face[:, axis] = value
                    chunks.append(on_face)
    return np.concatenate(chunks)


#: Points outside every support box on every axis.
_FAR = np.array([[1e6, -1e6, 1e6], [-1e6, 1e6, -1e6]])


def _non_finite_points(scene):
    """NaN and ±inf in each coordinate of the primitives' centres, which
    lie inside every support on the other axes, and of :data:`_FAR`
    points, which lie outside every support on the other axes."""
    centres = np.array([p.center for p in scene.primitives], dtype=np.float64)
    base = np.concatenate([centres, _FAR])
    chunks = []
    for value in (np.nan, np.inf, -np.inf):
        for axis in range(3):
            points = base.copy()
            points[:, axis] = value
            chunks.append(points)
    return np.concatenate(chunks)


@pytest.mark.parametrize(
    "family,name", _ALL_SCENES, ids=[n for _, n in _ALL_SCENES]
)
def test_support_culling_matches_every_primitive_everywhere(family, name):
    scene = _make(family, name)
    points = _support_points(scene)
    ref_density, ref_color = _density_and_color_rows(scene, points)
    assert (ref_density > 0.0).any() and (ref_density == 0.0).any()
    density, color = scene.density_and_color(points)
    _assert_same_bits(density, ref_density)
    _assert_same_bits(color, ref_color)
    _assert_same_bits(scene.density(points), ref_density)


@pytest.mark.parametrize(
    "family,name", _ALL_SCENES, ids=[n for _, n in _ALL_SCENES]
)
def test_support_culling_keeps_nan_and_inf_points(family, name):
    scene = _make(family, name)
    points = _non_finite_points(scene)
    # sin(±inf) in the color modulation is NaN on both sides.
    with np.errstate(invalid="ignore"):
        ref_density, ref_color = _density_and_color_rows(scene, points)
        density, color = scene.density_and_color(points)
    n = len(scene.primitives) + len(_FAR)
    assert np.isnan(ref_density[: 3 * n]).all()
    assert (ref_density[3 * n :] == 0.0).all()
    _assert_same_bits(density, ref_density)
    _assert_same_bits(color, ref_color)
    _assert_same_bits(scene.density(points), ref_density)


def _render_reference(scene, camera, n_steps):
    """The dense ground-truth march as it stood before support culling:
    ``(n, 3)`` sample points, clipped and mapped to world space, then
    every primitive evaluated at every point."""
    from repro.nerf.aabb import intersect_unit_cube
    from repro.nerf.rays import generate_rays
    from repro.nerf.volume_rendering import composite

    normalizer = scene.normalizer()
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    n_rays = len(rays)
    t0, t1, hit = intersect_unit_cube(origins, directions)
    spans = np.where(hit, t1 - t0, 0.0)
    fracs = (np.arange(n_steps) + 0.5) / n_steps
    image = np.empty((n_rays, 3), dtype=np.float64)
    chunk = 4096
    for start in range(0, n_rays, chunk):
        stop = min(start + chunk, n_rays)
        o = origins[start:stop]
        d = directions[start:stop]
        ts = t0[start:stop, None] + fracs[None, :] * spans[start:stop, None]
        pts = o[:, None, :] + ts[..., None] * d[:, None, :]
        flat = np.clip(pts.reshape(-1, 3), 0.0, 1.0)
        world = normalizer.from_unit(flat)
        sigma, rgb = _density_and_color_rows(scene, world)
        m = stop - start
        ray_idx = np.repeat(np.arange(m), n_steps)
        deltas = np.repeat(spans[start:stop] / n_steps, n_steps)
        result = composite(
            sigma, rgb, deltas, ts.reshape(-1), ray_idx, m,
            background=scene.background,
        )
        image[start:stop] = result.colors
    return np.clip(image, 0.0, 1.0).reshape(camera.height, camera.width, 3)


def _view(scene, width, height):
    from repro.nerf.camera import Camera, look_at

    centre = (scene.world_min + scene.world_max) / 2.0
    eye = centre + (scene.world_max - scene.world_min) * np.array([0.9, 0.5, 0.4])
    return Camera(
        width=width, height=height, focal=1.1 * width, c2w=look_at(eye, centre)
    )


@pytest.mark.parametrize(
    "family,name", _ALL_SCENES, ids=[n for _, n in _ALL_SCENES]
)
def test_ground_truth_view_matches_dense_march(family, name):
    scene = _make(family, name)
    camera = _view(scene, 24, 24)
    image = scene.render(camera, n_steps=64)
    _assert_same_bits(image, _render_reference(scene, camera, 64))
    assert image.min() < 0.9  # the view sees the scene, not just background


def test_ground_truth_view_matches_dense_march_across_chunks():
    """4608 rays: a full 4096-ray chunk and a short one."""
    scene = synthetic.make_scene("mic")
    camera = _view(scene, 72, 64)
    _assert_same_bits(
        scene.render(camera, n_steps=8), _render_reference(scene, camera, 8)
    )


def test_support_bounds_each_kind():
    box = Primitive("box", (1.0, 0.0, -1.0), (0.5, 0.25, 0.125), (1, 0, 0), edge=0.1)
    sphere = Primitive("sphere", (0.0, 0.0, 0.0), (0.5,), (1, 0, 0), edge=0.1)
    shell = Primitive("shell", (0.0, 2.0, 0.0), (0.5, 0.1), (1, 0, 0), edge=0.1)
    for prim, half in ((box, [0.6, 0.35, 0.225]), (sphere, [0.6] * 3), (shell, [0.7] * 3)):
        lo, hi = prim.support
        centre = np.asarray(prim.center)
        np.testing.assert_allclose(hi - centre, half, rtol=1e-8)
        np.testing.assert_allclose(centre - lo, half, rtol=1e-8)
        assert (hi - centre > half).all() and (centre - lo > half).all()
    with pytest.raises(ValueError):
        Primitive("torus", (0, 0, 0), (0.5,), (1, 0, 0)).support


#: Bound on the traced peak of one warm 32x32, 192-step ground-truth view.
#: The view measures 27.2 MiB with its coordinates in one ``(3, n)`` block
#: and the field on each primitive's support; the dense ``(n, 3)`` march
#: with every primitive at every point measured 45.2 MiB.
GT_VIEW_PEAK_BYTES = 32 * 2**20


def test_ground_truth_view_peak_memory():
    import tracemalloc

    scene = synthetic.make_scene("lego")
    camera = _view(scene, 32, 32)
    scene.render(camera)
    tracemalloc.start()
    try:
        scene.render(camera)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < GT_VIEW_PEAK_BYTES, f"peak {peak / 2**20:.1f} MiB"
