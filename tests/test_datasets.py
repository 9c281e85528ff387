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
