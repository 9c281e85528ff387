"""Dense-grid (TensoRF-style) baseline field."""

import numpy as np
import pytest

from repro.nerf.tensorf import DenseGridConfig, DenseGridField


@pytest.fixture
def field():
    return DenseGridField(DenseGridConfig(resolution=8, n_features=4, hidden_width=16), seed=0)


@pytest.fixture
def points(rng):
    return rng.uniform(0, 1, (5, 3))


@pytest.fixture
def dirs(rng):
    d = rng.normal(size=(5, 3))
    return d / np.linalg.norm(d, axis=-1, keepdims=True)


def test_config_parameter_accounting():
    cfg = DenseGridConfig(resolution=16, n_features=4)
    assert DenseGridField(cfg, seed=0).grid.size == 16**3 * 4


def test_forward_shapes(field, points, dirs):
    sigma, rgb, cache = field.forward(points, dirs)
    assert sigma.shape == (5,)
    assert rgb.shape == (5, 3)
    assert cache.indices.shape == (5, 8)


def test_outputs_bounded(field, points, dirs):
    sigma, rgb, _ = field.forward(points, dirs)
    assert np.all(sigma >= 0)
    assert np.all((rgb > 0) & (rgb < 1))


def test_interp_weights_partition_of_unity(field, points):
    _, _, weights = field._interp(points)
    assert np.allclose(weights.sum(axis=1), 1.0)


def test_interp_indices_in_range(field, points):
    _, indices, _ = field._interp(points)
    assert indices.min() >= 0
    assert indices.max() < field.config.resolution**3


def test_grid_gradient_matches_finite_difference(field, points, dirs, rng):
    sigma, rgb, cache = field.forward(points, dirs)
    g_sigma = rng.normal(size=sigma.shape)
    g_rgb = rng.normal(size=rgb.shape)
    grads = field.backward(g_sigma, g_rgb, cache)
    entry = np.argwhere(np.abs(grads["grid"]) > 1e-9)[0]
    eps = 1e-6

    def loss():
        s, c, _ = field.forward(points, dirs)
        return float((s * g_sigma).sum() + (c * g_rgb).sum())

    original = field.grid[entry[0], entry[1]]
    field.grid[entry[0], entry[1]] = original + eps
    up = loss()
    field.grid[entry[0], entry[1]] = original - eps
    down = loss()
    field.grid[entry[0], entry[1]] = original
    assert np.isclose(grads["grid"][entry[0], entry[1]], (up - down) / (2 * eps), atol=1e-5)


def test_backward_covers_all_parameters(field, points, dirs, rng):
    sigma, rgb, cache = field.forward(points, dirs)
    grads = field.backward(rng.normal(size=5), rng.normal(size=(5, 3)), cache)
    assert set(grads) == set(field.parameters())


def test_density_matches_forward_sigma(field, points, dirs):
    sigma, _, _ = field.forward(points, dirs)
    assert np.allclose(field.density(points), sigma)


def test_fresh_field_is_sparse(field, points):
    """The density bias keeps an untrained dense grid near-empty too."""
    assert np.all(field.density(points) < 0.2)


def test_n_parameters(field):
    assert field.n_parameters == sum(v.size for v in field.parameters().values())


# ---------------------------------------------------------------------------
# VM plane/line factor encoding + TensoRFModel (the `tensorf` renderer)
# ---------------------------------------------------------------------------

from repro.nerf.tensorf import (  # noqa: E402
    LINE_AXES,
    PLANE_AXES,
    PlaneLineEncoding,
    TensoRFConfig,
    TensoRFModel,
)
from repro.perf.reference import ReferencePlaneLineEncoding  # noqa: E402


@pytest.fixture
def vm_encoding():
    return PlaneLineEncoding(resolution=8, n_components=3, rng=np.random.default_rng(0))


@pytest.fixture
def vm_model():
    return TensoRFModel(
        TensoRFConfig(resolution=8, n_components=2, hidden_width=16, geo_features=8),
        seed=0,
    )


def test_vm_axis_layout():
    """Each component pairs a plane over two axes with the third axis' line."""
    for k, (plane, line) in enumerate(zip(PLANE_AXES, LINE_AXES)):
        assert set(plane) | {line} == {0, 1, 2}
        assert LINE_AXES[k] not in plane


def test_vm_encoding_shapes(vm_encoding, points):
    features, trace = vm_encoding.forward(points)
    assert features.shape == (5, vm_encoding.output_dim)
    assert vm_encoding.output_dim == 3 * vm_encoding.n_components
    assert trace.n_points == 5


def test_vm_forward_bit_identical_to_reference(vm_encoding, rng):
    """The fused gather must equal the per-point loop bit-for-bit."""
    ref = ReferencePlaneLineEncoding(
        vm_encoding.resolution, vm_encoding.n_components, rng=np.random.default_rng(0)
    )
    points = rng.uniform(0, 1, (257, 3))
    opt_features, _ = vm_encoding.forward(points)
    ref_features, _ = ref.forward(points)
    assert np.array_equal(opt_features, ref_features)


def test_vm_backward_matches_reference(vm_encoding, rng):
    """Scatter order differs across points, so allclose (not bitwise)."""
    ref = ReferencePlaneLineEncoding(
        vm_encoding.resolution, vm_encoding.n_components, rng=np.random.default_rng(0)
    )
    points = rng.uniform(0, 1, (257, 3))
    grad = rng.normal(size=(257, vm_encoding.output_dim))
    _, opt_trace = vm_encoding.forward(points)
    _, ref_trace = ref.forward(points)
    opt_grads = vm_encoding.backward(grad, opt_trace)
    ref_grads = ref.backward(grad, ref_trace)
    assert set(opt_grads) == {"factor_planes", "factor_lines"}
    for name in opt_grads:
        np.testing.assert_allclose(opt_grads[name], ref_grads[name], rtol=1e-10)


def test_vm_encoding_gradient_matches_finite_difference(vm_encoding, rng):
    points = rng.uniform(0, 1, (7, 3))
    grad = rng.normal(size=(7, vm_encoding.output_dim))
    _, trace = vm_encoding.forward(points)
    grads = vm_encoding.backward(grad, trace)
    entry = tuple(np.argwhere(np.abs(grads["factor_planes"]) > 1e-9)[0])
    eps = 1e-6

    def loss():
        feats, _ = vm_encoding.forward(points)
        return float((feats * grad).sum())

    original = vm_encoding.factor_planes[entry]
    vm_encoding.factor_planes[entry] = original + eps
    up = loss()
    vm_encoding.factor_planes[entry] = original - eps
    down = loss()
    vm_encoding.factor_planes[entry] = original
    assert np.isclose(grads["factor_planes"][entry], (up - down) / (2 * eps), atol=1e-5)


def test_vm_parameter_round_trip(vm_encoding):
    params = {k: v.copy() for k, v in vm_encoding.parameters().items()}
    other = PlaneLineEncoding(
        vm_encoding.resolution, vm_encoding.n_components, rng=np.random.default_rng(9)
    )
    other.load_parameters(params)
    for name, value in other.parameters().items():
        assert np.array_equal(value, params[name])
    with pytest.raises(ValueError):
        other.load_parameters({"factor_planes": np.zeros((1, 1, 1, 1))})


def test_tensorf_model_contract(vm_model, points, dirs, rng):
    sigma, rgb, cache = vm_model.forward(points, dirs)
    assert sigma.shape == (5,)
    assert rgb.shape == (5, 3)
    assert np.all(sigma >= 0)
    assert np.all((rgb > 0) & (rgb < 1))
    grads = vm_model.backward(rng.normal(size=5), rng.normal(size=(5, 3)), cache)
    assert set(grads) == set(vm_model.parameters())
    assert np.allclose(vm_model.density(points), sigma)
    assert vm_model.n_parameters == sum(
        v.size for v in vm_model.parameters().values()
    )


def test_tensorf_model_gradient_matches_finite_difference(vm_model, points, dirs, rng):
    sigma, rgb, cache = vm_model.forward(points, dirs)
    g_sigma = rng.normal(size=sigma.shape)
    g_rgb = rng.normal(size=rgb.shape)
    grads = vm_model.backward(g_sigma, g_rgb, cache)
    eps = 1e-6

    def loss():
        s, c, _ = vm_model.forward(points, dirs)
        return float((s * g_sigma).sum() + (c * g_rgb).sum())

    for name in ("factor_lines", "density.w0", "color.b1"):
        tensor = vm_model.parameters()[name]
        entry = tuple(np.argwhere(np.abs(grads[name]) > 1e-7)[0])
        original = tensor[entry]
        tensor[entry] = original + eps
        up = loss()
        tensor[entry] = original - eps
        down = loss()
        tensor[entry] = original
        assert np.isclose(
            grads[name][entry], (up - down) / (2 * eps), rtol=1e-4, atol=1e-6
        ), name


def test_tensorf_fresh_field_is_sparse(vm_model, points):
    """The density bias keeps an untrained VM field near-empty."""
    assert np.all(vm_model.density(points) < 0.2)


def test_tensorf_checkpoint_round_trip(tmp_path, vm_model, points, dirs):
    from repro.nerf.checkpoint import load_scene, save_model

    path = tmp_path / "vm.npz"
    save_model(vm_model, path)
    loaded, occupancy, normalizer = load_scene(path)
    assert isinstance(loaded, TensoRFModel)
    assert loaded.config == vm_model.config
    expected_sigma, expected_rgb, _ = vm_model.forward(points, dirs)
    sigma, rgb, _ = loaded.forward(points, dirs)
    assert np.array_equal(sigma, expected_sigma)
    assert np.array_equal(rgb, expected_rgb)


def test_tensorf_trains_under_generic_trainer(mic_dataset):
    """The stock Trainer optimizes a TensoRFModel with no special-casing."""
    from repro.nerf.trainer import Trainer, TrainerConfig

    model = TensoRFModel(
        TensoRFConfig(resolution=12, n_components=2, hidden_width=16, geo_features=8),
        seed=0,
    )
    trainer = Trainer(
        model,
        mic_dataset.cameras,
        mic_dataset.images,
        mic_dataset.normalizer,
        TrainerConfig(
            batch_rays=128,
            lr=2e-2,
            max_samples_per_ray=24,
            occupancy_resolution=16,
            occupancy_interval=8,
        ),
    )
    losses = np.array([trainer.train_step() for _ in range(60)])
    # A step right after an occupancy refresh can cull every sampled ray
    # and report a nan loss; skip those when comparing ends.
    finite = losses[np.isfinite(losses)]
    early = float(np.mean(finite[:8]))
    late = float(np.mean(finite[-8:]))
    assert late < early
