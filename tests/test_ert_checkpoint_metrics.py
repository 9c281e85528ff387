"""Early ray termination, checkpointing, SSIM, and the warping baseline."""

import numpy as np
import pytest

from repro.baselines import METAVRAIN, ImageWarpingModel, WarpingModelConfig
from repro.core.metrics import fps_from_throughput, ssim
from repro.nerf.aabb import SceneNormalizer
from repro.nerf.camera import Camera, sphere_poses
from repro.nerf.checkpoint import (
    deployment_payload_bytes,
    load_model,
    load_scene,
    save_model,
)
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.early_termination import render_batch_adaptive
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.moe import MoEConfig, MoENeRF
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.volume_rendering import composite
from repro.pipeline import wrap_model


# -- early ray termination ------------------------------------------------------

@pytest.fixture
def opaque_batch():
    """One ray through an opaque wall followed by hidden samples."""
    marcher = RayMarcher(SamplerConfig(max_samples=32))
    batch = marcher.sample(
        np.array([[-1.0, 0.5, 0.5]]), np.array([[1.0, 0.0, 0.0]])
    )
    n = len(batch)
    sigmas = np.zeros(n)
    sigmas[4:8] = 1e3  # a wall early on the ray
    rgbs = np.full((n, 3), 0.4)
    return batch, sigmas, rgbs


class _TableField:
    """Per-sample ``(sigma, rgb)`` of a one-ray batch along +x, looked up
    by each position's x coordinate."""

    def __init__(self, batch, sigmas, rgbs):
        self.x = batch.positions[:, 0]
        self.sigmas = sigmas
        self.rgbs = rgbs

    def forward(self, positions, directions):
        i = np.searchsorted(self.x, positions[:, 0])
        return self.sigmas[i], self.rgbs[i], None


def _render(batch, sigmas, rgbs):
    return composite(
        sigmas, rgbs, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )


def _ert(batch, sigmas, rgbs, threshold=1e-3, table=None):
    """The ERT round loop over the table field of ``table`` (default:
    ``batch`` itself)."""
    field = _TableField(table or batch, sigmas, rgbs)
    return render_batch_adaptive(field, None, batch, threshold=threshold)


def test_ert_terminates_behind_opaque_wall(opaque_batch):
    _, stats = _ert(*opaque_batch)
    assert 0 < stats.live_samples < stats.total_samples
    assert stats.terminated_fraction > 0.5
    assert stats.total_samples / stats.live_samples > 2.0


def test_ert_mask_is_a_per_ray_prefix(opaque_batch):
    batch, sigmas, rgbs = opaque_batch
    _, stats = _ert(batch, sigmas, rgbs)
    # The live samples are the ray's prefix up to the wall: once
    # terminated, a ray never resumes.
    mask = _render(batch, sigmas, rgbs).transmittance >= 1e-3
    assert np.all(np.diff(mask.astype(int)) <= 0)
    assert stats.live_samples == mask.sum()
    assert mask[: stats.live_samples].all()


def test_ert_preserves_colors(opaque_batch):
    batch, sigmas, rgbs = opaque_batch
    colors, _ = _ert(batch, sigmas, rgbs)
    assert np.max(np.abs(_render(batch, sigmas, rgbs).colors - colors)) < 1e-3


def test_ert_transparent_scene_keeps_everything(opaque_batch):
    batch, _, rgbs = opaque_batch
    _, stats = _ert(batch, np.zeros(len(batch)), rgbs)
    assert stats.terminated_fraction == 0.0
    assert stats.live_samples == stats.total_samples


def test_ert_per_ray_counts(opaque_batch):
    """Rays terminate independently: two copies of the ray keep twice
    the live samples of one."""
    batch, sigmas, rgbs = opaque_batch
    _, one = _ert(batch, sigmas, rgbs)
    marcher = RayMarcher(SamplerConfig(max_samples=32))
    pair = marcher.sample(
        np.array([[-1.0, 0.5, 0.5]] * 2), np.array([[1.0, 0.0, 0.0]] * 2)
    )
    _, two = _ert(pair, sigmas, rgbs, table=batch)
    assert two.total_samples == 2 * one.total_samples
    assert two.live_samples == 2 * one.live_samples


def test_ert_threshold_validation(opaque_batch):
    with pytest.raises(ValueError):
        _ert(*opaque_batch, threshold=0.0)
    with pytest.raises(ValueError):
        _ert(*opaque_batch, threshold=1.0)


# -- checkpointing ----------------------------------------------------------------

@pytest.fixture
def small_model():
    return InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=2, log2_table_size=6, base_resolution=4,
                finest_resolution=8,
            ),
            hidden_width=8,
            geo_features=4,
        ),
        seed=3,
    )


def test_checkpoint_round_trip(small_model, tmp_path, rng):
    path = tmp_path / "model.npz"
    save_model(small_model, path)
    restored = load_model(path)
    pts = rng.uniform(0, 1, (5, 3))
    dirs = np.tile([0.0, 0.0, 1.0], (5, 1))
    s0, c0, _ = small_model.forward(pts, dirs)
    s1, c1, _ = restored.forward(pts, dirs)
    assert np.array_equal(s0, s1)
    assert np.array_equal(c0, c1)


def test_checkpoint_preserves_config(small_model, tmp_path):
    path = tmp_path / "model.npz"
    save_model(small_model, path)
    restored = load_model(path)
    assert restored.config == small_model.config


def test_checkpoint_moe_round_trip(tmp_path, rng):
    moe = MoENeRF(
        MoEConfig(
            n_experts=2,
            expert_model=ModelConfig(
                encoding=HashEncodingConfig(
                    n_levels=2, log2_table_size=6, base_resolution=4,
                    finest_resolution=8,
                ),
                hidden_width=8,
                geo_features=4,
            ),
        ),
        seed=1,
    )
    path = tmp_path / "moe.npz"
    save_model(moe, path)
    restored = load_model(path)
    assert restored.n_experts == 2
    pts = rng.uniform(0, 1, (4, 3))
    dirs = np.tile([1.0, 0.0, 0.0], (4, 1))
    for original, copy in zip(moe.experts, restored.experts):
        s0, _, _ = original.forward(pts, dirs)
        s1, _, _ = copy.forward(pts, dirs)
        assert np.array_equal(s0, s1)


def test_checkpoint_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.npz")


def test_deployment_payload_is_fp16_params(small_model):
    assert deployment_payload_bytes(small_model) == 2 * small_model.n_parameters


def test_checkpoint_size_reasonable(small_model, tmp_path):
    """The archive is the deployment payload, roughly (fp64 on disk here,
    so within ~8x of the fp16 wire size, minus compression)."""
    path = tmp_path / "m.npz"
    size = save_model(small_model, path)
    assert 0 < size < 64 * deployment_payload_bytes(small_model)


# -- SSIM ----------------------------------------------------------------------------

def test_ssim_identity_is_one(rng):
    img = rng.uniform(size=(24, 24, 3))
    assert ssim(img, img) == pytest.approx(1.0)


def test_ssim_decreases_with_noise(rng):
    img = rng.uniform(size=(24, 24))
    mild = np.clip(img + rng.normal(0, 0.05, img.shape), 0, 1)
    strong = np.clip(img + rng.normal(0, 0.3, img.shape), 0, 1)
    assert ssim(img, strong) < ssim(img, mild) < 1.0


def test_ssim_structure_sensitivity(rng):
    """A constant-shift image keeps structure (high SSIM) while a
    shuffled image destroys it, even at equal MSE scale."""
    img = rng.uniform(size=(24, 24))
    shifted = np.clip(img + 0.1, 0, 1)
    shuffled = rng.permutation(img.ravel()).reshape(img.shape)
    assert ssim(img, shifted) > ssim(img, shuffled)


def test_ssim_validation(rng):
    with pytest.raises(ValueError):
        ssim(np.zeros((4, 4)), np.zeros((5, 5)))
    with pytest.raises(ValueError):
        ssim(np.zeros(4), np.zeros(4))


# -- warping baseline -------------------------------------------------------------

def test_warping_full_overlap_when_static():
    model = ImageWarpingModel(raw_fps=2.0)
    assert model.overlap_fraction(0.0) == 1.0
    assert model.effective_fps(0.0) == float("inf")


def test_warping_overlap_decreases_with_motion():
    model = ImageWarpingModel(raw_fps=2.0)
    overlaps = [model.overlap_fraction(v) for v in (0, 30, 120, 480)]
    assert all(b <= a for a, b in zip(overlaps, overlaps[1:]))


def test_warping_metavrain_needs_high_overlap():
    """Table III footnote: MetaVRain needs >~94-97% overlap for 30 FPS."""
    raw = fps_from_throughput(METAVRAIN.inference_mps * 1e6)
    model = ImageWarpingModel(raw_fps=raw)
    headroom = model.realtime_headroom_deg_s()
    assert 30.0 < headroom < 400.0
    assert model.overlap_fraction(headroom) > 0.9


def test_warping_fast_raw_renderer_always_realtime():
    model = ImageWarpingModel(raw_fps=70.0)
    assert model.realtime_headroom_deg_s() == float("inf")


def test_warping_validation():
    with pytest.raises(ValueError):
        ImageWarpingModel(raw_fps=0.0)
    model = ImageWarpingModel(raw_fps=2.0)
    with pytest.raises(ValueError):
        model.overlap_fraction(-1.0)


def test_warping_config_fov_effect():
    narrow = ImageWarpingModel(2.0, WarpingModelConfig(fov_deg=45.0))
    wide = ImageWarpingModel(2.0, WarpingModelConfig(fov_deg=110.0))
    assert narrow.overlap_fraction(60.0) < wide.overlap_fraction(60.0)


# -- deployable-scene checkpoints (occupancy + normalizer round-trip) -------------

def _trained_like_occupancy(resolution=12, seed=11):
    """An occupancy grid with non-trivial EMA *and* a mask that is not
    derivable from it (trainers force the mask full when it empties)."""
    rng = np.random.default_rng(seed)
    occ = OccupancyGrid(resolution=resolution, threshold=0.3)
    occ.density_ema = rng.random(occ.density_ema.shape).astype(np.float32)
    occ.mask = occ.density_ema > occ.threshold
    occ.mask[0, 0, :] = True  # decoupled from the EMA on purpose
    return occ


def test_load_scene_round_trips_occupancy_bit_exactly(small_model, tmp_path):
    occ = _trained_like_occupancy()
    norm = SceneNormalizer(offset=np.array([-1.2, -1.2, -1.2]), scale=1 / 2.4)
    path = tmp_path / "scene.npz"
    save_model(small_model, path, occupancy=occ, normalizer=norm)
    _, restored_occ, restored_norm = load_scene(path)
    assert restored_occ.resolution == occ.resolution
    assert restored_occ.threshold == occ.threshold
    assert restored_occ.ema_decay == occ.ema_decay
    assert np.array_equal(restored_occ.density_ema, occ.density_ema)
    assert np.array_equal(restored_occ.mask, occ.mask)
    assert np.array_equal(restored_norm.offset, norm.offset)
    assert restored_norm.scale == norm.scale


def test_first_frame_after_save_load_bit_identical(small_model, tmp_path):
    """The registry cold-start contract: no re-warmup, no pixel drift."""
    occ = _trained_like_occupancy()
    norm = SceneNormalizer(offset=np.array([-1.5, -1.5, -1.5]), scale=1 / 3.0)
    camera = Camera(
        width=8, height=8, focal=9.0, c2w=sphere_poses(1, radius=2.5)[0]
    )
    marcher = RayMarcher(SamplerConfig(max_samples=24))
    before = wrap_model(small_model, marcher=marcher, occupancy=occ).render_image(
        camera, norm
    )
    path = tmp_path / "scene.npz"
    save_model(small_model, path, occupancy=occ, normalizer=norm)
    model, occ2, norm2 = load_scene(path)
    after = wrap_model(model, marcher=marcher, occupancy=occ2).render_image(
        camera, norm2
    )
    assert np.array_equal(before, after)


def test_load_scene_weights_only_checkpoint(small_model, tmp_path):
    path = tmp_path / "weights.npz"
    save_model(small_model, path)
    model, occ, norm = load_scene(path)
    assert occ is None and norm is None
    for key, value in small_model.parameters().items():
        assert np.array_equal(model.parameters()[key], value)


def test_load_model_ignores_scene_state(small_model, tmp_path):
    """The historical weights-only loader must skip the state arrays."""
    path = tmp_path / "scene.npz"
    save_model(
        small_model,
        path,
        occupancy=_trained_like_occupancy(),
        normalizer=SceneNormalizer(offset=np.zeros(3), scale=1.0),
    )
    restored = load_model(path)
    for key, value in small_model.parameters().items():
        assert np.array_equal(restored.parameters()[key], value)
