"""MoE NeRF: Level-1 tiling fusion, trained and rendered by ``Trainer``."""

import numpy as np
import pytest

from repro import telemetry
from repro.nerf.checkpoint import save_model
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.moe import MoEConfig, MoENeRF, dominance_map
from repro.nerf.tensorf import DenseGridConfig, DenseGridField
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.pipeline.registry import load_renderer, wrap_model
from repro.robustness import DivergenceWatchdog, WatchdogConfig
from repro.robustness.errors import DivergenceError

_EXPERT_MODEL = ModelConfig(
    encoding=HashEncodingConfig(
        n_levels=3, log2_table_size=8, base_resolution=4, finest_resolution=16
    ),
    hidden_width=16,
    geo_features=8,
)

_TRAINER_CONFIG = TrainerConfig(
    batch_rays=96, lr=5e-3, max_samples_per_ray=16,
    occupancy_resolution=8, occupancy_interval=4,
)


def _tiny_moe(n_experts=2):
    return MoENeRF(MoEConfig(n_experts=n_experts, expert_model=_EXPERT_MODEL), seed=0)


def _trainer(model, dataset):
    return Trainer(
        model, dataset.cameras, dataset.images, dataset.normalizer, _TRAINER_CONFIG
    )


def _tiny_moe_trainer(dataset, n_experts=2):
    return _trainer(_tiny_moe(n_experts), dataset)


def test_fuse_is_addition_with_background_offset():
    """The I/O module is an adder: bg + sum(C_e - bg)."""
    a = np.array([[0.5, 0.5, 0.5]])
    b = np.array([[0.75, 0.25, 1.0]])
    fused = MoENeRF.fuse([a, b], background=1.0)
    assert np.allclose(fused, a + b - 1.0)


def test_fuse_single_expert_is_identity():
    colors = np.random.default_rng(0).uniform(size=(4, 3))
    assert np.allclose(MoENeRF.fuse([colors], background=1.0), colors)


def test_fuse_all_background_stays_background():
    bg = 1.0
    experts = [np.full((3, 3), bg) for _ in range(4)]
    assert np.allclose(MoENeRF.fuse(experts, bg), bg)


def test_fuse_rejects_empty():
    with pytest.raises(ValueError):
        MoENeRF.fuse([], background=1.0)


def test_fuse_gradient_is_identity_per_expert():
    """dC/dC_e = 1, so each chip receives the loss gradient unchanged —
    validated by linearity of the fusion rule."""
    rng = np.random.default_rng(1)
    a, b = rng.uniform(size=(2, 4, 3))
    delta = np.zeros((4, 3))
    delta[2, 1] = 1e-3
    fused = MoENeRF.fuse([a, b], 1.0)
    bumped = MoENeRF.fuse([a + delta, b], 1.0)
    assert np.allclose(bumped - fused, delta)


def test_moe_parameters_namespaced():
    moe = _tiny_moe(3)
    params = moe.parameters()
    assert any(k.startswith("expert0.") for k in params)
    assert any(k.startswith("expert2.") for k in params)
    assert moe.n_parameters == sum(v.size for v in params.values())


def test_moe_config_validation():
    with pytest.raises(ValueError):
        MoEConfig(n_experts=0)


def test_experts_have_distinct_seeds():
    moe = _tiny_moe(2)
    t0 = moe.experts[0].encoding.tables
    t1 = moe.experts[1].encoding.tables
    assert not np.array_equal(t0, t1)


def test_moe_training_reduces_loss(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    first = np.mean([trainer.train_step() for _ in range(3)])
    for _ in range(25):
        trainer.train_step()
    last = np.mean([trainer.train_step() for _ in range(3)])
    assert last < first


def test_moe_render_rays_shape(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.train_step()
    origins = np.array([[-1.0, 0.5, 0.5], [0.5, 0.5, -1.0]])
    directions = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    colors = MoENeRF.fuse(
        [r.render_rays(origins, directions)[0] for r in trainer.renderers()],
        trainer.config.background,
    )
    assert colors.shape == (2, 3)
    assert np.all(np.isfinite(colors))
    image = trainer.render_image(mic_dataset.cameras[0])
    camera = mic_dataset.cameras[0]
    assert image.shape == (camera.height, camera.width, 3)
    assert image.dtype == np.float32


def test_moe_tracks_per_expert_workload(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.train_step()
    assert len(trainer.last_batches) == 2
    assert all(b.n_rays == trainer.config.batch_rays for b in trainer.last_batches)
    assert all(len(b) >= 0 for b in trainer.last_batches)


def test_expert_dominance_shape(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.train_step()
    camera = mic_dataset.cameras[1]
    dominance = dominance_map(trainer, camera, mic_dataset.normalizer)
    assert dominance.shape == (camera.height, camera.width)
    assert np.all((dominance >= 0) & (dominance < 2))


def test_moe_eval_psnr(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.train(2)
    score = trainer.eval_psnr(n_views=1)
    assert np.isfinite(score) and score > 0


def test_dominance_map_shape(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.train_step()
    image = dominance_map(trainer, mic_dataset.cameras[0], mic_dataset.normalizer)
    camera = mic_dataset.cameras[0]
    assert image.shape == (camera.height, camera.width)
    assert image.max() < trainer.model.n_experts


def test_dominance_ascii_rendering():
    from repro.nerf.moe import dominance_ascii

    art = dominance_ascii(np.array([[0, 1], [1, 0]]))
    assert art == ".:\n:."
    with pytest.raises(ValueError):
        dominance_ascii(np.array([[9]]))


def test_one_expert_moe_trains_like_its_field(mic_dataset):
    """With one input the adder is a wire: a 1-expert MoE is its field."""
    single = _trainer(InstantNGPModel(_EXPERT_MODEL, seed=0), mic_dataset)
    moe = _tiny_moe_trainer(mic_dataset, n_experts=1)
    for _ in range(10):
        assert single.train_step() == moe.train_step()
    expert = moe.model.experts[0]
    for name, value in single.model.parameters().items():
        assert np.array_equal(value, expert.parameters()[name])
    assert np.array_equal(single.occupancy.mask, moe.occupancy.mask)
    assert single.eval_psnr(n_views=2) == moe.eval_psnr(n_views=2)


def test_moe_trains_every_expert_on_its_own_grid(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset, n_experts=3)
    assert len(trainer.occupancies) == 3
    assert len({id(grid) for grid in trainer.occupancies}) == 3
    before = [grid.density_ema.copy() for grid in trainer.occupancies]
    trainer.train(trainer.config.occupancy_interval)
    for grid, ema in zip(trainer.occupancies, before):
        assert not np.array_equal(grid.density_ema, ema)
    assert set(trainer.optimizer._m) == set(trainer.model.parameters())


def test_empty_expert_contributes_background_and_no_gradient(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.occupancies[1].mask[...] = False
    frozen = {k: v.copy() for k, v in trainer.model.experts[1].parameters().items()}
    loss = trainer.train_step()
    assert np.isfinite(loss)
    assert len(trainer.last_batches[1]) == 0
    assert len(trainer.last_batches[0]) > 0
    assert not trainer.state.divergence_events
    for name, value in trainer.model.experts[1].parameters().items():
        assert np.array_equal(value, frozen[name])
    # Only when every expert's batch is empty is the step skipped.
    trainer.occupancies[0].mask[...] = False
    assert np.isnan(trainer.train_step())
    assert trainer.state.divergence_events[-1].reason == "degenerate_batch"


def _poison_expert(trainer, index):
    params = trainer.model.experts[index].parameters()
    params[next(iter(params))][...] = np.nan


def test_poisoned_expert_raises_divergence(mic_dataset):
    trainer = _tiny_moe_trainer(mic_dataset)
    trainer.train(2)
    _poison_expert(trainer, 1)
    with pytest.raises(DivergenceError), np.errstate(invalid="ignore"):
        trainer.train_step()
    assert trainer.state.divergence_events[-1].reason == "non_finite_loss"


def test_watchdog_rolls_back_every_expert(mic_dataset):
    with telemetry.session():
        trainer = _tiny_moe_trainer(mic_dataset)
        config = WatchdogConfig(snapshot_interval=4, lr_backoff=0.5)
        with DivergenceWatchdog(trainer, config) as watchdog:
            trainer.train(4)
            good = {k: v.copy() for k, v in trainer.model.parameters().items()}
            grids = [
                (g.density_ema.copy(), g.mask.copy()) for g in trainer.occupancies
            ]
            _poison_expert(trainer, 1)
            trainer.occupancies[1].mask[...] = True
            with np.errstate(invalid="ignore"):
                assert np.isnan(trainer.train_step())
            assert watchdog.rollbacks == 1
            for name, value in trainer.model.parameters().items():
                assert np.array_equal(value, good[name])
            for grid, (ema, mask) in zip(trainer.occupancies, grids):
                assert np.array_equal(grid.density_ema, ema)
                assert np.array_equal(grid.mask, mask)
            resumed = [trainer.train_step() for _ in range(3)]
    assert all(np.isfinite(resumed))


def test_moe_is_not_a_renderable_field(mic_dataset, tmp_path):
    moe = _tiny_moe()
    with pytest.raises(TypeError, match="not a field"):
        wrap_model(moe)
    path = tmp_path / "moe.npz"
    save_model(moe, path, normalizer=mic_dataset.normalizer)
    with pytest.raises(TypeError, match="not a field"):
        load_renderer(path)


def test_dense_grid_experts_train_but_do_not_checkpoint(mic_dataset, tmp_path):
    experts = [
        DenseGridField(DenseGridConfig(resolution=4, n_features=2), seed=i)
        for i in range(2)
    ]
    moe = MoENeRF(experts=experts)
    assert moe.config is None and moe.n_experts == 2
    trainer = Trainer(
        moe, mic_dataset.cameras, mic_dataset.images, mic_dataset.normalizer,
        TrainerConfig(batch_rays=64, max_samples_per_ray=8, occupancy_interval=0),
    )
    assert all(np.isfinite(trainer.train(3).losses))
    assert np.isfinite(trainer.eval_psnr(n_views=1))
    with pytest.raises(TypeError):
        save_model(moe, tmp_path / "dense.npz")
    with pytest.raises(ValueError):
        MoENeRF(experts=[])
