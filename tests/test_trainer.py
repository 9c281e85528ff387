"""The training loop (kept tiny: a handful of steps per test)."""

import numpy as np
import pytest

from repro.nerf.trainer import Trainer, TrainerConfig


def test_train_step_returns_finite_loss(tiny_trainer):
    loss = tiny_trainer.train_step()
    assert np.isfinite(loss)
    assert loss > 0.0


def test_loss_decreases_over_short_run(lego_dataset, tiny_model):
    trainer = Trainer(
        tiny_model,
        lego_dataset.cameras,
        lego_dataset.images,
        lego_dataset.normalizer,
        TrainerConfig(
            batch_rays=256, lr=5e-3, max_samples_per_ray=24,
            occupancy_resolution=16, occupancy_interval=8,
        ),
    )
    first = np.mean([trainer.train_step() for _ in range(8)])
    for _ in range(60):
        trainer.train_step()
    last = np.mean([trainer.train_step() for _ in range(8)])
    assert last < first


def test_iteration_counter_and_history(tiny_trainer):
    tiny_trainer.train(4)
    assert tiny_trainer.state.iteration == 4
    assert len(tiny_trainer.state.losses) == 4


def test_occupancy_refresh_interval(tiny_trainer):
    before = tiny_trainer.occupancy.density_ema.copy()
    tiny_trainer.train(tiny_trainer.config.occupancy_interval)
    assert not np.array_equal(before, tiny_trainer.occupancy.density_ema)
    # The grid never collapses to fully empty.
    assert tiny_trainer.occupancy.mask.any()


def test_post_step_hook_invoked(tiny_trainer):
    calls = []
    tiny_trainer.post_step_hook = lambda trainer: calls.append(
        trainer.state.iteration
    )
    tiny_trainer.train(3)
    assert calls == [1, 2, 3]


def test_eval_psnr_returns_finite(tiny_trainer):
    tiny_trainer.train(2)
    score = tiny_trainer.eval_psnr(n_views=1)
    assert np.isfinite(score)
    assert score > 0.0


def test_psnr_history_tracked(tiny_trainer):
    tiny_trainer.train(4, eval_every=2, eval_views=1)
    assert len(tiny_trainer.state.psnr_history) == 2
    assert tiny_trainer.state.psnr_history[0][0] == 2


def test_trainer_requires_views(tiny_model, mic_dataset):
    with pytest.raises(ValueError):
        Trainer(
            tiny_model, [], np.empty((0, 4, 4, 3)), mic_dataset.normalizer,
            TrainerConfig(),
        )


def test_last_batch_exposed(tiny_trainer):
    tiny_trainer.train_step()
    assert tiny_trainer.last_batch is not None
    assert tiny_trainer.last_batch.n_rays == tiny_trainer.config.batch_rays


def _paired_trainers(tiny_model_config, mic_dataset):
    """Two structurally identical trainers over identically seeded models."""
    from repro.nerf.model import InstantNGPModel

    config = TrainerConfig(
        batch_rays=128, lr=5e-3, max_samples_per_ray=24,
        occupancy_resolution=16, occupancy_interval=8,
    )
    return tuple(
        Trainer(
            InstantNGPModel(tiny_model_config, seed=0),
            mic_dataset.cameras,
            mic_dataset.images,
            mic_dataset.normalizer,
            config,
        )
        for _ in range(2)
    )


def test_train_steps_increments_match_one_run_bitwise(
    tiny_model_config, mic_dataset
):
    """N calls of train_steps(k) == one train(N*k): the online contract."""
    whole, chunked = _paired_trainers(tiny_model_config, mic_dataset)
    whole.train(12)
    for _ in range(4):
        chunked.train_steps(3)
    assert chunked.state.iteration == whole.state.iteration == 12
    np.testing.assert_array_equal(chunked.state.losses, whole.state.losses)
    for key, value in whole.model.parameters().items():
        assert np.array_equal(chunked.model.parameters()[key], value), key
    assert chunked.optimizer.step_count == whole.optimizer.step_count
    for key in whole.optimizer._m:
        assert np.array_equal(chunked.optimizer._m[key], whole.optimizer._m[key])
        assert np.array_equal(chunked.optimizer._v[key], whole.optimizer._v[key])
    assert np.array_equal(
        chunked.occupancy.density_ema, whole.occupancy.density_ema
    )
    assert np.array_equal(chunked.occupancy.mask, whole.occupancy.mask)


def test_train_steps_survives_interleaved_eval(tiny_model_config, mic_dataset):
    """eval_psnr between increments must not perturb the training stream."""
    plain, evaluated = _paired_trainers(tiny_model_config, mic_dataset)
    plain.train_steps(8)
    for _ in range(4):
        evaluated.train_steps(2)
        evaluated.eval_psnr(n_views=1)
    for key, value in plain.model.parameters().items():
        assert np.array_equal(evaluated.model.parameters()[key], value), key


def test_train_steps_rejects_negative(tiny_trainer):
    with pytest.raises(ValueError):
        tiny_trainer.train_steps(-1)
    state = tiny_trainer.train_steps(0)  # a zero budget is a no-op
    assert state.iteration == 0


def test_add_view_grows_training_set(tiny_trainer, mic_dataset):
    n_before = len(tiny_trainer.cameras)
    count = tiny_trainer.add_view(
        mic_dataset.cameras[0], mic_dataset.images[0]
    )
    assert count == n_before + 1
    assert tiny_trainer.images.shape[0] == n_before + 1
    assert np.isfinite(tiny_trainer.train_step())


def test_add_view_rejects_mismatched_resolution(tiny_trainer):
    with pytest.raises(ValueError):
        tiny_trainer.add_view(
            tiny_trainer.cameras[0], np.zeros((4, 4, 3))
        )


class _Libc:
    """A C library whose ``mallopt`` records its calls."""

    def __init__(self):
        self.calls = []

        def mallopt(param, value):
            self.calls.append((param, value))
            return 1

        self.mallopt = mallopt


def _trainer(dataset, model):
    return Trainer(
        model, dataset.cameras, dataset.images, dataset.normalizer,
        TrainerConfig(batch_rays=64, max_samples_per_ray=16, occupancy_resolution=8),
    )


def test_trainer_pins_heap_thresholds(monkeypatch, mic_dataset, tiny_model):
    import ctypes

    from repro.nerf import trainer as trainer_module

    libc = _Libc()
    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: libc)
    _trainer(mic_dataset, tiny_model)
    # glibc's M_MMAP_THRESHOLD (-3) and M_TRIM_THRESHOLD (-1).
    assert libc.calls == [
        (-3, trainer_module.HEAP_MMAP_THRESHOLD),
        (-1, trainer_module.HEAP_TRIM_THRESHOLD),
    ]


def test_trainer_trains_where_libc_has_no_mallopt(monkeypatch, mic_dataset, tiny_model):
    import ctypes

    from repro.nerf.trainer import keep_heap_pages

    monkeypatch.setattr(ctypes, "CDLL", lambda *args, **kwargs: object())
    assert keep_heap_pages() is False
    trainer = _trainer(mic_dataset, tiny_model)
    assert np.isfinite(trainer.train_step())
