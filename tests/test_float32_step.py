"""The float32 training step: snapshot compute, float64 master and state.

``Trainer.train_step`` runs a plain ``InstantNGPModel``'s forward,
backward and occupancy refresh on a float32 snapshot of its float64
master.  The reference here is the same step on a subclass of
``InstantNGPModel``, which trains as it is (on the float64 master).
"""

import copy
import warnings

import numpy as np
import pytest

from repro.datasets import synthetic
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.moe import MoEConfig, MoENeRF
from repro.nerf.precision import LowPrecisionField
from repro.nerf.trainer import Trainer, TrainerConfig
from repro.robustness import DivergenceWatchdog
from repro.robustness.errors import DivergenceError

_MODEL = ModelConfig(
    encoding=HashEncodingConfig(
        n_levels=3, n_features=2, log2_table_size=8, base_resolution=4,
        finest_resolution=16,
    ),
    hidden_width=16,
    geo_features=8,
)
_CONFIG = TrainerConfig(
    batch_rays=128, lr=5e-3, max_samples_per_ray=24,
    occupancy_resolution=16, occupancy_interval=8,
)
#: Per-parameter relative gradient error, ||g32 - g64|| / ||g64||.  The
#: sweep below measured at most 2.2e-6; float32 carries ~6e-8 per op.
GRAD_RTOL = 1e-4


class _Float64Master(InstantNGPModel):
    """A subclass, so the trainer evaluates it as it is: in float64."""


def _dataset(scene):
    return synthetic.make_dataset(scene, n_views=4, width=16, height=16, gt_steps=48)


def _model(moe: bool):
    if moe:
        return MoENeRF(MoEConfig(n_experts=2, expert_model=_MODEL), seed=0)
    return InstantNGPModel(_MODEL, seed=0)


def _as_float64_master(model):
    """A deep copy whose experts the trainer trains in float64."""
    model = copy.deepcopy(model)
    experts = model.experts if isinstance(model, MoENeRF) else [model]
    for expert in experts:
        expert.__class__ = _Float64Master
    return model


def _step_grads(trainer) -> dict:
    """The gradients one ``train_step`` hands to Adam (not applied)."""
    captured = {}
    trainer.optimizer.step = captured.update
    trainer.train_step()
    del trainer.optimizer.step
    return captured


@pytest.mark.parametrize("moe", [False, True], ids=["field", "moe"])
@pytest.mark.parametrize("scene", ["lego", "mic", "ship"])
def test_snapshot_gradients_track_float64_master(scene, moe):
    """Over a seeded sweep of scenes x training stages, every gradient
    of the float32 step is within ``GRAD_RTOL`` of the float64 master's
    gradient on the same rays, and is handed to Adam as float64."""
    dataset = _dataset(scene)
    base = Trainer(
        _model(moe), dataset.cameras, dataset.images, dataset.normalizer, _CONFIG
    )
    for stage in (0, 12):
        base.train(stage - base.state.iteration)
        snapshot_step = copy.deepcopy(base)
        master_step = Trainer(
            _as_float64_master(base.model),
            dataset.cameras,
            dataset.images,
            dataset.normalizer,
            _CONFIG,
        )
        master_step.rng = copy.deepcopy(base.rng)
        master_step.occupancies = copy.deepcopy(base.occupancies)
        got = _step_grads(snapshot_step)
        want = _step_grads(master_step)
        assert got.keys() == want.keys() == base.model.parameters().keys()
        assert any(not np.array_equal(got[k], want[k]) for k in want)
        for name, grad in want.items():
            assert got[name].dtype == np.float64
            error = np.linalg.norm(got[name] - grad)
            assert error <= GRAD_RTOL * np.linalg.norm(grad), (stage, name)


@pytest.mark.parametrize("moe", [False, True], ids=["field", "moe"])
def test_masters_and_adam_moments_stay_float64(moe):
    dataset = _dataset("lego")
    trainer = Trainer(
        _model(moe), dataset.cameras, dataset.images, dataset.normalizer, _CONFIG
    )
    trainer.train(_CONFIG.occupancy_interval + 1)
    assert all(np.isfinite(loss) for loss in trainer.state.losses)
    for name, value in trainer.model.parameters().items():
        assert value.dtype == np.float64, name
        assert trainer.optimizer._m[name].dtype == np.float64, name
        assert trainer.optimizer._v[name].dtype == np.float64, name
    # The re-cast writes through each snapshot's feature-major table view.
    experts = trainer.model.experts if moe else [trainer.model]
    for expert, field in zip(experts, trainer._step_fields()):
        tables = field.encoding.tables
        assert tables.base.flags.c_contiguous and tables.base.shape[0] == 2
        assert np.array_equal(tables, expert.encoding.tables.astype(np.float32))


@pytest.mark.parametrize("scene", ["lego", "mic", "ship", "chair"])
def test_float32_refresh_mask_matches_float64(scene):
    """Refreshing the occupancy grid from the float32 snapshot flips no
    mask cell against the float64 master, at several training stages
    (a probe over 4 scenes x 4 stages found a largest relative EMA
    difference of 3.4e-6)."""
    dataset = _dataset(scene)
    trainer = Trainer(
        InstantNGPModel(_MODEL, seed=0),
        dataset.cameras,
        dataset.images,
        dataset.normalizer,
        _CONFIG,
    )
    for stage in (8, 24, 48):
        trainer.train(stage - trainer.state.iteration)
        grids = copy.deepcopy([trainer.occupancy, trainer.occupancy])
        rngs = copy.deepcopy([trainer.rng, trainer.rng])
        grids[0].refresh_from_density(trainer.model.density, rngs[0])
        snapshot = LowPrecisionField(trainer.model, mode="full")
        grids[1].refresh_from_density(snapshot.density, rngs[1])
        assert np.array_equal(grids[0].mask, grids[1].mask), stage
        ema64, ema32 = grids[0].density_ema, grids[1].density_ema
        assert np.all(np.abs(ema32 - ema64) <= 1e-4 * np.abs(ema64)), stage


@pytest.mark.parametrize("moe", [False, True], ids=["field", "moe"])
def test_out_of_range_master_diverges(moe):
    """A finite master value beyond float32 range takes the divergence
    guard, warning nowhere: unhandled, it raises ``DivergenceError``
    naming the parameter; under a watchdog, the step is NaN and the
    master is untouched."""
    dataset = _dataset("mic")
    trainer = Trainer(
        _model(moe), dataset.cameras, dataset.images, dataset.normalizer, _CONFIG
    )
    trainer.train(2)
    params = trainer.model.parameters()
    name = [key for key in params if key.endswith("density.w0")][-1]
    params[name][0, 0] = -1e39
    before = {key: value.copy() for key, value in params.items()}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as excinfo:
            trainer.train_step()
        event = excinfo.value.event
        assert event.reason == "non_finite_loss"
        assert name in event.detail and "float32 range" in event.detail
        with DivergenceWatchdog(trainer):
            assert np.isnan(trainer.train_step())
    for key, value in trainer.model.parameters().items():
        assert np.array_equal(value, before[key]), key
    assert [e.reason for e in trainer.state.divergence_events] == [
        "non_finite_loss"
    ] * 2
