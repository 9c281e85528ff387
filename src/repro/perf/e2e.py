"""End-to-end benches: real train iterations and real rendered frames.

The kernel benches isolate single hot loops; these measure the whole
pipeline the paper characterizes (Figs. 9/10): Stage I sampling, Stage
II encoding gather + MLP, Stage III compositing, optimizer step.  The
"reference" side swaps the frozen naive encoding
(:class:`~repro.perf.reference.ReferenceHashEncoding` for the ``ngp``
renderer, :class:`~repro.perf.reference.ReferencePlaneLineEncoding` for
``tensorf``) into an otherwise identical trainer/renderer, so the ratio
is attributable to the encoding kernels alone.  Each record carries a
``renderer`` tag; the bench gate and trend panels group on it.
"""

from __future__ import annotations

import numpy as np

from ..datasets import synthetic
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.occupancy import OccupancyGrid
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..nerf.tensorf import TensoRFConfig, TensoRFModel
from ..nerf.trainer import Trainer, TrainerConfig
from ..pipeline.registry import wrap_model
from .reference import ReferenceHashEncoding, ReferencePlaneLineEncoding
from .timing import PairedTiming, time_callable

#: Bench RNG/model seed — fixed so recorded numbers are reproducible.
SEED = 0


def _bench_model(smoke: bool, reference_kernels: bool) -> InstantNGPModel:
    """A mid-size model, optionally running the pre-overhaul encoding."""
    config = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=4 if smoke else 8,
            n_features=2,
            log2_table_size=12 if smoke else 14,
            base_resolution=8,
            finest_resolution=64 if smoke else 128,
        ),
        hidden_width=32,
        geo_features=15,
    )
    model = InstantNGPModel(config, seed=SEED)
    if reference_kernels:
        model.encoding = ReferenceHashEncoding(
            config.encoding, rng=np.random.default_rng(SEED)
        )
    return model


def _bench_tensorf_model(smoke: bool, reference_kernels: bool) -> TensoRFModel:
    """A mid-size TensoRF field, optionally with the naive VM lookup."""
    config = TensoRFConfig(
        resolution=24 if smoke else 48,
        n_components=4 if smoke else 8,
        hidden_width=32,
        geo_features=15,
    )
    model = TensoRFModel(config, seed=SEED)
    if reference_kernels:
        encoding = ReferencePlaneLineEncoding(
            config.resolution,
            config.n_components,
            rng=np.random.default_rng(SEED),
        )
        encoding.load_parameters(model.encoding.parameters())
        model.encoding = encoding
    return model


def _bench_dataset(smoke: bool):
    return synthetic.make_dataset(
        "mic",
        n_views=4,
        width=16 if smoke else 32,
        height=16 if smoke else 32,
        gt_steps=32,
    )


def _time_train_iteration(smoke: bool, model_builder) -> PairedTiming:
    """Time one training step for both kernel sides of a model family.

    Fresh trainers (same seeds) are built for each side so optimizer and
    RNG state cannot leak between the measurements.
    """
    dataset = _bench_dataset(smoke)
    iters = 4 if smoke else 12
    config = TrainerConfig(
        batch_rays=256 if smoke else 1024,
        lr=5e-3,
        max_samples_per_ray=32,
        occupancy_resolution=32,
        occupancy_interval=4,
        seed=SEED,
    )

    def run(reference_kernels: bool):
        model = model_builder(smoke, reference_kernels)
        trainer = Trainer(
            model, dataset.cameras, dataset.images, dataset.normalizer, config
        )

        def step_all():
            for _ in range(iters):
                trainer.train_step()

        return time_callable(step_all, repeats=1, warmup=0) / iters

    return PairedTiming(ref_s=run(True), opt_s=run(False))


def _time_render_frame(smoke: bool, model_builder) -> PairedTiming:
    """Time one full ``Renderer.render_image`` frame for both kernel sides."""
    dataset = _bench_dataset(smoke)
    marcher = RayMarcher(SamplerConfig(max_samples=32))
    occupancy = OccupancyGrid(resolution=16)
    camera = dataset.cameras[0]

    def run(reference_kernels: bool) -> float:
        renderer = wrap_model(
            model_builder(smoke, reference_kernels),
            marcher=marcher,
            occupancy=occupancy,
        )
        return time_callable(
            lambda: renderer.render_image(camera, dataset.normalizer),
            repeats=2 if smoke else 3,
        )

    return PairedTiming(ref_s=run(True), opt_s=run(False))


def bench_train_iteration(smoke: bool = False) -> dict:
    """One ``ngp`` training step, averaged over a short run."""
    timing = _time_train_iteration(smoke, _bench_model)
    return dict(timing.as_record(), renderer="ngp")


def bench_render_frame(smoke: bool = False) -> dict:
    """One full ``ngp`` rendered frame through ``Renderer.render_image``."""
    timing = _time_render_frame(smoke, _bench_model)
    return dict(timing.as_record(), renderer="ngp")


def _bench_opaque_model(smoke: bool) -> InstantNGPModel:
    """The render-frame bench model with matter in it.

    The stock bench model keeps the library default ``density_bias=-3``
    (untrained space reads empty), which renders a transparent scene —
    the worst case for early termination and precisely the case where a
    precision/sparsity fast path has nothing to skip.  Raising the bias
    makes the untrained field read opaque, so transmittance actually
    collapses along rays and the adaptive path exercises its
    termination + precision-switch machinery the way it would on a
    trained surface.
    """
    config = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=4 if smoke else 8,
            n_features=2,
            log2_table_size=12 if smoke else 14,
            base_resolution=8,
            finest_resolution=64 if smoke else 128,
        ),
        hidden_width=32,
        geo_features=15,
        density_bias=12.0,
    )
    return InstantNGPModel(config, seed=SEED)


def bench_render_frame_precision(smoke: bool = False) -> dict:
    """Full frame: default full-precision path vs the precision fast path.

    Both sides render the same opaque scene through the staged
    :class:`~repro.pipeline.renderer.Renderer` with the same marcher and
    the same occupancy mask.  The reference is today's default: every
    occupancy-surviving sample evaluated by the float64 field.  The
    optimized side is the ``precision="fp16-int8"`` stage config with
    transmittance-adaptive sampling (ERT rounds + per-ray precision
    switch) and the hierarchical occupancy query — the tentpole
    configuration the ``precision_pareto`` experiment quality-gates.
    """
    from ..nerf.occupancy import HierarchicalOccupancy

    dataset = _bench_dataset(smoke)
    camera = dataset.cameras[0]
    model = _bench_opaque_model(smoke)
    occupancy = OccupancyGrid(resolution=16)

    def run(precision: bool) -> float:
        if precision:
            renderer = wrap_model(
                model,
                marcher=RayMarcher(SamplerConfig(max_samples=32)),
                occupancy=HierarchicalOccupancy(occupancy, factor=4),
                ert_threshold=1e-2,
                precision="fp16-int8",
                switch_threshold=0.5,
            )
            # Small rounds so the per-ray transmittance check fires
            # before rays terminate: at this density a surface crossing
            # kills a ray within ~8 samples, and the precision switch
            # only re-routes at round boundaries.
            renderer.compositor.round_size = 4
        else:
            renderer = wrap_model(
                model,
                marcher=RayMarcher(SamplerConfig(max_samples=32)),
                occupancy=occupancy,
            )
        return time_callable(
            lambda: renderer.render_image(camera, dataset.normalizer),
            repeats=2 if smoke else 3,
        )

    timing = PairedTiming(ref_s=run(False), opt_s=run(True))
    return dict(
        timing.as_record(), renderer="ngp", precision="fp16-int8+adaptive"
    )


def bench_tensorf_train_iteration(smoke: bool = False) -> dict:
    """One ``tensorf`` training step, averaged over a short run."""
    timing = _time_train_iteration(smoke, _bench_tensorf_model)
    return dict(timing.as_record(), renderer="tensorf")


def bench_tensorf_render_frame(smoke: bool = False) -> dict:
    """One full ``tensorf`` rendered frame through ``Renderer.render_image``."""
    timing = _time_render_frame(smoke, _bench_tensorf_model)
    return dict(timing.as_record(), renderer="tensorf")


#: name -> builder registry for the end-to-end benches.
E2E_BENCHES = {
    "train_iteration": bench_train_iteration,
    "render_frame": bench_render_frame,
    "render_frame_precision": bench_render_frame_precision,
    "tensorf_train_iteration": bench_tensorf_train_iteration,
    "tensorf_render_frame": bench_tensorf_render_frame,
}
