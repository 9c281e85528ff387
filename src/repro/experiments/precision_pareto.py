"""Precision/quality pareto sweep for the mixed-precision fast path.

One trained ``ngp`` field rendered through its float64 training master
(``float64``, a directly built :class:`~repro.pipeline.renderer.Renderer`
with no snapshot) and through every precision mode the stage registry
accepts — ``full`` (the default: a float32 snapshot of the master),
``fp16`` (half-width hash tables, float32 MLPs), ``fp16-int8`` (adds
INT8 MLP weights), and ``fp16-int8+adaptive`` (adds transmittance-
adaptive sampling: ERT rounds plus the per-ray precision switch).  Each
row reports quality against ground truth (PSNR delta vs the float64
render), agreement with the float64 render and its largest pixel
difference (the precision-only error), wall-clock per frame, and
parameter storage, so the modes form a quality/speed/size pareto front.

Every row but ``float64`` is checked against the
:class:`~repro.nerf.precision.PrecisionGate` budget; the summary's
``pareto: PASS`` line (greppable by CI) asserts that all modes fit the
budget *and* that a frame served through
:class:`~repro.serve.service.RenderService` from the default ``full``
renderer is bit-identical to its offline render.  Speed is reported
but not gated here — ``python -m bench`` owns end-to-end speed.
"""

from __future__ import annotations

import numpy as np

from .. import pipeline
from ..datasets import synthetic
from ..nerf.precision import FULL_PRECISION, PRECISION_MODES, PrecisionGate
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..nerf.trainer import Trainer, TrainerConfig
from ..nerf.volume_rendering import psnr
from ..perf.timing import time_callable
from ..pipeline.renderer import Renderer
from ..pipeline.stages import OccupancySampler
from ..serve import RenderService, SceneRegistry, ServiceConfig, run_closed_loop
from .base import ExperimentResult

#: Training/eval seed — fixed so rows are run-to-run reproducible.
SEED = 0

#: Samples-per-ray budget shared by training and every eval renderer.
MAX_SAMPLES = 32

#: Quality budget every low-precision mode must fit (see the
#: ``precision_pareto`` acceptance line in docs/experiments.md).
GATE = PrecisionGate(max_delta_db=1.0, min_agreement_db=30.0)

#: The reference row: the float64 master, evaluated with no snapshot.
MASTER = "float64"

#: ERT/adaptive operating point for the ``+adaptive`` row.
ERT_THRESHOLD = 1e-2
SWITCH_THRESHOLD = 0.5
ROUND_SIZE = 4


def _train_field(dataset, quick: bool):
    """Train one ``ngp`` field; returns ``(model, occupancy)``."""
    encoding = {
        "n_levels": 4 if quick else 8,
        "n_features": 2,
        "log2_table_size": 12 if quick else 14,
        "base_resolution": 8,
        "finest_resolution": 64 if quick else 128,
    }
    staged = pipeline.create(
        "ngp",
        config={"encoding": encoding, "hidden_width": 32, "geo_features": 15},
        seed=SEED,
    )
    config = TrainerConfig(
        batch_rays=256 if quick else 1024,
        lr=5e-3,
        max_samples_per_ray=MAX_SAMPLES,
        occupancy_resolution=32,
        occupancy_interval=8,
        seed=SEED,
    )
    trainer = Trainer(
        staged.field, dataset.cameras, dataset.images, dataset.normalizer, config
    )
    for _ in range(80 if quick else 400):
        trainer.train_step()
    return trainer.model, trainer.occupancy


def _mode_renderer(model, occupancy, mode: str):
    """Build the staged renderer for one sweep mode."""
    marcher = RayMarcher(SamplerConfig(max_samples=MAX_SAMPLES))
    if mode == MASTER:
        return Renderer("ngp", model, sampler=OccupancySampler(marcher, occupancy))
    if mode == FULL_PRECISION:
        return pipeline.wrap_model(model, marcher=marcher, occupancy=occupancy)
    if mode.endswith("+adaptive"):
        renderer = pipeline.wrap_model(
            model,
            marcher=marcher,
            occupancy=occupancy,
            ert_threshold=ERT_THRESHOLD,
            precision=mode[: -len("+adaptive")],
            switch_threshold=SWITCH_THRESHOLD,
        )
        renderer.compositor.round_size = ROUND_SIZE
        return renderer
    return pipeline.wrap_model(
        model, marcher=marcher, occupancy=occupancy, precision=mode
    )


def _served_frame(renderer, camera, normalizer):
    """One frame of ``renderer`` served through a :class:`RenderService`.

    The serving slice (4096 rays) covers the whole probe frame, so the
    served frame must equal the offline ``render_image`` bit for bit.
    """
    registry = SceneRegistry()
    registry.deploy("pareto", renderer=renderer, normalizer=normalizer)
    service = RenderService(registry, config=ServiceConfig(keep_frames=True))
    report = run_closed_loop(service, "pareto", n_frames=1, camera=camera)
    return report.responses[0].frame


def run(quick: bool = True) -> ExperimentResult:
    """Sweep every precision mode over one trained scene."""
    dataset = synthetic.make_dataset(
        "mic",
        n_views=4 if quick else 8,
        width=16 if quick else 32,
        height=16 if quick else 32,
        gt_steps=32 if quick else 96,
    )
    camera = dataset.cameras[-1]
    target = dataset.images[-1]
    model, occupancy = _train_field(dataset, quick)
    served = _served_frame(
        _mode_renderer(model, occupancy, FULL_PRECISION),
        camera,
        dataset.normalizer,
    )

    gated = (FULL_PRECISION,) + PRECISION_MODES + ("fp16-int8+adaptive",)
    rows = []
    reports = {}
    images = {}
    for mode in (MASTER,) + gated:
        renderer = _mode_renderer(model, occupancy, mode)
        images[mode] = renderer.render_image(camera, dataset.normalizer)
        seconds = time_callable(
            lambda: renderer.render_image(camera, dataset.normalizer),
            repeats=1 if quick else 2,
        )
        if mode == MASTER:
            master_ms = seconds * 1e3
        master = images[MASTER].astype(np.float64)
        image = images[mode].astype(np.float64)
        report = GATE.evaluate(master, image, ground_truth=target)
        reports[mode] = report
        storage = getattr(
            getattr(renderer.compositor, "lowp_field", None),
            "storage_bytes",
            model.n_parameters * 8,
        )
        reference = mode == MASTER
        rows.append(
            {
                "mode": mode,
                "psnr_db": round(psnr(image, target), 2),
                "psnr_delta_db": round(report.psnr_delta_db, 3),
                "agreement_db": None if reference else round(report.agreement_db, 1),
                "max_abs_diff": float(f"{np.max(np.abs(image - master)):.3g}"),
                "gate": "reference" if reference else (
                    "pass" if report.passed else "FAIL"
                ),
                "ms_per_frame": round(seconds * 1e3, 2),
                "speedup": round(master_ms / (seconds * 1e3), 2),
                "storage_mb": round(storage / 1e6, 3),
            }
        )

    bit_identical = np.array_equal(served, images[FULL_PRECISION])
    gated_ok = all(reports[m].passed for m in gated)
    summary = {
        "pareto": "PASS" if (gated_ok and bit_identical) else "FAIL",
        "default_bit_identical": bool(bit_identical),
        "full_agreement_db": round(reports[FULL_PRECISION].agreement_db, 1),
        "max_psnr_delta_db": round(
            max(reports[m].psnr_delta_db for m in gated), 3
        ),
        "min_agreement_db": round(
            min(reports[m].agreement_db for m in gated), 1
        ),
        "budget_max_delta_db": GATE.max_delta_db,
        "budget_min_agreement_db": GATE.min_agreement_db,
        "storage_ratio": round(
            rows[0]["storage_mb"] / max(rows[-1]["storage_mb"], 1e-9), 2
        ),
    }
    return ExperimentResult(
        experiment="precision_pareto",
        paper_ref="Table II ext: mixed-precision inference quality/speed/size",
        rows=rows,
        summary=summary,
    )
