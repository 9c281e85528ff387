"""Fault-injection sweep: what the board survives, and at what cost.

Four sub-studies, all driven by :mod:`repro.robustness`:

1. **Dead chiplets** — the 4→3→2-chip degradation curve.  With the
   ``remap`` policy a dead chip's MoE expert runs serially on the
   least-loaded survivor (latency cost, no quality cost); with ``drop``
   its partial pixels vanish from the fusion adder (quality cost, no
   latency cost).
2. **SRAM soft errors** — bit flips injected into a model's weight
   stores in their native formats (fp16 hash-table entries, INT8
   fixed-point MLP weights), severity measured as PSNR of the faulted
   render against the clean render; non-finite pixels are clamped to
   background by the renderer's scrub path instead of poisoning PSNR.
3. **Drop-policy quality cost** — a briefly-trained 4-expert MoE with
   one expert removed from the fusion: the PSNR drop is the price of
   "keep rendering with 3 chips, don't reschedule".
4. **Watchdog recovery** — a training run whose parameters are poisoned
   mid-flight: the divergence watchdog rolls back to the last good
   snapshot, backs off the learning rate, and the run finishes with a
   finite loss instead of NaN.

Every injection is deterministic (:meth:`FaultPlan.rng`), so the sweep
is reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .. import telemetry
from ..datasets import synthetic
from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.moe import MoEConfig, MoENeRF, MoETrainer
from ..nerf.occupancy import OccupancyGrid
from ..nerf.rays import generate_rays
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..nerf.trainer import Trainer, TrainerConfig
from ..nerf.volume_rendering import psnr
from ..pipeline.registry import wrap_model
from ..robustness import (
    ChipletFaultConfig,
    DivergenceWatchdog,
    FaultPlan,
    SramFaultConfig,
    WatchdogConfig,
    inject_model_faults,
    plan_scope,
)
from ..sim.multichip import MultiChipConfig, MultiChipSystem
from ..sim.trace import synthetic_trace
from .base import ExperimentResult

#: (hash-table flips, MLP flips) severity ladder for the SRAM study.
SRAM_SEVERITIES = ((4, 4), (32, 32), (256, 256))


def _tiny_model(seed: int = 0) -> InstantNGPModel:
    return InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=4, n_features=2, log2_table_size=10,
                base_resolution=4, finest_resolution=32,
            ),
            hidden_width=16,
            geo_features=8,
        ),
        seed=seed,
    )


def dead_chiplet_curve(quick: bool = True) -> list:
    """Latency/feasibility of 4-chip operation with 0, 1, 2 dead chips."""
    rng_traces = [
        synthetic_trace(
            n_rays=512 if quick else 2048,
            mean_samples_per_ray=4.0 + 2.0 * e,
            occupancy_fraction=0.2 + 0.05 * e,
            rng=np.random.default_rng(e),
        )
        for e in range(4)
    ]
    system = MultiChipSystem(MultiChipConfig(n_chips=4))
    rows = []
    for dead, policy in (
        ((), "remap"),
        ((2,), "remap"),
        ((2,), "drop"),
        ((1, 2), "remap"),
        ((1, 2), "drop"),
    ):
        plan = FaultPlan(chiplets=ChipletFaultConfig(dead_chips=dead, policy=policy))
        with plan_scope(plan):
            report = system.simulate(rng_traces)
        rows.append(
            {
                "dead_chips": len(dead),
                "policy": policy if dead else "-",
                "survivors": 4 - len(dead),
                "latency_cost": round(report.latency_cost, 3),
                "runtime_us": round(report.runtime_s * 1e6, 3),
                "experts_rendered": len(
                    {e for v in (report.expert_assignment or {}).values() for e in v}
                )
                if report.degraded
                else 4,
            }
        )
    return rows


def sram_severity(quick: bool = True) -> list:
    """PSNR of a bit-flipped model's render against its clean render."""
    scene = synthetic.make_scene("mic")
    normalizer = scene.normalizer()
    camera = synthetic.make_dataset(
        "mic", n_views=1, width=20 if quick else 32,
        height=20 if quick else 32, gt_steps=16,
    ).cameras[0]
    marcher = RayMarcher(SamplerConfig(max_samples=16, jitter=False))
    occupancy = OccupancyGrid(resolution=8)  # keep everything: worst case
    clean = wrap_model(
        _tiny_model(seed=0), marcher=marcher, occupancy=occupancy
    ).render_image(camera, normalizer)
    rows = []
    for hash_flips, mlp_flips in SRAM_SEVERITIES:
        plan = FaultPlan(
            seed=11,
            sram=SramFaultConfig(
                hash_table_bit_flips=hash_flips, mlp_bit_flips=mlp_flips
            ),
        )
        faulted = _tiny_model(seed=0)
        with plan_scope(plan):
            applied = inject_model_faults(
                faulted, plan.sram, plan.rng("sram:fault_sweep")
            )
            image = wrap_model(
                faulted, marcher=marcher, occupancy=occupancy
            ).render_image(camera, normalizer)
        rows.append(
            {
                "hash_flips": applied["hash_table_flips"],
                "mlp_flips": applied["mlp_flips"],
                "psnr_vs_clean_db": round(psnr(image, clean), 2),
            }
        )
    tel = telemetry.get_session()
    if tel.enabled and rows:
        tel.metrics.counter("robustness.sram.hash_table_flips").inc(
            sum(r["hash_flips"] for r in rows)
        )
        tel.metrics.counter("robustness.sram.mlp_flips").inc(
            sum(r["mlp_flips"] for r in rows)
        )
    return rows


def drop_policy_cost(quick: bool = True) -> dict:
    """PSNR price of dropping one trained expert from the fusion adder."""
    size = 20 if quick else 32
    dataset = synthetic.make_dataset(
        "mic", n_views=3, width=size, height=size, gt_steps=16
    )
    expert_cfg = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=4, n_features=2, log2_table_size=10,
            base_resolution=4, finest_resolution=32,
        ),
        hidden_width=16,
        geo_features=8,
    )
    trainer = MoETrainer(
        MoENeRF(MoEConfig(n_experts=4, expert_model=expert_cfg), seed=0),
        dataset.cameras,
        dataset.images,
        dataset.normalizer,
        TrainerConfig(
            batch_rays=64, lr=5e-3, max_samples_per_ray=16,
            occupancy_resolution=16, occupancy_interval=8,
        ),
    )
    trainer.train(48 if quick else 128)
    camera = dataset.cameras[0]
    rays = generate_rays(camera)
    origins, directions = dataset.normalizer.rays_to_unit(
        rays.origins, rays.directions
    )
    background = trainer.config.background
    expert_colors = [
        r.render_rays(origins, directions)[0]
        for r in trainer.expert_renderers(background)
    ]

    def fused_image(colors):
        fused = MoENeRF.fuse(colors, background)
        return np.clip(fused, 0.0, 1.0).reshape(camera.height, camera.width, 3)

    healthy = fused_image(expert_colors)
    # The drop policy: chip 2's partial pixels never reach the adder.
    degraded = fused_image(expert_colors[:2] + expert_colors[3:])
    target = dataset.images[0]
    healthy_psnr = psnr(healthy, target)
    degraded_psnr = psnr(degraded, target)
    drop_db = healthy_psnr - degraded_psnr
    tel = telemetry.get_session()
    if tel.enabled:
        tel.metrics.gauge("robustness.degraded.psnr_drop_db").set(drop_db)
        tel.metrics.gauge("robustness.chiplets.dropped_experts").set(1.0)
    return {
        "healthy_psnr_db": round(healthy_psnr, 2),
        "degraded_psnr_db": round(degraded_psnr, 2),
        "psnr_drop_db": round(drop_db, 2),
    }


def watchdog_recovery(quick: bool = True) -> dict:
    """Poison a training run mid-flight; the watchdog must recover it."""
    size = 20 if quick else 32
    dataset = synthetic.make_dataset(
        "mic", n_views=3, width=size, height=size, gt_steps=16
    )
    model = _tiny_model(seed=0)
    trainer = Trainer(
        model,
        dataset.cameras,
        dataset.images,
        dataset.normalizer,
        TrainerConfig(
            batch_rays=64, lr=5e-3, max_samples_per_ray=16,
            occupancy_resolution=16, occupancy_interval=8,
        ),
    )
    warmup = 6 if quick else 24
    resume = 3 if quick else 12
    config = WatchdogConfig(snapshot_interval=2, lr_backoff=0.5)
    with DivergenceWatchdog(trainer, config) as watchdog:
        trainer.train(warmup)
        lr_before = trainer.optimizer.lr
        # SRAM upset at the worst possible time: poison the live weights.
        params = model.parameters()
        first = next(iter(params))
        params[first][...] = np.nan
        diverged_loss = trainer.train_step()  # watchdog rolls back here
        resumed = [trainer.train_step() for _ in range(resume)]
    return {
        "rollbacks": watchdog.rollbacks,
        "diverged_loss_is_nan": bool(diverged_loss != diverged_loss),
        "lr_before": lr_before,
        "lr_after": trainer.optimizer.lr,
        "resumed_final_loss": float(resumed[-1]),
        "recovered": bool(np.isfinite(resumed[-1])),
    }


def run(quick: bool = True) -> ExperimentResult:
    """Run the fault-injection sweep (see the module docstring)."""
    chiplet_rows = dead_chiplet_curve(quick)
    sram_rows = sram_severity(quick)
    drop = drop_policy_cost(quick)
    recovery = watchdog_recovery(quick)
    rows = [dict(study="dead-chiplet", **r) for r in chiplet_rows]
    rows += [dict(study="sram", **r) for r in sram_rows]
    # Uniform column set so every study's numbers render in the table.
    columns = {k: None for row in rows for k in row}
    rows = [{**columns, **row} for row in rows]
    one_dead_remap = next(
        r for r in chiplet_rows if r["dead_chips"] == 1 and r["policy"] == "remap"
    )
    return ExperimentResult(
        experiment="fault-injection & graceful-degradation sweep",
        paper_ref="robustness extension (Sec. V/VII context)",
        rows=rows,
        summary={
            "remap_latency_cost_1_dead": one_dead_remap["latency_cost"],
            "sram_psnr_floor_db": min(r["psnr_vs_clean_db"] for r in sram_rows),
            "drop_policy_psnr_cost_db": drop["psnr_drop_db"],
            "watchdog_rollbacks": recovery["rollbacks"],
            "watchdog_recovered": recovery["recovered"],
            "watchdog_lr_backoff": recovery["lr_after"] / recovery["lr_before"],
        },
    )
