"""The Fusion-3D system facade: the library's primary entry point.

Glues the functional NeRF substrate to the cycle simulator: you hand it a
posed dataset, it trains a radiance field (real gradients, real PSNR)
while extracting workload traces, and reports what the accelerator —
single chip or four-chip board — would have achieved on that workload:
reconstruction seconds, rendering FPS, energy, bandwidth.

    >>> dataset = synthetic.make_dataset("lego")
    >>> system = Fusion3D.single_chip()
    >>> result = system.reconstruct(dataset, iterations=300)
    >>> result.meets_instant_target
    True
    >>> result.psnr > 20.0
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.moe import MoENeRF, MoEConfig, MoETrainer
from ..nerf.rays import generate_rays
from ..nerf.trainer import Trainer, TrainerConfig
from ..nerf.volume_rendering import psnr as compute_psnr
from ..pipeline.registry import wrap_model
from ..sim.chip import ChipConfig, SingleChipAccelerator
from ..sim.multichip import MultiChipConfig, MultiChipSystem
from ..sim.trace import WorkloadTrace, trace_from_rays
from .bandwidth import BandwidthModel, WorkloadVolume
from .metrics import fps_from_throughput


@dataclass
class ReconstructionResult:
    """Outcome of :meth:`Fusion3D.reconstruct`."""

    psnr: float
    iterations: int
    total_samples: float
    #: What the accelerator would take for this sample budget.
    simulated_training_s: float
    simulated_energy_j: float
    simulated_power_w: float
    throughput_samples_per_s: float
    offchip_bandwidth_gbps: float
    trace: WorkloadTrace

    @property
    def meets_instant_target(self) -> bool:
        """The paper's <= 2 s instant-reconstruction bar (at the paper's
        sample budget; small demo runs scale proportionally)."""
        return self.simulated_training_s <= 2.0


@dataclass
class RenderingResult:
    """Outcome of :meth:`Fusion3D.render`."""

    image: np.ndarray
    psnr: float
    simulated_frame_s: float
    simulated_fps_800p: float
    simulated_energy_j: float
    throughput_samples_per_s: float
    trace: WorkloadTrace

    @property
    def meets_realtime_target(self) -> bool:
        """The paper's >= 30 FPS bar at 800x800."""
        return self.simulated_fps_800p >= 30.0


@dataclass(frozen=True)
class Fusion3DConfig:
    """Top-level system configuration."""

    chip: ChipConfig = field(default_factory=ChipConfig.scaled)
    multi_chip: bool = False
    n_chips: int = 4
    model: ModelConfig = field(
        default_factory=lambda: ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=8, log2_table_size=12, base_resolution=8, finest_resolution=128
            ),
            hidden_width=32,
        )
    )
    trainer: TrainerConfig = field(
        default_factory=lambda: TrainerConfig(
            batch_rays=1024, lr=5e-3, max_samples_per_ray=48, occupancy_resolution=24
        )
    )
    seed: int = 0


class Fusion3D:
    """End-to-end reconstruct/render with hardware co-simulation."""

    def __init__(self, config: Fusion3DConfig = Fusion3DConfig()):
        self.config = config
        if config.multi_chip:
            self.system = MultiChipSystem(
                MultiChipConfig(n_chips=config.n_chips, chip=config.chip)
            )
        else:
            self.system = SingleChipAccelerator(config.chip)
        self.bandwidth = BandwidthModel()
        self._model = None
        self._trainer = None

    @classmethod
    def single_chip(cls, **overrides) -> "Fusion3D":
        return cls(Fusion3DConfig(**overrides))

    @classmethod
    def multi_chip(cls, n_chips: int = 4, **overrides) -> "Fusion3D":
        return cls(Fusion3DConfig(multi_chip=True, n_chips=n_chips, **overrides))

    @property
    def model(self):
        if self._model is None:
            raise RuntimeError("call reconstruct() first")
        return self._model

    def reconstruct(self, dataset, iterations: int = 300) -> ReconstructionResult:
        """Train a radiance field on the dataset, co-simulating hardware."""
        cfg = self.config
        if cfg.multi_chip:
            model = MoENeRF(
                MoEConfig(n_experts=cfg.n_chips, expert_model=cfg.model),
                seed=cfg.seed,
            )
            trainer = MoETrainer(
                model, dataset.cameras, dataset.images, dataset.normalizer, cfg.trainer
            )
        else:
            model = InstantNGPModel(cfg.model, seed=cfg.seed)
            trainer = Trainer(
                model, dataset.cameras, dataset.images, dataset.normalizer, cfg.trainer
            )
        total_samples = 0.0
        for _ in range(iterations):
            trainer.train_step()
            if cfg.multi_chip:
                total_samples += float(np.mean(trainer.last_expert_samples))
            else:
                total_samples += len(trainer.last_batch)
        self._model = model
        self._trainer = trainer
        return self._finish_reconstruction(dataset, trainer, iterations, total_samples)

    def reconstruct_until(
        self,
        dataset,
        psnr_target: float = 25.0,
        max_iterations: int = 2000,
        check_every: int = 50,
    ) -> ReconstructionResult:
        """Train until the paper's quality bar (default: 25 PSNR).

        The paper measures training time as wall clock to 25 PSNR; this
        is the library's equivalent: iterate until the evaluated PSNR
        crosses ``psnr_target`` (checked every ``check_every`` steps) or
        ``max_iterations`` is exhausted, then report as
        :meth:`reconstruct` does for the samples actually consumed.
        """
        if check_every < 1:
            raise ValueError("check_every must be positive")
        cfg = self.config
        if cfg.multi_chip:
            model = MoENeRF(
                MoEConfig(n_experts=cfg.n_chips, expert_model=cfg.model),
                seed=cfg.seed,
            )
            trainer = MoETrainer(
                model, dataset.cameras, dataset.images, dataset.normalizer, cfg.trainer
            )
        else:
            model = InstantNGPModel(cfg.model, seed=cfg.seed)
            trainer = Trainer(
                model, dataset.cameras, dataset.images, dataset.normalizer, cfg.trainer
            )
        total_samples = 0.0
        iterations = 0
        while iterations < max_iterations:
            trainer.train_step()
            iterations += 1
            if cfg.multi_chip:
                total_samples += float(np.mean(trainer.last_expert_samples))
            else:
                total_samples += len(trainer.last_batch)
            if iterations % check_every == 0:
                if trainer.eval_psnr(n_views=min(2, len(dataset.cameras))) >= psnr_target:
                    break
        self._model = model
        self._trainer = trainer
        return self._finish_reconstruction(dataset, trainer, iterations, total_samples)

    def render(self, dataset, view: int = 0) -> RenderingResult:
        """Render one dataset view with the trained model, co-simulating."""
        if self._trainer is None:
            raise RuntimeError("call reconstruct() before render()")
        cfg = self.config
        camera = dataset.cameras[view]
        target = dataset.images[view]
        trainer = self._trainer
        if cfg.multi_chip:
            rays = generate_rays(camera)
            origins, directions = dataset.normalizer.rays_to_unit(
                rays.origins, rays.directions
            )
            colors = trainer.render_rays(origins, directions)
            image = np.clip(colors, 0.0, 1.0).reshape(camera.height, camera.width, 3)
        else:
            image = wrap_model(
                self._model, marcher=trainer.marcher, occupancy=trainer.occupancy
            ).render_image(camera, dataset.normalizer)
        trace = self._extract_trace(dataset, trainer, camera=camera)
        report = self._simulate(trace, trace.n_samples, training=False)
        quality = compute_psnr(image, target)
        fps = fps_from_throughput(report["samples_per_s"])
        return RenderingResult(
            image=image,
            psnr=quality,
            simulated_frame_s=report["runtime_s"],
            simulated_fps_800p=fps,
            simulated_energy_j=report["energy_j"],
            throughput_samples_per_s=report["samples_per_s"],
            trace=trace,
        )

    # -- internals ---------------------------------------------------------

    def _finish_reconstruction(
        self, dataset, trainer, iterations: int, total_samples: float
    ) -> ReconstructionResult:
        cfg = self.config
        trace = self._extract_trace(dataset, trainer)
        report = self._simulate(trace, total_samples, training=True)
        quality = trainer.eval_psnr(n_views=min(2, len(dataset.cameras)))
        volume = WorkloadVolume(
            total_samples=total_samples,
            total_rays=iterations * cfg.trainer.batch_rays,
            iterations=iterations,
            deadline_s=max(report["runtime_s"], 1e-9),
        )
        # Scale the one-off model download to this run's actual model (the
        # default constants describe the paper's full-size configuration).
        from dataclasses import replace

        model_bytes = (
            sum(p.size for p in self._model.parameters().values()) * 2  # fp16
        )
        bandwidth = BandwidthModel(
            replace(self.bandwidth.constants, model_io_bytes=model_bytes)
        )
        bw = bandwidth.required_training_bandwidth_gbps(
            volume,
            table_bytes=self.bandwidth.table_bytes(cfg.model.encoding.log2_table_size),
            on_chip_feature_bytes=cfg.chip.feature_sram_kb * 1024,
        )
        return ReconstructionResult(
            psnr=quality,
            iterations=iterations,
            total_samples=total_samples,
            simulated_training_s=report["runtime_s"],
            simulated_energy_j=report["energy_j"],
            simulated_power_w=report["power_w"],
            throughput_samples_per_s=report["samples_per_s"],
            offchip_bandwidth_gbps=bw,
            trace=trace,
        )

    def _extract_trace(self, dataset, trainer, camera=None) -> WorkloadTrace:
        """Trace the current occupancy-gated workload of one view."""
        camera = camera or dataset.cameras[0]
        rays = generate_rays(camera)
        origins, directions = dataset.normalizer.rays_to_unit(
            rays.origins, rays.directions
        )
        occupancy = (
            trainer.occupancies[0]
            if self.config.multi_chip
            else trainer.occupancy
        )
        encoding = (
            trainer.model.experts[0].encoding
            if self.config.multi_chip
            else trainer.model.encoding
        )
        return trace_from_rays(
            origins,
            directions,
            occupancy,
            encoding=encoding,
            max_samples=self.config.trainer.max_samples_per_ray,
        )

    def _simulate(self, trace: WorkloadTrace, total_samples: float, training: bool) -> dict:
        scale = trace.scale_for_samples(max(total_samples, 1.0))
        if self.config.multi_chip:
            report = self.system.simulate(
                [trace] * self.config.n_chips,
                training=training,
                workload_scale=scale,
            )
        else:
            report = self.system.simulate(
                trace, training=training, workload_scale=scale
            )
        return {
            "runtime_s": report.runtime_s,
            "energy_j": report.energy_j,
            "power_w": report.power_w,
            "samples_per_s": report.samples_per_second,
        }
