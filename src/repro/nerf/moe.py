"""Mixture-of-Experts NeRF: Level-1 tiling of the multi-chip system (T3).

The whole model is split into N complete, smaller models ("experts"), one
per chip.  Each expert runs the full three-stage pipeline on the broadcast
input rays, gated by its own occupancy grid, and the chips' outputs are
fused *by addition* in the I/O module — the property that collapses
chip-to-chip traffic to one partial pixel per ray per chip.

Fusion rule.  Each expert composites its own render with the shared
background ``bg``; since a standard composite returns
``C_e = bg + sum_i w_i (c_i - bg)``, the fused pixel

``C = bg + sum_e (C_e - bg)``

is a plain sum with a constant offset, and ``dC/dC_e = 1`` — the I/O
module is an adder, exactly as Sec. V-A describes, and gradients broadcast
back to each chip unchanged.  Experts specialize automatically during
training (paper Fig. 8).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .aabb import SceneNormalizer
from .hash_encoding import HashEncodingConfig
from .model import InstantNGPModel, ModelConfig
from .occupancy import OccupancyGrid
from .optimizer import Adam, mse_loss
from .rays import sample_training_rays, generate_rays
from .sampling import RayMarcher, SamplerConfig
from .trainer import TrainerConfig, TrainState
from .volume_rendering import composite, composite_backward, psnr


@dataclass(frozen=True)
class MoEConfig:
    """MoE decomposition parameters.

    ``expert_log2_table_size`` is the per-expert hash-table size; the
    paper's headline configuration is four experts of 2^14 entries
    replacing one 2^16 model (same total capacity).
    """

    n_experts: int = 4
    expert_model: ModelConfig = field(
        default_factory=lambda: ModelConfig(
            encoding=HashEncodingConfig(log2_table_size=14)
        )
    )

    def __post_init__(self):
        if self.n_experts < 1:
            raise ValueError("need at least one expert")


class MoENeRF:
    """N independent experts fused by addition at the pixel level."""

    def __init__(self, config: MoEConfig = MoEConfig(), seed: int = 0):
        self.config = config
        self.experts = [
            InstantNGPModel(config.expert_model, seed=seed + i)
            for i in range(config.n_experts)
        ]

    @property
    def n_experts(self) -> int:
        return self.config.n_experts

    @property
    def n_parameters(self) -> int:
        return sum(expert.n_parameters for expert in self.experts)

    def parameters(self) -> dict:
        params = {}
        for i, expert in enumerate(self.experts):
            for name, value in expert.parameters().items():
                params[f"expert{i}.{name}"] = value
        return params

    @staticmethod
    def fuse(expert_colors: list, background: float) -> np.ndarray:
        """The I/O module's adder: ``bg + sum_e (C_e - bg)``."""
        if not expert_colors:
            raise ValueError("no expert outputs to fuse")
        total = np.zeros_like(expert_colors[0])
        for colors in expert_colors:
            total += colors - background
        return total + background


class MoETrainer:
    """Joint training of all experts against the fused render."""

    def __init__(
        self,
        model: MoENeRF,
        cameras: list,
        images: np.ndarray,
        normalizer: SceneNormalizer,
        config: TrainerConfig = TrainerConfig(),
    ):
        self.model = model
        self.cameras = cameras
        self.images = np.asarray(images, dtype=np.float64)
        self.normalizer = normalizer
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.marcher = RayMarcher(
            SamplerConfig(max_samples=config.max_samples_per_ray, jitter=True)
        )
        self.occupancies = [
            OccupancyGrid(
                resolution=config.occupancy_resolution,
                threshold=config.occupancy_threshold,
            )
            for _ in range(model.n_experts)
        ]
        self.optimizers = [
            Adam(expert.parameters(), lr=config.lr) for expert in model.experts
        ]
        self.state = TrainState()
        #: Per-expert sample counts of the last step (workload balance data).
        self.last_expert_samples = [0] * model.n_experts

    def train_step(self) -> float:
        cfg = self.config
        rays, target = sample_training_rays(
            self.cameras, self.images, cfg.batch_rays, self.rng
        )
        origins, directions = self.normalizer.rays_to_unit(
            rays.origins, rays.directions
        )
        forwards = []
        expert_colors = []
        for e, expert in enumerate(self.model.experts):
            batch = self.marcher.sample(
                origins, directions, occupancy=self.occupancies[e], rng=self.rng
            )
            self.last_expert_samples[e] = len(batch)
            if len(batch) == 0:
                forwards.append(None)
                expert_colors.append(
                    np.full((len(target), 3), cfg.background, dtype=np.float64)
                )
                continue
            sigma, rgb, cache = expert.forward(batch.positions, batch.directions)
            result = composite(
                sigma,
                rgb,
                batch.deltas,
                batch.ts,
                batch.ray_idx,
                batch.n_rays,
                background=cfg.background,
            )
            forwards.append((batch, sigma, rgb, cache, result))
            expert_colors.append(result.colors)
        fused = MoENeRF.fuse(expert_colors, cfg.background)
        loss, grad_colors = mse_loss(fused, target)
        for e, expert in enumerate(self.model.experts):
            if forwards[e] is None:
                continue
            batch, sigma, rgb, cache, result = forwards[e]
            grad_sigma, grad_rgb = composite_backward(
                grad_colors,
                result,
                sigma,
                rgb,
                batch.deltas,
                batch.ray_idx,
                batch.n_rays,
                background=cfg.background,
            )
            grads = expert.backward(grad_sigma, grad_rgb, cache)
            self.optimizers[e].step(grads)
        self.state.iteration += 1
        self.state.losses.append(loss)
        if (
            cfg.occupancy_interval
            and self.state.iteration % cfg.occupancy_interval == 0
        ):
            self._refresh_occupancies()
        return loss

    def train(self, n_iterations: int, eval_every: int = 0, eval_views: int = 2) -> TrainState:
        for _ in range(n_iterations):
            self.train_step()
            if eval_every and self.state.iteration % eval_every == 0:
                self.state.psnr_history.append(
                    (self.state.iteration, self.eval_psnr(n_views=eval_views))
                )
        return self.state

    def expert_renderers(self, background: float) -> list:
        """One :class:`~repro.pipeline.renderer.Renderer` per expert.

        Each runs the full pipeline over the shared marcher and that
        expert's occupancy grid, compositing against ``background``.
        Built per call, so a replaced occupancy grid can never leave a
        stale renderer behind.
        """
        # Imported here: repro.pipeline.registry imports this module.
        from ..pipeline.registry import wrap_model

        return [
            wrap_model(
                expert,
                marcher=self.marcher,
                occupancy=occupancy,
                background=background,
            )
            for expert, occupancy in zip(self.model.experts, self.occupancies)
        ]

    def render_rays(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Fused inference render of unit-space rays: the I/O adder over
        every expert's :meth:`~repro.pipeline.renderer.Renderer.render_rays`."""
        background = self.config.background
        return MoENeRF.fuse(
            [
                r.render_rays(origins, directions)[0]
                for r in self.expert_renderers(background)
            ],
            background,
        )

    def eval_psnr(self, cameras: list = None, images: np.ndarray = None, n_views: int = 2) -> float:
        if cameras is None:
            cameras = self.cameras[:n_views]
            images = self.images[:n_views]
        scores = []
        for camera, target in zip(cameras, images):
            rays = generate_rays(camera)
            origins, directions = self.normalizer.rays_to_unit(
                rays.origins, rays.directions
            )
            colors = np.empty((camera.n_pixels, 3))
            chunk = 8192
            for start in range(0, camera.n_pixels, chunk):
                stop = min(start + chunk, camera.n_pixels)
                colors[start:stop] = self.render_rays(
                    origins[start:stop], directions[start:stop]
                )
            rendered = np.clip(colors, 0.0, 1.0).reshape(
                camera.height, camera.width, 3
            )
            scores.append(psnr(rendered, target))
        return float(np.mean(scores))

    def expert_dominance(self, origins: np.ndarray, directions: np.ndarray) -> np.ndarray:
        """Which expert contributes most to each ray (paper Fig. 8 view).

        Returns an ``(n_rays,)`` int array of dominating expert indices.
        """
        contributions = [
            np.abs(r.render_rays(origins, directions)[0]).sum(axis=-1)
            for r in self.expert_renderers(0.0)
        ]
        return np.argmax(np.stack(contributions, axis=0), axis=0)

    def _refresh_occupancies(self) -> None:
        res = self.config.occupancy_resolution
        base = (
            np.stack(np.meshgrid(*([np.arange(res)] * 3), indexing="ij"), axis=-1)
            .reshape(-1, 3)
            .astype(np.float64)
        )
        for e, expert in enumerate(self.model.experts):
            jitter = self.rng.uniform(0.0, 1.0, size=base.shape)
            points = (base + jitter) / res
            density = expert.density(points)
            self.occupancies[e].update(points, density)
            if not self.occupancies[e].mask.any():
                self.occupancies[e].mask[:] = True


def dominance_map(trainer: MoETrainer, camera, normalizer) -> np.ndarray:
    """Per-pixel dominating-expert image (the paper's Fig. 8 view).

    Returns an ``(h, w)`` integer array of expert indices; render it with
    any categorical palette to reproduce the figure's colored regions.
    """
    from .rays import generate_rays

    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    dominance = trainer.expert_dominance(origins, directions)
    return dominance.reshape(camera.height, camera.width)


def dominance_ascii(dominance: np.ndarray, glyphs: str = ".:+#@%&*") -> str:
    """Render a dominance map as ASCII art (for terminal examples)."""
    dominance = np.asarray(dominance)
    if dominance.max() >= len(glyphs):
        raise ValueError("not enough glyphs for the expert count")
    lines = []
    for row in dominance:
        lines.append("".join(glyphs[int(e)] for e in row))
    return "\n".join(lines)
