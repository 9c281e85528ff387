"""Training loop: instant reconstruction in software.

Reproduces the Instant-NGP training recipe the accelerator executes:
random ray batches, occupancy-gated marching, MSE on composited pixels,
Adam on hash tables + MLPs, periodic occupancy refresh.  Hooks let the
experiments capture workload traces (for the cycle simulator) and apply
quantization (for the Table II study).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..robustness.errors import DivergenceError, DivergenceEvent
from .aabb import SceneNormalizer
from .occupancy import OccupancyGrid
from .optimizer import Adam, mse_loss
from .rays import sample_training_rays
from .sampling import RayMarcher, SamplerConfig
from .volume_rendering import composite, composite_backward, psnr


@dataclass(frozen=True)
class TrainerConfig:
    """Training hyper-parameters."""

    batch_rays: int = 1024
    lr: float = 1e-2
    background: float = 1.0
    #: Refresh the occupancy grid every this many iterations (0 = never).
    occupancy_interval: int = 16
    occupancy_resolution: int = 32
    occupancy_threshold: float = 0.05
    max_samples_per_ray: int = 64
    seed: int = 0


@dataclass
class TrainState:
    """Mutable bookkeeping of one training run."""

    iteration: int = 0
    losses: list = field(default_factory=list)
    psnr_history: list = field(default_factory=list)
    #: Structured record of every skipped step (see DivergenceEvent).
    divergence_events: list = field(default_factory=list)


class Trainer:
    """Trains a radiance-field model against a posed image set."""

    def __init__(
        self,
        model,
        cameras: list,
        images: np.ndarray,
        normalizer: SceneNormalizer,
        config: TrainerConfig = TrainerConfig(),
    ):
        if len(cameras) == 0:
            raise ValueError("need at least one training view")
        self.model = model
        self.cameras = cameras
        self.images = np.asarray(images, dtype=np.float64)
        self.normalizer = normalizer
        self.config = config
        self.rng = np.random.default_rng(config.seed)
        self.marcher = RayMarcher(
            SamplerConfig(max_samples=config.max_samples_per_ray, jitter=True)
        )
        self.occupancy = OccupancyGrid(
            resolution=config.occupancy_resolution,
            threshold=config.occupancy_threshold,
        )
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self.state = TrainState()
        #: Set by experiments to intercept each step (e.g. quantization).
        self.post_step_hook = None
        #: Last sample batch, for workload-trace extraction.
        self.last_batch = None
        #: Gradient-norm divergence threshold; 0 disables the check.
        #: Typically set by a robustness watchdog on attach.
        self.grad_norm_threshold = 0.0

    def train_step(self) -> float:
        """One optimization step; returns the batch loss."""
        cfg = self.config
        tel = telemetry.get_session()
        step_start = time.perf_counter() if tel.enabled else 0.0
        with tel.tracer.span("trainer.train_step"):
            with tel.tracer.span("trainer.sample_rays"):
                rays, target = sample_training_rays(
                    self.cameras, self.images, cfg.batch_rays, self.rng
                )
                origins, directions = self.normalizer.rays_to_unit(
                    rays.origins, rays.directions
                )
                batch = self.marcher.sample(
                    origins, directions, occupancy=self.occupancy, rng=self.rng
                )
            self.last_batch = batch
            tel.hooks.emit(telemetry.ON_BATCH, trainer=self, batch=batch)
            if len(batch) == 0:
                # Degenerate batch (all empty space): skip the step entirely.
                # Benign — nothing was poisoned — but no longer silent: the
                # skip is recorded as a structured event so a long run of
                # them can be diagnosed instead of read back as NaN losses.
                self.state.iteration += 1
                self.state.losses.append(float("nan"))
                event = DivergenceEvent(
                    iteration=self.state.iteration,
                    reason="degenerate_batch",
                    detail="ray marching produced zero samples",
                )
                self.state.divergence_events.append(event)
                tel.hooks.emit(telemetry.ON_DIVERGENCE, trainer=self, event=event)
                tel.hooks.emit(
                    telemetry.ON_ITERATION, trainer=self, loss=float("nan")
                )
                return float("nan")
            with tel.tracer.span("trainer.forward"):
                sigma, rgb, cache = self.model.forward(
                    batch.positions, batch.directions
                )
            with tel.tracer.span("trainer.composite"):
                result = composite(
                    sigma,
                    rgb,
                    batch.deltas,
                    batch.ts,
                    batch.ray_idx,
                    batch.n_rays,
                    background=cfg.background,
                )
                loss, grad_colors = mse_loss(result.colors, target)
            if not np.isfinite(loss):
                # The step never reaches the optimizer: the model the
                # caller holds is still the last good one.
                return self._diverge(
                    tel, reason="non_finite_loss", loss=float(loss)
                )
            with tel.tracer.span("trainer.backward"):
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
                grads = self.model.backward(grad_sigma, grad_rgb, cache)
            if self.grad_norm_threshold > 0:
                grad_norm = float(
                    np.sqrt(
                        sum(float(np.sum(np.square(g))) for g in grads.values())
                    )
                )
                if not np.isfinite(grad_norm) or grad_norm > self.grad_norm_threshold:
                    return self._diverge(
                        tel,
                        reason="gradient_explosion",
                        loss=float(loss),
                        grad_norm=grad_norm,
                    )
            with tel.tracer.span("trainer.optimizer_step"):
                self.optimizer.step(grads)
            self.state.iteration += 1
            self.state.losses.append(loss)
            if (
                cfg.occupancy_interval
                and self.state.iteration % cfg.occupancy_interval == 0
            ):
                refresh_start = time.perf_counter() if tel.enabled else 0.0
                with tel.tracer.span("trainer.occupancy_refresh"):
                    self._refresh_occupancy()
                if tel.enabled:
                    tel.metrics.histogram("trainer.occupancy_refresh_s").observe(
                        time.perf_counter() - refresh_start
                    )
            if self.post_step_hook is not None:
                self.post_step_hook(self)
        if tel.enabled:
            step_s = time.perf_counter() - step_start
            m = tel.metrics
            m.counter("trainer.iterations").inc()
            m.counter("trainer.rays").inc(cfg.batch_rays)
            m.counter("trainer.samples").inc(len(batch))
            m.gauge("trainer.loss").set(loss)
            m.histogram("trainer.step_s").observe(step_s)
            if step_s > 0:
                m.gauge("trainer.rays_per_s").set(cfg.batch_rays / step_s)
            if tel.publisher is not None:
                tel.publisher.maybe_publish()
        tel.hooks.emit(telemetry.ON_ITERATION, trainer=self, loss=loss)
        return loss

    def _diverge(
        self, tel, reason: str, loss: float = float("nan"), grad_norm=None
    ) -> float:
        """Record a skipped (diverged) step and dispatch it for recovery.

        Emits ``on_divergence``; if nobody is subscribed, raises
        :class:`~repro.robustness.errors.DivergenceError` — divergence is
        never silent.  A subscriber (e.g. a
        :class:`~repro.robustness.watchdog.DivergenceWatchdog`) claims
        responsibility, so the step is recorded as NaN and training can
        continue from whatever state the subscriber restored.
        """
        self.state.iteration += 1
        self.state.losses.append(float("nan"))
        event = DivergenceEvent(
            iteration=self.state.iteration,
            reason=reason,
            loss=loss,
            grad_norm=grad_norm,
        )
        self.state.divergence_events.append(event)
        if tel.enabled:
            tel.metrics.counter("trainer.divergence_events").inc()
        handled = tel.hooks.emit(telemetry.ON_DIVERGENCE, trainer=self, event=event)
        if handled == 0:
            raise DivergenceError(event)
        tel.hooks.emit(telemetry.ON_ITERATION, trainer=self, loss=float("nan"))
        return float("nan")

    def train(self, n_iterations: int, eval_every: int = 0, eval_views: int = 2) -> TrainState:
        """Run ``n_iterations`` steps, optionally tracking test PSNR."""
        for _ in range(n_iterations):
            self.train_step()
            if eval_every and self.state.iteration % eval_every == 0:
                self.state.psnr_history.append(
                    (self.state.iteration, self.eval_psnr(n_views=eval_views))
                )
        return self.state

    def train_steps(self, n_steps: int) -> TrainState:
        """Run a budgeted training increment of exactly ``n_steps`` steps.

        The incremental API the online reconstruction loop schedules
        around: N calls of ``train_steps(k)`` are *bit-identical* to one
        ``train(N * k)`` — same RNG stream, Adam moments, and occupancy
        EMA — because a step consumes nothing outside :meth:`train_step`
        and nothing here draws from the trainer RNG between increments.
        (Evaluation via :meth:`eval_psnr` is also stream-neutral: it
        renders with deterministic mid-step sampling.)
        """
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        for _ in range(n_steps):
            self.train_step()
        return self.state

    def add_view(self, camera, image: np.ndarray) -> int:
        """Append one posed frame to the training set; returns the view count.

        The streaming-ingest hook: subsequent ray batches draw uniformly
        over the grown set.  The image must match the existing
        ``(h, w, 3)`` resolution — mixed-resolution captures are not
        supported by the flat pixel sampler.
        """
        image = np.asarray(image, dtype=np.float64)
        if image.shape != self.images.shape[1:]:
            raise ValueError(
                f"view shape {image.shape} does not match the training set "
                f"{self.images.shape[1:]}"
            )
        self.cameras = list(self.cameras) + [camera]
        self.images = np.concatenate([self.images, image[None]], axis=0)
        return len(self.cameras)

    def eval_psnr(self, cameras: list = None, images: np.ndarray = None, n_views: int = 2) -> float:
        """Average PSNR over held-out (or the first ``n_views`` training) views."""
        if cameras is None:
            cameras = self.cameras[:n_views]
            images = self.images[:n_views]
        # Imported here: at module level the import is circular
        # (repro.pipeline.registry -> nerf.moe -> nerf.trainer).
        from ..pipeline.registry import wrap_model

        renderer = wrap_model(
            self.model,
            marcher=self.marcher,
            occupancy=self.occupancy,
            background=self.config.background,
        )
        tel = telemetry.get_session()
        scores = []
        with tel.tracer.span("trainer.eval_psnr"):
            for camera, target in zip(cameras, images):
                rendered = renderer.render_image(camera, self.normalizer)
                scores.append(psnr(rendered, target))
        score = float(np.mean(scores))
        tel.metrics.gauge("trainer.psnr").set(score)
        return score

    def _refresh_occupancy(self) -> None:
        """Re-estimate occupancy from the current density field."""
        res = self.occupancy.resolution
        base = (
            np.stack(np.meshgrid(*([np.arange(res)] * 3), indexing="ij"), axis=-1)
            .reshape(-1, 3)
            .astype(np.float64)
        )
        jitter = self.rng.uniform(0.0, 1.0, size=base.shape)
        points = (base + jitter) / res
        density = self.model.density(points)
        self.occupancy.update(points, density)
        # Never let the grid collapse to fully-empty early in training.
        if not self.occupancy.mask.any():
            self.occupancy.mask[:] = True
