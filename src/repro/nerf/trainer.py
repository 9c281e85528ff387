"""Training loop: instant reconstruction in software.

Reproduces the Instant-NGP training recipe the accelerator executes:
random ray batches, occupancy-gated marching, MSE on composited pixels,
Adam on hash tables + MLPs, periodic occupancy refresh.  Hooks let the
experiments capture workload traces (for the cycle simulator) and apply
quantization (for the Table II study).

:class:`Trainer` is the only code that runs a training step.  It trains
one field, or the experts of a :class:`~repro.nerf.moe.MoENeRF` jointly
against their fused pixel (the paper's Level-1 tiling, Sec. V-A): the
I/O module is an adder, so each expert runs the ordinary step on its own
occupancy grid and one optimizer updates them all.

A step runs on the datapath the renderers evaluate: each plain
:class:`~repro.nerf.model.InstantNGPModel` expert's forward, backward and
occupancy refresh run on a float32 snapshot of its float64 master,
re-cast every step, and Adam applies the gradients, cast to float64, to
the master (wide accumulators, narrow compute).  Other fields train as
they are.
"""

from __future__ import annotations

import ctypes
import time
from dataclasses import dataclass, field

import numpy as np

from .. import telemetry
from ..robustness.errors import DivergenceError, DivergenceEvent
from .aabb import SceneNormalizer
from .moe import MoENeRF
from .occupancy import OccupancyGrid
from .optimizer import Adam, mse_loss
from .precision import LowPrecisionField, takes_float32_snapshot
from .rays import RayTable
from .sampling import RayMarcher, SamplerConfig
from .volume_rendering import composite, composite_backward, psnr


#: glibc ``mallopt`` parameter numbers (``malloc.h``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
#: Heap thresholds a training process runs with: requests below 8 MiB
#: come from the heap, and the heap keeps up to 16 MiB of free top pages.
#: They are what glibc's own dynamic rule reaches after an 8 MiB free.
HEAP_MMAP_THRESHOLD = 8 * 2**20
HEAP_TRIM_THRESHOLD = 16 * 2**20


def keep_heap_pages() -> bool:
    """Pin glibc's mmap and trim thresholds for training; ``False`` (and
    nothing changed) where the C library has no ``mallopt``.

    Left dynamic, the thresholds depend on the largest block the
    process happened to free before, so a training step's temporaries
    (up to 2 MB each, a traced peak of about 9.5 MiB a step at the
    ``train`` bench's size) either reuse the last step's heap pages or
    come from fresh ``mmap`` pages that page-fault on every step.  Pinned, every
    step reuses them.  The setting is process-wide, so only
    :class:`Trainer` applies it; serving code leaves glibc's rule alone.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt(_M_MMAP_THRESHOLD, HEAP_MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, HEAP_TRIM_THRESHOLD)
    return True


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
    """Trains a radiance field, or an MoE's experts, against posed images.

    The experts are ``model.experts`` for a :class:`MoENeRF` and
    ``[model]`` for any other field.  Each has its own occupancy grid
    (``occupancies``; ``occupancy`` is the first), and their parameters
    and gradients share the keys of ``model.parameters()``.  The
    training views live in one :class:`~repro.nerf.rays.RayTable`
    (``rays``); ``cameras`` and ``images`` read through to it.
    Constructing one pins the process's heap thresholds
    (:func:`keep_heap_pages`).
    """

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
        keep_heap_pages()
        self.model = model
        if isinstance(model, MoENeRF):
            self.experts = list(model.experts)
            self._prefixes = model.prefixes()
        else:
            self.experts = [model]
            self._prefixes = [""]
        self.rays = RayTable(cameras, images, normalizer)
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
            for _ in self.experts
        ]
        #: What each expert's step evaluates: a float32 snapshot,
        #: re-cast from the master by :meth:`_step_fields`, or the expert.
        self._fields = [
            LowPrecisionField(expert, mode="full")
            if takes_float32_snapshot(expert)
            else expert
            for expert in self.experts
        ]
        self.optimizer = Adam(model.parameters(), lr=config.lr)
        self.state = TrainState()
        #: Set by experiments to intercept each step (e.g. quantization).
        self.post_step_hook = None
        #: Last step's sample batch per expert, for workload traces.
        self.last_batches = []
        #: Gradient-norm divergence threshold; 0 disables the check.
        #: Typically set by a robustness watchdog on attach.
        self.grad_norm_threshold = 0.0
        #: The :class:`~repro.robustness.watchdog.DivergenceWatchdog`
        #: that recovers diverged steps; set by its ``attach()``.
        self.watchdog = None

    @property
    def cameras(self) -> list:
        """The training cameras, one per view."""
        return self.rays.cameras

    @property
    def images(self) -> np.ndarray:
        """The ``(n_views, h, w, 3)`` float64 training images."""
        return self.rays.images

    @property
    def occupancy(self) -> OccupancyGrid:
        """The first expert's occupancy grid (a single field's only one)."""
        return self.occupancies[0]

    def train_step(self) -> float:
        """One optimization step; returns the batch loss.

        One ray draw; each expert marches it on its own grid, then
        forwards and composites its batch; the experts' colors are fused
        into one pixel per ray and scored with one MSE.  An expert whose
        batch is empty contributes background and gets no gradient; the
        step is skipped only when every expert's batch is empty.  A model
        holding a non-finite parameter, or a finite one beyond float32
        range, diverges (``non_finite_loss``) before its forward runs.
        """
        cfg = self.config
        tel = telemetry.get_session()
        step_start = time.perf_counter() if tel.enabled else 0.0
        with tel.tracer.span("trainer.train_step"):
            with tel.tracer.span("trainer.sample_rays"):
                origins, directions, target = self.rays.sample(
                    cfg.batch_rays, self.rng
                )
                batches = [
                    self.marcher.sample(
                        origins, directions, occupancy=occupancy, rng=self.rng
                    )
                    for occupancy in self.occupancies
                ]
            self.last_batches = batches
            n_samples = sum(len(batch) for batch in batches)
            if n_samples == 0:
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
                return float("nan")
            unfit = self._unfit_parameter()
            if unfit:
                # A poisoned parameter (e.g. an SRAM upset) poisons the
                # loss, and one beyond float32 range would read as inf
                # on the snapshot.  Score the step as non-finite without
                # running a forward; it never reaches the optimizer.
                return self._diverge(tel, reason="non_finite_loss", detail=unfit)
            step_fields = self._step_fields()
            with tel.tracer.span("trainer.forward"):
                fields = [
                    field.forward(batch.positions, batch.directions)
                    if len(batch)
                    else None
                    for field, batch in zip(step_fields, batches)
                ]
            with tel.tracer.span("trainer.composite"):
                results = []
                expert_colors = []
                for batch, field_out in zip(batches, fields):
                    if field_out is None:
                        results.append(None)
                        expert_colors.append(
                            np.full(
                                (batch.n_rays, 3), cfg.background, dtype=np.float64
                            )
                        )
                        continue
                    sigma, rgb, _ = field_out
                    result = composite(
                        sigma,
                        rgb,
                        batch.deltas,
                        batch.ts,
                        batch.ray_idx,
                        batch.n_rays,
                        background=cfg.background,
                    )
                    results.append(result)
                    expert_colors.append(result.colors)
                fused = MoENeRF.fuse(expert_colors, cfg.background)
                loss, grad_colors = mse_loss(fused, target)
            if not np.isfinite(loss):
                # The step never reaches the optimizer: the model the
                # caller holds is still the last good one.
                return self._diverge(
                    tel, reason="non_finite_loss", loss=float(loss)
                )
            with tel.tracer.span("trainer.backward"):
                # The adder passes dC/dC_e = 1: every expert backpropagates
                # the fused pixel's gradient unchanged.
                grads = {}
                for prefix, field, batch, field_out, result in zip(
                    self._prefixes, step_fields, batches, fields, results
                ):
                    if field_out is None:
                        continue
                    sigma, rgb, cache = field_out
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
                    for name, grad in field.backward(
                        grad_sigma, grad_rgb, cache
                    ).items():
                        # Adam updates the float64 master.
                        grads[prefix + name] = np.asarray(grad, dtype=np.float64)
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
            m.counter("trainer.samples").inc(n_samples)
            m.gauge("trainer.loss").set(loss)
            m.histogram("trainer.step_s").observe(step_s)
            if step_s > 0:
                m.gauge("trainer.rays_per_s").set(cfg.batch_rays / step_s)
            if tel.publisher is not None:
                tel.publisher.maybe_publish()
        if self.watchdog is not None:
            self.watchdog.after_step()
        return loss

    def _unfit_parameter(self) -> str:
        """Why the first parameter a step cannot run on is unfit, or ``""``.

        Every value must be finite, and within float32 range on an
        expert whose step runs on a snapshot.  Two reductions per array
        and no temporary: its min and max are within the limits exactly
        when every value is (NaN propagates through both).
        """
        for prefix, expert, field in zip(self._prefixes, self.experts, self._fields):
            dtype = np.float64 if field is expert else np.float32
            limit = float(np.finfo(dtype).max)
            for name, value in expert.parameters().items():
                if not (-limit <= value.min() and value.max() <= limit):
                    if np.isfinite(value).all():
                        return f"parameter {prefix + name!r} beyond float32 range"
                    return f"parameter {prefix + name!r} not finite"
        return ""

    def _step_fields(self) -> list:
        """Each expert's field for this step, snapshots re-cast in place.

        Every master value fits float32: the step checks that before its
        forward, and an Adam update moves a value by about ``lr``.
        """
        for expert, field in zip(self.experts, self._fields):
            if field is not expert:
                stored = field.parameters()
                for name, value in expert.parameters().items():
                    np.copyto(stored[name], value)
        return self._fields

    def _diverge(
        self,
        tel,
        reason: str,
        loss: float = float("nan"),
        grad_norm=None,
        detail: str = "",
    ) -> float:
        """Record a skipped (diverged) step and hand it to the watchdog.

        With no :attr:`watchdog`, raises
        :class:`~repro.robustness.errors.DivergenceError` — divergence is
        never silent.  Otherwise the watchdog recovers (or raises once
        its rollback budget is spent), the step is recorded as NaN and
        training continues from the state it restored.
        """
        self.state.iteration += 1
        self.state.losses.append(float("nan"))
        event = DivergenceEvent(
            iteration=self.state.iteration,
            reason=reason,
            loss=loss,
            grad_norm=grad_norm,
            detail=detail,
        )
        self.state.divergence_events.append(event)
        if tel.enabled:
            tel.metrics.counter("trainer.divergence_events").inc()
        if self.watchdog is None:
            raise DivergenceError(event)
        self.watchdog.recover(event)
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
        return self.rays.add_view(camera, image)

    def renderers(self, background: float = None) -> list:
        """One :class:`~repro.pipeline.renderer.Renderer` per expert.

        Each runs the full pipeline over the shared marcher and that
        expert's occupancy grid, compositing against ``background``
        (default: the training background).  Built per call, so a
        replaced grid can never leave a stale renderer behind.
        """
        # Imported here: repro.pipeline imports repro.nerf, whose package
        # init imports this module.
        from ..pipeline.registry import wrap_model

        if background is None:
            background = self.config.background
        return [
            wrap_model(
                expert,
                marcher=self.marcher,
                occupancy=occupancy,
                background=background,
            )
            for expert, occupancy in zip(self.experts, self.occupancies)
        ]

    def render_image(self, camera) -> np.ndarray:
        """Render one fused ``(h, w, 3)`` float32 frame in [0, 1].

        The I/O adder over every expert's render, one chunk at a time, in
        the training normalizer's frame; for a single field this is its
        renderer's :meth:`~repro.pipeline.renderer.Renderer.render_image`.
        """
        from ..pipeline.renderer import render_frame

        renderers = self.renderers()
        background = self.config.background

        def render_rays(origins, directions):
            return MoENeRF.fuse(
                [r.render_rays(origins, directions)[0] for r in renderers],
                background,
            )

        return render_frame(render_rays, camera, self.normalizer)

    def eval_psnr(self, cameras: list = None, images: np.ndarray = None, n_views: int = 2) -> float:
        """Average PSNR over held-out (or the first ``n_views`` training) views."""
        if cameras is None:
            cameras = self.cameras[:n_views]
            images = self.images[:n_views]
        tel = telemetry.get_session()
        scores = []
        with tel.tracer.span("trainer.eval_psnr"):
            for camera, target in zip(cameras, images):
                scores.append(psnr(self.render_image(camera), target))
        score = float(np.mean(scores))
        tel.metrics.gauge("trainer.psnr").set(score)
        return score

    def _refresh_occupancy(self) -> None:
        """Re-estimate every expert's occupancy from its density field.

        Queries the float32 snapshot re-cast from the updated master.
        """
        for field, occupancy in zip(self._step_fields(), self.occupancies):
            occupancy.refresh_from_density(field.density, self.rng)
