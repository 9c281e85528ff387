"""The staged :class:`Renderer`: sampler -> field -> compositor.

The one code path that turns rays into colors.  Training eval, offline
frames, serving, the fleet, online reference frames, MoE fusion and the
experiments all render through :meth:`Renderer.render_rays`, and every
full frame goes through the chunk loop of :func:`render_frame`, so a
served frame equals the offline :meth:`Renderer.render_image` at the
serving slice size for every stage configuration (exact, ERT, low
precision, adaptive).
"""

from __future__ import annotations

import numpy as np

from ..nerf.camera import Camera
from ..nerf.checkpoint import save_model
from ..nerf.precision import FULL_PRECISION
from ..nerf.rays import generate_rays
from ..robustness import faults
from ..robustness.injection import scrub_colors
from .stages import Compositor, Field, OccupancySampler, Sampler, VolumeCompositor


def scrub_rendered_colors(colors: np.ndarray, background: float) -> np.ndarray:
    """Clamp-and-flag non-finite pixels when fault injection is active.

    A corrupted sample (e.g. an injected SRAM bit flip driving sigma to
    inf) degrades its own pixel to background instead of poisoning the
    whole image and every PSNR after it.  No-op (and zero-cost) outside
    an active fault scope.
    """
    if faults.get_active() is None:
        return colors
    colors, n_flagged = scrub_colors(colors, background)
    if n_flagged:
        from .. import telemetry

        log = faults.get_log()
        if log is not None:
            log.record(
                "renderer", f"clamped {n_flagged} non-finite pixel values"
            )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter("robustness.render.nonfinite_clamped").inc(
                n_flagged
            )
    return colors


def render_frame(
    render_rays, camera: Camera, normalizer, chunk: int = 8192
) -> np.ndarray:
    """Render a full frame, chunked to bound peak memory.

    ``render_rays(origins, directions) -> colors`` renders one slice of
    unit-space rays: a :class:`Renderer`'s, or an MoE trainer's fused
    adder over every expert's renderer.  Fixed ``chunk``-sized pixel
    slices, the last one short when ``chunk`` does not divide the frame,
    go through it in order into a float32 frame buffer (the serving
    pixel format).  Returns an ``(h, w, 3)`` float32 image in [0, 1].
    """
    if chunk < 1:
        raise ValueError("chunk must be positive")
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    out = np.empty((camera.n_pixels, 3), dtype=np.float32)
    for start in range(0, camera.n_pixels, chunk):
        stop = start + chunk
        out[start:stop] = render_rays(origins[start:stop], directions[start:stop])
    return np.clip(out, 0.0, 1.0).reshape(camera.height, camera.width, 3)


class Renderer:
    """A named, fully-assembled rendering pipeline.

    Composes a :class:`~repro.pipeline.stages.Sampler`, a
    :class:`~repro.pipeline.stages.Field`, and a
    :class:`~repro.pipeline.stages.Compositor` under a renderer ``name``
    (the tag the serving, perf, obs, and robustness layers key on).
    Construct directly, via :func:`repro.pipeline.registry.create`, or
    by wrapping an existing model with
    :func:`repro.pipeline.registry.wrap_model`.
    """

    def __init__(
        self,
        name: str,
        field: Field,
        sampler: Sampler = None,
        compositor: Compositor = None,
        background: float = 1.0,
    ):
        self.name = name
        self.field = field
        self.sampler = sampler or OccupancySampler()
        self.compositor = compositor or VolumeCompositor()
        self.background = background

    @property
    def precision(self) -> str:
        """Inference precision tag (``"full"``, ``"fp16"``, ``"fp16-int8"``).

        Read from the stages: the compositor's snapshot when it has one
        (``"full"`` for an unrounded float32 snapshot), else the field's
        own tag (a
        :class:`~repro.nerf.precision.LowPrecisionField` used directly as
        the field).  Serving keys its admission EWMA on it.
        """
        lowp = getattr(self.compositor, "lowp_field", None)
        return getattr(lowp or self.field, "precision", FULL_PRECISION)

    @property
    def encoding(self):
        """The field's encoding stage (``None`` for encoding-free fields)."""
        return getattr(self.field, "encoding", None)

    @property
    def occupancy(self):
        """The sampler's occupancy grid when it has one, else ``None``."""
        return getattr(self.sampler, "occupancy", None)

    @property
    def marcher(self):
        """The sampler's ray marcher when it has one, else ``None``."""
        return getattr(self.sampler, "marcher", None)

    @property
    def n_parameters(self) -> int:
        """Learnable parameter count of the field."""
        return sum(p.size for p in self.field.parameters().values())

    def render_rays(self, origins: np.ndarray, directions: np.ndarray) -> tuple:
        """Render a unit-space ray batch: ``(colors, batch, live)``.

        The compositor evaluates its float32 inference snapshot of
        :attr:`field` when it holds one (every ``ngp`` renderer, see
        :func:`~repro.pipeline.registry.wrap_model`), else the field
        itself; the field stays the float64 master that trains and
        checkpoints.  Returns the sample batch so callers can trace it,
        and ``live``, the number of samples that reached the composite
        (``len(batch)`` without early ray termination, 0 for an empty
        batch), which serving bills.  Colors are float64 and unclipped;
        a batch with no kept samples is all background.
        """
        batch = self.sampler.sample(origins, directions)
        if len(batch) == 0:
            n = np.atleast_2d(origins).shape[0]
            colors = np.full((n, 3), self.background, dtype=np.float64)
            return colors, batch, 0
        colors, live = self.compositor.render(self.field, batch, self.background)
        colors = scrub_rendered_colors(colors, self.background)
        return colors, batch, live

    def render_image(
        self, camera: Camera, normalizer, chunk: int = 8192
    ) -> np.ndarray:
        """Render a full frame through :func:`render_frame`.

        Returns an ``(h, w, 3)`` float32 image in [0, 1].
        """
        return render_frame(
            lambda origins, directions: self.render_rays(origins, directions)[0],
            camera,
            normalizer,
            chunk=chunk,
        )

    def save(self, path, normalizer=None) -> int:
        """Checkpoint the renderer's field (+ occupancy/normalizer state).

        Delegates to :func:`repro.nerf.checkpoint.save_model`; the
        archive round-trips through
        :func:`repro.pipeline.registry.load_renderer`, which restores
        the renderer name from the field type.  Returns the payload size
        in bytes.
        """
        return save_model(
            self.field, path, occupancy=self.occupancy, normalizer=normalizer
        )
