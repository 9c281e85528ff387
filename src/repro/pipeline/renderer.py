"""The staged :class:`Renderer`: sampler -> field -> compositor.

The one code path that turns rays into colors.  Training eval, offline
frames, serving, the fleet, online reference frames, MoE fusion and the
experiments all render through :meth:`Renderer.render_rays`, so a served
frame equals the offline :meth:`Renderer.render_image` at the serving
slice size for every stage configuration (exact, ERT, low precision,
adaptive).
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

        Read from the stages: the compositor's low-precision snapshot
        when it has one, else the field's own tag (a
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
        """Render a unit-space ray batch: ``(colors, batch, result)``.

        Returns the sample batch so callers can bill or trace it, and the
        per-sample :class:`~repro.nerf.volume_rendering.RenderResult`
        (``None`` for an empty batch or an ERT compositor).  Colors are
        float64 and unclipped; a batch with no kept samples is all
        background.
        """
        batch = self.sampler.sample(origins, directions)
        if len(batch) == 0:
            n = np.atleast_2d(origins).shape[0]
            colors = np.full((n, 3), self.background, dtype=np.float64)
            return colors, batch, None
        colors, result = self.compositor.render(
            self.field, batch, self.background
        )
        colors = scrub_rendered_colors(colors, self.background)
        return colors, batch, result

    def render_image(
        self,
        camera: Camera,
        normalizer,
        chunk: int = 8192,
        jobs: int = 1,
    ) -> np.ndarray:
        """Render a full frame, chunked to bound peak memory.

        Fixed ``chunk``-sized pixel slices go through :meth:`render_rays`
        into a float32 frame buffer (the serving pixel format).  With
        ``jobs > 1`` the chunks evaluate on a thread pool; each chunk only
        reads shared state and writes its own slice, and chunk boundaries
        depend on ``chunk`` alone, so the image is bit-identical for every
        ``jobs`` setting.  Returns an ``(h, w, 3)`` float32 image in
        [0, 1].
        """
        if chunk < 1:
            raise ValueError("chunk must be positive")
        from ..parallel.chunking import parallel_map_chunks

        rays = generate_rays(camera)
        origins, directions = normalizer.rays_to_unit(
            rays.origins, rays.directions
        )
        out = np.empty((camera.n_pixels, 3), dtype=np.float32)

        def render_chunk(start, stop):
            colors, _, _ = self.render_rays(
                origins[start:stop], directions[start:stop]
            )
            out[start:stop] = colors

        parallel_map_chunks(render_chunk, camera.n_pixels, chunk, jobs=jobs)
        return np.clip(out, 0.0, 1.0).reshape(camera.height, camera.width, 3)

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
