"""The four renderer stage interfaces and their stock implementations.

A :class:`~repro.pipeline.renderer.Renderer` is a composition of four
swappable stages, mirroring the paper's pipeline decomposition:

* :class:`Encoding` — positions to feature rows (Stage II's gather);
* :class:`Field` — positions + directions to ``(sigma, rgb)`` (Stage
  II/III compute: encoding + MLP heads);
* :class:`Sampler` — rays to a :class:`~repro.nerf.sampling.SampleBatch`
  (Stage I's occupancy-gated marching);
* :class:`Compositor` — per-sample ``(sigma, rgb)`` to per-ray colors
  (Stage III's transmittance-weighted blend, optionally ERT-truncated
  or evaluated on a low-precision snapshot).

The interfaces are *structural*: existing classes
(:class:`~repro.nerf.hash_encoding.HashEncoding`,
:class:`~repro.nerf.model.InstantNGPModel`, ...) satisfy them without
inheriting — the bases exist to document the contract and to give new
renderers a checked skeleton to subclass.  See ``docs/renderers.md`` for
the authoring guide and the obligations (served == offline for every
stage config, bench, fault classification) a new renderer must meet.
"""

from __future__ import annotations

import numpy as np

from ..nerf.early_termination import render_batch_adaptive
from ..nerf.occupancy import OccupancyGrid
from ..nerf.precision import FULL_PRECISION
from ..nerf.sampling import RayMarcher, SampleBatch, SamplerConfig
from ..nerf.volume_rendering import composite


class Encoding:
    """Positions -> feature rows, with a hand gradient.

    Contract (satisfied structurally by
    :class:`~repro.nerf.hash_encoding.HashEncoding` and
    :class:`~repro.nerf.tensorf.PlaneLineEncoding`):

    * ``forward(points) -> (features, trace)`` — ``(n, output_dim)``
      float64 features plus an opaque trace for backward;
    * ``backward(grad_features, trace)`` — parameter gradients (array or
      name -> array dict, matching ``parameters()``);
    * ``parameters() -> dict`` — name -> array of learnable stores;
    * ``output_dim`` — feature width.
    """

    def forward(self, points: np.ndarray) -> tuple:
        """Encode unit-cube points: ``(features, trace)``."""
        raise NotImplementedError

    def backward(self, grad_features: np.ndarray, trace):
        """Parameter gradients for the encoded batch."""
        raise NotImplementedError

    def parameters(self) -> dict:
        """Name -> array dict of learnable parameter stores."""
        raise NotImplementedError


class Field:
    """Positions + directions -> per-sample ``(sigma, rgb)``.

    The model contract every layer of the repo speaks (trainer, renderer,
    serving, checkpointing):

    * ``forward(positions, directions) -> (sigma, rgb, cache)``;
    * ``backward(grad_sigma, grad_rgb, cache) -> dict`` of parameter
      gradients keyed like ``parameters()``;
    * ``parameters()`` / ``load_parameters(params)``;
    * ``density(positions)`` — density only, for occupancy refreshes.

    :class:`~repro.nerf.model.InstantNGPModel`,
    :class:`~repro.nerf.tensorf.TensoRFModel`,
    :class:`~repro.nerf.tensorf.DenseGridField`, and
    :class:`~repro.nerf.moe.MoENeRF` all satisfy it structurally.
    """

    def forward(self, positions: np.ndarray, directions: np.ndarray) -> tuple:
        """Per-sample ``(sigma, rgb, cache)``."""
        raise NotImplementedError

    def backward(self, grad_sigma, grad_rgb, cache) -> dict:
        """Parameter gradients given ``d loss / d (sigma, rgb)``."""
        raise NotImplementedError

    def parameters(self) -> dict:
        """Flat name -> array dict of every learnable parameter."""
        raise NotImplementedError

    def density(self, positions: np.ndarray) -> np.ndarray:
        """Density only (occupancy-grid refreshes)."""
        raise NotImplementedError


class Sampler:
    """Rays -> a :class:`~repro.nerf.sampling.SampleBatch` (Stage I)."""

    def sample(self, origins: np.ndarray, directions: np.ndarray) -> SampleBatch:
        """March the rays and return the flattened sample batch."""
        raise NotImplementedError


class OccupancySampler(Sampler):
    """Occupancy-gated ray marching — the stock Stage I.

    Wraps the library :class:`~repro.nerf.sampling.RayMarcher` plus an
    optional :class:`~repro.nerf.occupancy.OccupancyGrid`.
    """

    def __init__(self, marcher: RayMarcher = None, occupancy: OccupancyGrid = None):
        self.marcher = marcher or RayMarcher(SamplerConfig())
        self.occupancy = occupancy

    def sample(self, origins: np.ndarray, directions: np.ndarray) -> SampleBatch:
        """Occupancy-gated march of a unit-space ray batch."""
        return self.marcher.sample(origins, directions, occupancy=self.occupancy)


class Compositor:
    """Per-sample ``(sigma, rgb)`` -> per-ray colors (Stage III)."""

    def render(self, field: Field, batch: SampleBatch, background: float) -> tuple:
        """Render a non-empty sample batch: ``(colors, result)``.

        ``result`` is the per-sample
        :class:`~repro.nerf.volume_rendering.RenderResult` when the
        compositor evaluates every sample, else ``None``.
        """
        raise NotImplementedError


class VolumeCompositor(Compositor):
    """Transmittance-weighted compositing: exact, ERT-gated, or low precision.

    ``lowp_field`` (a :class:`~repro.nerf.precision.LowPrecisionField`
    snapshot of the renderer's field) and the two thresholds pick one of
    four regimes:

    * nothing set (default) — the bit-reproducible full evaluation: one
      ``field.forward`` over the batch and the segmented-prefix
      :func:`~repro.nerf.volume_rendering.composite`;
    * ``ert_threshold`` — early ray termination
      (:func:`~repro.nerf.early_termination.render_batch_adaptive` with
      no switch): samples behind the transmittance cutoff are never
      evaluated and the color error is bounded by the threshold;
    * ``lowp_field`` — the same two regimes evaluated on the snapshot
      instead of the field;
    * ``lowp_field`` + ``switch_threshold`` — transmittance-adaptive
      rendering: the full field evaluates each ray until its
      transmittance drops below ``switch_threshold``, the snapshot
      evaluates the occluded tail.  Adaptive rendering is round-based,
      so an ERT threshold always applies (``ert_threshold`` or
      :attr:`DEFAULT_ERT`).

    ``result`` is a per-sample ``RenderResult`` only without ERT, since
    terminated samples have no per-sample render state.
    """

    #: ERT threshold adaptive rendering falls back to when none is set.
    DEFAULT_ERT = 1e-3

    def __init__(
        self,
        ert_threshold: float = None,
        lowp_field=None,
        switch_threshold: float = None,
        round_size: int = 32,
    ):
        if ert_threshold is not None and not 0.0 < ert_threshold < 1.0:
            raise ValueError(
                f"ert_threshold must be in (0, 1) or None, got {ert_threshold!r}"
            )
        if switch_threshold is not None and lowp_field is None:
            raise ValueError(
                "switch_threshold needs a low-precision mode "
                '(precision="fp16" or "fp16-int8")'
            )
        self.ert_threshold = ert_threshold
        self.lowp_field = lowp_field
        self.switch_threshold = switch_threshold
        self.round_size = round_size

    @property
    def precision(self) -> str:
        """The snapshot's precision tag, or ``"full"`` without one."""
        if self.lowp_field is None:
            return FULL_PRECISION
        return self.lowp_field.precision

    def render(self, field: Field, batch: SampleBatch, background: float) -> tuple:
        """Composite one sample batch: ``(colors, result)``."""
        adaptive = self.switch_threshold is not None
        if not adaptive:
            field = self.lowp_field or field
            if self.ert_threshold is None:
                sigma, rgb, _ = field.forward(batch.positions, batch.directions)
                result = composite(
                    sigma,
                    rgb,
                    batch.deltas,
                    batch.ts,
                    batch.ray_idx,
                    batch.n_rays,
                    background=background,
                )
                return result.colors, result
        colors, _ = render_batch_adaptive(
            field,
            self.lowp_field if adaptive else None,
            batch,
            background=background,
            threshold=self.ert_threshold or self.DEFAULT_ERT,
            switch_threshold=self.switch_threshold or 0.0,
            round_size=self.round_size,
        )
        return colors, None
