"""The four renderer stage interfaces and their stock implementations.

A :class:`~repro.pipeline.renderer.Renderer` is a composition of four
swappable stages, mirroring the paper's pipeline decomposition:

* :class:`Encoding` — positions to feature rows (Stage II's gather);
* :class:`Field` — positions + directions to ``(sigma, rgb)`` (Stage
  II/III compute: encoding + MLP heads);
* :class:`Sampler` — rays to a :class:`~repro.nerf.sampling.SampleBatch`
  (Stage I's occupancy-gated marching);
* :class:`Compositor` — per-sample ``(sigma, rgb)`` to per-ray colors
  (Stage III's transmittance-weighted blend, optionally ERT-truncated,
  evaluated on a float32 inference snapshot of the field).

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
from ..nerf.volume_rendering import composite, evaluate_in_tiles


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
    :class:`~repro.nerf.tensorf.TensoRFModel`, and
    :class:`~repro.nerf.tensorf.DenseGridField` satisfy it structurally.
    :class:`~repro.nerf.moe.MoENeRF` does not: it holds fields (its
    experts), which :class:`~repro.nerf.trainer.Trainer` trains and
    renders one by one and fuses by addition.
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
        """Render a non-empty sample batch: ``(colors, live)``.

        ``live`` is the number of samples that reached the composite:
        ``len(batch)`` when every sample is evaluated, fewer when rays
        terminate early.  Serving bills the board for it.
        """
        raise NotImplementedError


class VolumeCompositor(Compositor):
    """Transmittance-weighted compositing: exact, ERT-gated, or adaptive.

    ``lowp_field`` is the float32 inference snapshot (a
    :class:`~repro.nerf.precision.LowPrecisionField`) of the renderer's
    field that the compositor evaluates instead of the field: unrounded
    at ``"full"`` precision (what :func:`~repro.pipeline.registry.wrap_model`
    builds for every plain ``InstantNGPModel``), or rounded to
    ``"fp16"`` / ``"fp16-int8"``.  With none (TensoRF and dense fields,
    or a snapshot used directly as the field) the field is evaluated.
    It and the two thresholds pick one of three regimes:

    * nothing set (default) — the bit-reproducible exact evaluation:
      the snapshot's (or field's) ``forward`` over fixed tiles of the
      batch (:func:`~repro.nerf.volume_rendering.evaluate_in_tiles`) and
      the segmented-prefix
      :func:`~repro.nerf.volume_rendering.composite`;
    * ``ert_threshold`` — early ray termination
      (:func:`~repro.nerf.early_termination.render_batch_adaptive` with
      no switch) on the same snapshot: samples behind the transmittance
      cutoff are never evaluated and the color error is bounded by the
      threshold;
    * a rounded ``lowp_field`` + ``switch_threshold`` —
      transmittance-adaptive rendering: the float64 field evaluates
      each ray until its transmittance drops below
      ``switch_threshold``, the snapshot evaluates the occluded tail.
      Adaptive rendering is round-based, so an ERT threshold always
      applies (``ert_threshold`` or :attr:`DEFAULT_ERT`).  The head
      evaluates the float64 master, not a float32 copy, because the
      compositor holds one snapshot and in this regime it is the rounded
      tail field: a float32 head would need a second snapshot, and would
      move every adaptive image the precision sweep reports.

    :meth:`render` returns the live sample count with the colors: every
    sample in the exact regime, the samples before each ray's cutoff
    (:attr:`~repro.nerf.early_termination.AdaptiveStats.live_samples`)
    in the other two.
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
        if switch_threshold is not None and (
            getattr(lowp_field, "precision", FULL_PRECISION) == FULL_PRECISION
        ):
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
        """The snapshot's precision tag (``"full"`` without one)."""
        if self.lowp_field is None:
            return FULL_PRECISION
        return self.lowp_field.precision

    def render(self, field: Field, batch: SampleBatch, background: float) -> tuple:
        """Composite one sample batch: ``(colors, live)``."""
        adaptive = self.switch_threshold is not None
        if not adaptive:
            field = self.lowp_field or field
            if self.ert_threshold is None:
                sigma, rgb = evaluate_in_tiles(
                    lambda p, d: field.forward(p, d)[:2],
                    batch.positions,
                    batch.directions,
                )
                result = composite(
                    sigma,
                    rgb,
                    batch.deltas,
                    batch.ts,
                    batch.ray_idx,
                    batch.n_rays,
                    background=background,
                )
                return result.colors, len(batch)
        colors, stats = render_batch_adaptive(
            field,
            self.lowp_field if adaptive else None,
            batch,
            background=background,
            threshold=self.ert_threshold or self.DEFAULT_ERT,
            switch_threshold=self.switch_threshold or 0.0,
            round_size=self.round_size,
        )
        return colors, stats.live_samples
