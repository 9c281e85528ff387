"""Early ray termination (ERT): the standard NeRF inference optimization.

Once a ray's accumulated transmittance falls below a threshold, the
remaining samples cannot visibly change the pixel, so the hardware stops
fetching and evaluating them.  The renderer here applies the same rule to
*workload accounting*: it reports how many samples a hardware pipeline
with ERT actually processes, which the chip simulator consumes to
quantify the inference speedup ERT buys on opaque scenes.

ERT is inference-only (training needs gradients from every sample, and
the paper trains without it), and it composes with the occupancy gating
of Stage I: occupancy removes empty space in front of surfaces, ERT
removes hidden space behind them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .sampling import SampleBatch
from .volume_rendering import (
    RenderResult,
    segment_starts,
    segmented_exclusive_cumsum,
)


@dataclass
class TerminationStats:
    """Workload effect of ERT on one rendered batch."""

    total_samples: int
    live_samples: int
    threshold: float

    @property
    def terminated_fraction(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return 1.0 - self.live_samples / self.total_samples

    @property
    def speedup(self) -> float:
        """Stage II/III work reduction factor."""
        if self.live_samples == 0:
            return float("inf")
        return self.total_samples / self.live_samples


def live_sample_mask(
    result: RenderResult,
    threshold: float = 1e-3,
) -> np.ndarray:
    """Samples a hardware ERT unit would actually evaluate.

    A sample is *live* while its ray's transmittance on entry is at least
    ``threshold``; everything after the termination point is skipped.
    The per-sample transmittance already encodes each ray's prefix, so
    the mask needs only the render result (the former ``ray_idx`` /
    ``n_rays`` parameters were never consulted and are gone).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    return result.transmittance >= threshold


def termination_stats(
    result: RenderResult,
    batch: SampleBatch,
    threshold: float = 1e-3,
) -> TerminationStats:
    """ERT workload statistics for one rendered batch."""
    mask = live_sample_mask(result, threshold)
    return TerminationStats(
        total_samples=len(batch),
        live_samples=int(mask.sum()),
        threshold=threshold,
    )


def truncate_batch(
    batch: SampleBatch,
    result: RenderResult,
    threshold: float = 1e-3,
) -> SampleBatch:
    """The batch an ERT-enabled pipeline would have produced.

    Used to re-drive the chip simulator with the reduced workload; the
    per-ray front-to-back ordering is preserved because ERT only removes
    suffixes.
    """
    mask = live_sample_mask(result, threshold)
    return SampleBatch(
        positions=batch.positions[mask],
        directions=batch.directions[mask],
        deltas=batch.deltas[mask],
        ts=batch.ts[mask],
        ray_idx=batch.ray_idx[mask],
        n_rays=batch.n_rays,
        candidates=batch.candidates,
    )


def per_ray_live_counts(
    result: RenderResult,
    batch: SampleBatch,
    threshold: float = 1e-3,
) -> np.ndarray:
    """Live samples per ray — the ERT'd samples_per_ray distribution."""
    mask = live_sample_mask(result, threshold)
    return np.bincount(batch.ray_idx[mask], minlength=batch.n_rays)


@dataclass
class AdaptiveStats:
    """Workload split of one transmittance-adaptive render."""

    total_samples: int
    full_samples: int
    lowp_samples: int
    threshold: float
    switch_threshold: float

    @property
    def evaluated(self) -> int:
        return self.full_samples + self.lowp_samples

    @property
    def lowp_fraction(self) -> float:
        """Fraction of evaluated samples routed to the cheap field."""
        if self.evaluated == 0:
            return 0.0
        return self.lowp_samples / self.evaluated

    @property
    def terminated_fraction(self) -> float:
        if self.total_samples == 0:
            return 0.0
        return 1.0 - self.evaluated / self.total_samples


def render_batch_adaptive(
    model,
    lowp_field,
    batch: SampleBatch,
    background: float = 1.0,
    threshold: float = 1e-3,
    switch_threshold: float = 0.1,
    round_size: int = 32,
) -> tuple:
    """Render a sample batch with *actual* early ray termination.

    Unlike :func:`live_sample_mask` — which post-hoc accounts for the
    work an ERT unit would have skipped — this evaluates the field the
    way the hardware does: samples are fetched front-to-back in rounds of
    at most ``round_size`` per ray, transmittance accumulates after every
    round, and a ray whose transmittance has fallen below ``threshold``
    fetches no further rounds.  Samples the full render would never have
    evaluated are never handed to a field.

    A sample contributes to its pixel exactly when its entry
    transmittance is at least ``threshold`` — the same prefix rule as
    :func:`live_sample_mask` — so with one field the returned colors
    equal ``composite(truncate_batch(batch, full_result, threshold))`` up
    to float-sum reordering (verified to PSNR 1e-4 by the equivalence
    suite).

    Per-ray precision: a ray whose transmittance on entry to a round has
    fallen below ``switch_threshold`` can no longer contribute more than
    that fraction of the pixel value, so its remaining samples are routed
    to ``lowp_field`` (an fp16/INT8 snapshot of ``model`` — see
    :class:`repro.nerf.precision.LowPrecisionField`); rays still above it
    keep the full-precision ``model``.  ``lowp_field=None`` or
    ``switch_threshold=0`` never switches (pure ERT); values near 1 route
    almost all occluded samples to the cheap field.  The selection
    depends only on accumulated optical depth, so re-rendering the same
    rays reproduces the same precision split bit for bit.

    Returns ``(colors, stats)`` with :class:`AdaptiveStats` counting how
    many samples each field evaluated (round granularity means slightly
    more than the exact live count).
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    if not 0.0 <= switch_threshold < 1.0:
        raise ValueError("switch_threshold must be in [0, 1)")
    if round_size < 1:
        raise ValueError("round_size must be positive")
    if lowp_field is None:
        switch_threshold = 0.0
    n_rays = batch.n_rays
    fences = segment_starts(batch.ray_idx, n_rays)
    counts = np.diff(fences)
    acc_rgb = np.zeros((n_rays, 3), dtype=np.float64)
    acc_opacity = np.zeros(n_rays, dtype=np.float64)
    optical_sum = np.zeros(n_rays, dtype=np.float64)
    offset = np.zeros(n_rays, dtype=np.int64)
    live = np.flatnonzero(counts > 0)
    full_evaluated = 0
    lowp_evaluated = 0
    while live.size:
        take = np.minimum(counts[live] - offset[live], round_size)
        round_fences = np.concatenate([[0], np.cumsum(take)])
        total = int(round_fences[-1])
        # Flat sample index of each (ray, within-round) pair.
        base = np.repeat(fences[live] + offset[live] - round_fences[:-1], take)
        idx = base + np.arange(total)
        seg_id = np.repeat(np.arange(live.size), take)
        # Precision routing: decided once per ray per round from the
        # transmittance on entry to the round.
        low_rays = np.exp(-optical_sum[live]) < switch_threshold
        low_mask = low_rays[seg_id]
        sigma = np.empty(total, dtype=np.float64)
        rgb = np.empty((total, 3), dtype=np.float64)
        full_mask = ~low_mask
        if full_mask.any():
            pick = idx[full_mask]
            s, r, _ = model.forward(batch.positions[pick], batch.directions[pick])
            sigma[full_mask] = np.asarray(s, dtype=np.float64).reshape(-1)
            rgb[full_mask] = np.atleast_2d(np.asarray(r, dtype=np.float64))
            full_evaluated += int(pick.size)
        if low_mask.any():
            pick = idx[low_mask]
            s, r, _ = lowp_field.forward(
                batch.positions[pick], batch.directions[pick]
            )
            sigma[low_mask] = np.asarray(s, dtype=np.float64).reshape(-1)
            rgb[low_mask] = np.atleast_2d(np.asarray(r, dtype=np.float64))
            lowp_evaluated += int(pick.size)
        optical = sigma * batch.deltas[idx]
        entry = optical_sum[live][seg_id] + segmented_exclusive_cumsum(
            optical, round_fences
        )
        t_entry = np.exp(-entry)
        live_mask = t_entry >= threshold
        alphas = 1.0 - np.exp(-optical)
        weights = np.where(live_mask, t_entry * alphas, 0.0)
        rays = live[seg_id]
        for channel in range(3):
            acc_rgb[:, channel] += np.bincount(
                rays, weights=weights * rgb[:, channel], minlength=n_rays
            )
        acc_opacity += np.bincount(rays, weights=weights, minlength=n_rays)
        optical_sum[live] += np.bincount(
            seg_id, weights=np.where(live_mask, optical, 0.0), minlength=live.size
        )
        offset[live] += take
        # A ray keeps marching while it has samples left and its exit
        # transmittance is still above threshold; transmittance is
        # non-increasing, so termination is a pure prefix rule.
        survive = (offset[live] < counts[live]) & (
            np.exp(-optical_sum[live]) >= threshold
        )
        live = live[survive]
    colors = acc_rgb + (1.0 - acc_opacity)[:, None] * background
    stats = AdaptiveStats(
        total_samples=len(batch),
        full_samples=full_evaluated,
        lowp_samples=lowp_evaluated,
        threshold=threshold,
        switch_threshold=switch_threshold,
    )
    return colors, stats


def verify_color_preserved(
    result: RenderResult,
    truncated_result: RenderResult,
    threshold: float = 1e-3,
) -> float:
    """Max per-channel color change ERT introduced (bounded by
    ``threshold`` times the color range, by construction)."""
    return float(np.max(np.abs(result.colors - truncated_result.colors)))
