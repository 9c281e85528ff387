"""Early ray termination (ERT): the standard NeRF inference optimization.

Once a ray's accumulated transmittance falls below a threshold, the
remaining samples cannot visibly change the pixel, so the hardware stops
fetching and evaluating them.  :func:`render_batch_adaptive` is the one
ERT rule: a round loop that evaluates the field front to back, stops each
ray at its cutoff, and counts the *live* samples (entry transmittance at
least the threshold), which is the work a per-sample ERT unit does and
what serving bills.

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
    evaluate_in_tiles,
    segment_starts,
    segmented_exclusive_cumsum,
)


@dataclass
class AdaptiveStats:
    """Workload split of one transmittance-adaptive render.

    ``live_samples`` counts the samples whose entry transmittance is at
    least ``threshold``: the samples a hardware ERT unit, which stops per
    sample, evaluates.  ``full_samples`` and ``lowp_samples`` count what
    the host evaluated, in whole rounds, so their sum is at least the
    live count.
    """

    total_samples: int
    full_samples: int
    lowp_samples: int
    live_samples: int
    threshold: float
    switch_threshold: float

    @property
    def terminated_fraction(self) -> float:
        """Fraction of the batch behind every ray's cutoff."""
        if self.total_samples == 0:
            return 0.0
        return 1.0 - self.live_samples / self.total_samples


def render_batch_adaptive(
    model,
    lowp_field,
    batch: SampleBatch,
    background: float = 1.0,
    threshold: float = 1e-3,
    switch_threshold: float = 0.1,
    round_size: int = 32,
) -> tuple:
    """Render a sample batch with early ray termination.

    The field is evaluated the way the hardware does it: samples are
    fetched front-to-back in rounds of at most ``round_size`` per ray,
    transmittance accumulates after every round, and a ray whose
    transmittance has fallen below ``threshold`` fetches no further
    rounds.  A sample contributes to its pixel exactly when its entry
    transmittance is at least ``threshold`` (a *live* sample); since
    transmittance never rises, the live samples are a prefix of each ray,
    and the colors equal the composite of that prefix up to float-sum
    reordering.  ``round_size`` only sets host batching: the live count
    does not depend on it.

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

    Returns ``(colors, stats)``: :class:`AdaptiveStats` counts the live
    samples and how many samples each field evaluated.
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
    live_samples = 0
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
            sigma[full_mask], rgb[full_mask] = evaluate_in_tiles(
                lambda p, d: model.forward(p, d)[:2],
                batch.positions[pick],
                batch.directions[pick],
            )
            full_evaluated += int(pick.size)
        if low_mask.any():
            pick = idx[low_mask]
            sigma[low_mask], rgb[low_mask] = evaluate_in_tiles(
                lambda p, d: lowp_field.forward(p, d)[:2],
                batch.positions[pick],
                batch.directions[pick],
            )
            lowp_evaluated += int(pick.size)
        optical = sigma * batch.deltas[idx]
        entry = optical_sum[live][seg_id] + segmented_exclusive_cumsum(
            optical, round_fences
        )
        t_entry = np.exp(-entry)
        live_mask = t_entry >= threshold
        live_samples += int(np.count_nonzero(live_mask))
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
        live_samples=live_samples,
        threshold=threshold,
        switch_threshold=switch_threshold,
    )
    return colors, stats
