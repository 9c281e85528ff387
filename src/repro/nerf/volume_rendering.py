"""Volumetric rendering: alpha compositing along each ray, with gradients.

Stage III's renderer integrates per-sample density and color into pixels:
``alpha_i = 1 - exp(-sigma_i * delta_i)``,
``T_i = prod_{j<i} (1 - alpha_j)``, ``w_i = T_i * alpha_i``,
``C = sum_i w_i * c_i + (1 - sum_i w_i) * background``.

Samples are stored flat with a ``ray_idx`` map; all per-ray scans are
vectorized with segmented prefix operations so the same code path handles
4-sample sparse rays and 255-sample dense rays.

Inference evaluates the field in fixed :data:`FIELD_TILE`-sample tiles
(:func:`evaluate_in_tiles`), the NumPy analogue of the chip's fixed-size
ping-pong batches: each tile's encoding trace and MLP activations stay
cache-resident and are recycled by the allocator instead of growing with
the frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Samples per Stage II/III field evaluation at inference.  Bounds each
#: tile's encoding trace and MLP activations to a few megabytes whatever
#: the frame size; a sweep over dense ``ship`` frames measured 2048
#: fastest (1024 and 4096 were both slower, see docs/performance.md).
FIELD_TILE = 2048


def evaluate_in_tiles(fn, *inputs) -> tuple:
    """``fn`` over :data:`FIELD_TILE`-row slices of ``inputs``, reassembled.

    ``fn(*tile_inputs)`` returns a tuple of per-row arrays (e.g.
    ``(sigma, rgb)``); each tile's results are written into preallocated
    float64 outputs, returned as a tuple in the same order.  A batch of
    at most one tile makes exactly one call.  Only for calls that need no
    backward caches, which ``fn`` should drop.

    Rows are independent, so the tiled outputs equal one call on the
    whole batch, except where BLAS picks a different kernel for the
    smaller matmul (OpenBLAS switches on ``M*N*K``): outputs of narrow
    layers, such as the 3-wide color head, can then differ in the last
    bits.
    """
    n = len(inputs[0])
    outputs = None
    for start in range(0, max(n, 1), FIELD_TILE):
        stop = start + FIELD_TILE
        parts = fn(*(x[start:stop] for x in inputs))
        if outputs is None:
            outputs = tuple(
                np.empty((n,) + np.shape(part)[1:], dtype=np.float64)
                for part in parts
            )
        for out, part in zip(outputs, parts):
            out[start:stop] = part
    return outputs


def segment_starts(ray_idx: np.ndarray, n_rays: int) -> np.ndarray:
    """First flat index of each ray's samples (n_rays+1 fence-post array).

    ``ray_idx`` must be sorted ascending (the sampler guarantees this).
    """
    ray_idx = np.asarray(ray_idx)
    if ray_idx.size and np.any(np.diff(ray_idx) < 0):
        raise ValueError("ray_idx must be sorted ascending")
    counts = np.bincount(ray_idx, minlength=n_rays)
    return np.concatenate([[0], np.cumsum(counts)])


def segmented_exclusive_cumsum(values: np.ndarray, fences: np.ndarray) -> np.ndarray:
    """Per-segment exclusive prefix sum of a flat value array."""
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return values.copy()
    total = np.concatenate([[0.0], np.cumsum(values)[:-1]])
    counts = np.diff(fences)
    # Empty segments contribute nothing after the repeat; clip their start
    # index so it stays a valid read.
    seg_base = total[np.minimum(fences[:-1], values.size - 1)]
    return total - np.repeat(seg_base, counts)


def segment_sum(values: np.ndarray, ray_idx: np.ndarray, n_rays: int) -> np.ndarray:
    """Sum flat per-sample values into per-ray totals (vector-valued ok).

    Implemented as one ``np.bincount`` per trailing column rather than the
    element-at-a-time ``np.add.at`` buffered scatter.  ``bincount``
    accumulates its weights in input order, exactly like ``add.at``, so
    the sums are bit-identical (see
    :func:`repro.perf.reference.scatter_add_reference`) — including on
    duplicate indices — while running an order of magnitude faster.  An
    empty batch sums to zeros.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        # ``bincount`` of an empty batch returns integer zeros.
        return np.bincount(ray_idx, weights=values, minlength=n_rays).astype(
            np.float64, copy=False
        )
    # The trailing width is spelled out: ``reshape(0, -1)`` cannot infer it.
    flat = values.reshape(values.shape[0], math.prod(values.shape[1:]))
    out = np.empty((n_rays, flat.shape[1]), dtype=np.float64)
    for column in range(flat.shape[1]):
        out[:, column] = np.bincount(
            ray_idx, weights=flat[:, column], minlength=n_rays
        )
    return out.reshape((n_rays,) + values.shape[1:])


@dataclass
class RenderResult:
    """Output of :func:`composite` plus the cache backward needs."""

    colors: np.ndarray  # (n_rays, 3)
    opacity: np.ndarray  # (n_rays,)
    depth: np.ndarray  # (n_rays,) expected termination distance
    weights: np.ndarray  # (n_samples,)
    transmittance: np.ndarray  # (n_samples,)
    alphas: np.ndarray  # (n_samples,)


def composite(
    sigmas: np.ndarray,
    rgbs: np.ndarray,
    deltas: np.ndarray,
    ts: np.ndarray,
    ray_idx: np.ndarray,
    n_rays: int,
    background: float = 1.0,
) -> RenderResult:
    """Front-to-back alpha compositing of flat samples into ray colors.

    A ray without samples, or a batch without any, composites to the
    background.
    """
    sigmas = np.asarray(sigmas, dtype=np.float64).reshape(-1)
    rgbs = np.atleast_2d(np.asarray(rgbs, dtype=np.float64))
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1)
    ts = np.asarray(ts, dtype=np.float64).reshape(-1)
    if not (len(sigmas) == len(rgbs) == len(deltas) == len(ts) == len(ray_idx)):
        raise ValueError("all per-sample arrays must have the same length")
    fences = segment_starts(ray_idx, n_rays)
    optical = sigmas * deltas
    alphas = 1.0 - np.exp(-optical)
    transmittance = np.exp(-segmented_exclusive_cumsum(optical, fences))
    weights = transmittance * alphas
    colors = segment_sum(weights[:, None] * rgbs, ray_idx, n_rays)
    opacity = segment_sum(weights, ray_idx, n_rays)
    depth = segment_sum(weights * ts, ray_idx, n_rays)
    colors = colors + (1.0 - opacity)[:, None] * background
    return RenderResult(
        colors=colors,
        opacity=opacity,
        depth=depth,
        weights=weights,
        transmittance=transmittance,
        alphas=alphas,
    )


def composite_backward(
    grad_colors: np.ndarray,
    result: RenderResult,
    sigmas: np.ndarray,
    rgbs: np.ndarray,
    deltas: np.ndarray,
    ray_idx: np.ndarray,
    n_rays: int,
    background: float = 1.0,
) -> tuple:
    """Gradients of the composited colors w.r.t. sigma and rgb.

    Derivation (per ray, with ``s_i = sigma_i * delta_i`` and upstream
    gradient ``g``): ``dC/dc_i = w_i`` and, writing
    ``u_i = g . (c_i - bg)``,
    ``dC/ds_i = u_i * T_i * (1 - a_i) - sum_{j > i} u_j * w_j``.
    The trailing suffix sum is computed with a reversed segmented scan.
    """
    grad_colors = np.atleast_2d(grad_colors)
    rgbs = np.atleast_2d(rgbs)
    deltas = np.asarray(deltas, dtype=np.float64).reshape(-1)
    fences = segment_starts(ray_idx, n_rays)
    grad_rgb = result.weights[:, None] * grad_colors[ray_idx]
    u = ((rgbs - background) * grad_colors[ray_idx]).sum(axis=-1)
    own_term = u * result.transmittance * (1.0 - result.alphas)
    uw = u * result.weights
    # Suffix sum (exclusive) of uw within each ray.
    counts = np.diff(fences)
    seg_totals = segment_sum(uw, ray_idx, n_rays)
    inclusive_prefix = segmented_exclusive_cumsum(uw, fences) + uw
    suffix = np.repeat(seg_totals, counts) - inclusive_prefix
    grad_optical = own_term - suffix
    grad_sigma = grad_optical * deltas
    return grad_sigma, grad_rgb


def psnr(pred: np.ndarray, target: np.ndarray, max_value: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB, the paper's quality metric."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError("pred and target must have the same shape")
    mse = float(np.mean((pred - target) ** 2))
    if mse <= 0.0:
        return float("inf")
    return 10.0 * np.log10(max_value**2 / mse)
