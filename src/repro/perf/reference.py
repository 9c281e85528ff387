"""Pre-optimization reference kernels, frozen for equivalence and benches.

The hot-path overhaul (fused multi-level hash lookups, ``np.bincount``
scatters, sorted-segment occupancy maxima) must not change results, so
the implementations it replaced live on here:

* the equivalence suite asserts the optimized kernels are bit-identical
  to these references (or PSNR-identical where a fusion reorders float
  sums);
* the benchmark harness (:mod:`repro.perf.bench`) times reference and
  optimized side by side in the same process, which makes the recorded
  speedups machine-portable — the CI regression gate compares speedup
  *ratios*, not wall-clock seconds.

Bit-identity needs a fixed summation order on both sides.  The hash
forward reference accumulates the eight corners explicitly in the order
``c = 0..7``, the order the corner-major kernel uses: a plain
``.sum(axis=1)`` over ``(n, 8, F)`` gets that order only for ``F >= 2``,
and sums pairwise when ``F == 1``.

Nothing here is a fallback: library code always runs the optimized
kernels.  These functions exist to be measured against and tested
against, never to be fast.

(The occupancy EMA update has no reference here on purpose: its
buffered ``np.maximum.at`` *survived* the overhaul — the harness
measured a sorted-segment rewrite ~8x slower, see the comment in
:meth:`repro.nerf.occupancy.OccupancyGrid.update` — so the optimized
kernel and the original are the same code.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nerf.hash_encoding import HashEncoding
from ..nerf.tensorf import LINE_AXES, PLANE_AXES, PlaneLineEncoding, PlaneLineTrace
from ..sim.engine import CorePool, ScheduleResult


@dataclass
class LevelTrace:
    """The reference forward's per-level access record.

    ``indices[l]`` and ``weights[l]`` are ``(n, 8)``, the views that
    :class:`~repro.nerf.hash_encoding.EncodingTrace` derives from its
    corner-major arrays; ``corners[l]`` is ``(n, 8, 3)``, what
    :meth:`~repro.nerf.hash_encoding.HashEncoding.level_lookup` returns.
    """

    indices: list
    weights: list
    corners: list
    n_points: int


def hash_forward_reference(encoding: HashEncoding, points: np.ndarray) -> tuple:
    """Per-level loop hash-encoding forward (the pre-fusion kernel).

    Mirrors the original :meth:`HashEncoding.forward`: one
    ``level_lookup`` + gather + weighted sum per resolution level, with a
    Python-level loop over levels, the corners summed in the order
    ``c = 0..7``.  Returns ``(features, trace)``.
    """
    points = np.atleast_2d(points)
    n = points.shape[0]
    cfg = encoding.config
    features = np.empty((n, cfg.output_dim), dtype=np.float64)
    all_indices, all_weights, all_corners = [], [], []
    for level in range(cfg.n_levels):
        corners, indices, weights = encoding.level_lookup(points, level)
        contrib = weights[:, :, None] * encoding.tables[level][indices]  # (n, 8, F)
        blend = contrib[:, 0]
        for corner in range(1, 8):
            blend = blend + contrib[:, corner]
        features[:, level * cfg.n_features : (level + 1) * cfg.n_features] = blend
        all_indices.append(indices)
        all_weights.append(weights)
        all_corners.append(corners)
    trace = LevelTrace(
        indices=all_indices, weights=all_weights, corners=all_corners, n_points=n
    )
    return features, trace


def hash_backward_reference(
    encoding: HashEncoding, grad_features: np.ndarray, trace: LevelTrace
) -> np.ndarray:
    """Per-level ``np.add.at`` hash-encoding backward (pre-bincount).

    The element-at-a-time buffered scatter this reproduces is the
    hotspot the optimized backward replaces with one ``np.bincount``
    per level and feature channel.
    """
    grad_features = np.atleast_2d(grad_features)
    if grad_features.shape != (trace.n_points, encoding.config.output_dim):
        raise ValueError("grad_features shape mismatch with trace")
    cfg = encoding.config
    grad_tables = np.zeros_like(encoding.tables)
    for level in range(cfg.n_levels):
        g = grad_features[:, level * cfg.n_features : (level + 1) * cfg.n_features]
        contrib = trace.weights[level][:, :, None] * g[:, None, :]  # (n, 8, F)
        flat_idx = np.asarray(trace.indices[level]).reshape(-1)
        np.add.at(
            grad_tables[level],
            flat_idx,
            contrib.reshape(-1, cfg.n_features),
        )
    return grad_tables


class ReferenceHashEncoding(HashEncoding):
    """A :class:`HashEncoding` running the pre-fusion forward/backward.

    The baseline side of the ``hash_*`` kernel benches and the oracle of
    the hash-encoding equivalence tests.
    """

    def forward(self, points: np.ndarray) -> tuple:
        """Reference per-level-loop forward (see module docstring)."""
        return hash_forward_reference(self, points)

    def backward(self, grad_features: np.ndarray, trace: LevelTrace) -> np.ndarray:
        """Reference ``np.add.at`` backward (see module docstring)."""
        return hash_backward_reference(self, grad_features, trace)


class ReferencePlaneLineEncoding(PlaneLineEncoding):
    """A :class:`PlaneLineEncoding` running naive per-point kernels.

    The unfused TensoRF VM lookup a first port would write: a Python
    loop over sample points, each doing its own plane/line gathers and
    the *same* corner accumulation order as the fused forward — so
    forward features are bit-identical — and per-point ``np.add.at``
    scatters in backward (numerically equal to the flat-bincount
    optimized path up to summation order across points).  The baseline
    side of the ``tensorf_*`` kernel benches, like
    :class:`ReferenceHashEncoding` for ``hash_*``.
    """

    def forward(self, points: np.ndarray) -> tuple:
        """Reference per-point-loop forward (see class docstring)."""
        points = np.atleast_2d(points)
        n = points.shape[0]
        res = self.resolution
        features = np.empty((n, self.output_dim), dtype=np.float64)
        base = np.empty((n, 3), dtype=np.int64)
        frac = np.empty((n, 3), dtype=np.float64)
        plane_vals = [np.empty((n, self.n_components)) for _ in range(3)]
        line_vals = [np.empty((n, self.n_components)) for _ in range(3)]
        n_comp = self.n_components
        for i in range(n):
            scaled = points[i].astype(np.float64) * (res - 1)
            cell = np.clip(np.floor(scaled).astype(np.int64), 0, res - 2)
            offs = scaled - cell
            base[i] = cell
            frac[i] = offs
            for k in range(3):
                a, b = PLANE_AXES[k]
                ia, ib = cell[a], cell[b]
                fa, fb = offs[a], offs[b]
                plane = self.factor_planes[k]
                pv = (
                    ((1.0 - fa) * (1.0 - fb)) * plane[ia, ib]
                    + ((1.0 - fa) * fb) * plane[ia, ib + 1]
                    + (fa * (1.0 - fb)) * plane[ia + 1, ib]
                    + (fa * fb) * plane[ia + 1, ib + 1]
                )
                axis = LINE_AXES[k]
                il, fl = cell[axis], offs[axis]
                line = self.factor_lines[k]
                lv = (1.0 - fl) * line[il] + fl * line[il + 1]
                plane_vals[k][i] = pv
                line_vals[k][i] = lv
                features[i, k * n_comp : (k + 1) * n_comp] = pv * lv
        trace = PlaneLineTrace(
            base=base,
            frac=frac,
            plane_vals=plane_vals,
            line_vals=line_vals,
            n_points=n,
        )
        return features, trace

    def backward(self, grad_features: np.ndarray, trace: PlaneLineTrace) -> dict:
        """Reference per-point ``np.add.at`` backward (see class docstring)."""
        grad_features = np.atleast_2d(grad_features)
        if grad_features.shape != (trace.n_points, self.output_dim):
            raise ValueError("grad_features shape mismatch with trace")
        n_comp = self.n_components
        grad_planes = np.zeros_like(self.factor_planes)
        grad_lines = np.zeros_like(self.factor_lines)
        for i in range(trace.n_points):
            for k in range(3):
                a, b = PLANE_AXES[k]
                g = grad_features[i, k * n_comp : (k + 1) * n_comp]
                gp = g * trace.line_vals[k][i]
                gl = g * trace.plane_vals[k][i]
                ia, ib = trace.base[i, a], trace.base[i, b]
                fa, fb = trace.frac[i, a], trace.frac[i, b]
                grad_planes[k, ia, ib] += ((1.0 - fa) * (1.0 - fb)) * gp
                grad_planes[k, ia, ib + 1] += ((1.0 - fa) * fb) * gp
                grad_planes[k, ia + 1, ib] += (fa * (1.0 - fb)) * gp
                grad_planes[k, ia + 1, ib + 1] += (fa * fb) * gp
                axis = LINE_AXES[k]
                il, fl = trace.base[i, axis], trace.frac[i, axis]
                grad_lines[k, il] += (1.0 - fl) * gl
                grad_lines[k, il + 1] += fl * gl
        return {"factor_planes": grad_planes, "factor_lines": grad_lines}


def scatter_add_reference(
    values: np.ndarray, index: np.ndarray, size: int
) -> np.ndarray:
    """``np.add.at`` segment sum: the scatter idiom the overhaul retired.

    ``values`` may be 1-D or ``(n, k)``; returns the per-bin sums with
    ``size`` bins.  Semantically identical to the ``np.bincount`` path in
    :func:`repro.perf.kernels` and to
    :func:`repro.nerf.volume_rendering.segment_sum`.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 1:
        out = np.zeros(size, dtype=np.float64)
    else:
        out = np.zeros((size,) + values.shape[1:], dtype=np.float64)
    np.add.at(out, index, values)
    return out


def pair_durations_reference(
    pair_ray_idx: np.ndarray,
    spans: np.ndarray,
    kept_per_ray: np.ndarray,
    n_rays: int,
) -> list:
    """Pre-vectorization trace span accounting (Python loop + ``add.at``).

    Distributes each ray's kept samples over its cube-pairs
    proportionally to span length, exactly as the original
    ``trace_from_rays`` inner loop did.
    """
    pair_durations = [[] for _ in range(n_rays)]
    span_per_ray = np.zeros(n_rays, dtype=np.float64)
    np.add.at(span_per_ray, pair_ray_idx, spans)
    for ray, span in zip(pair_ray_idx, spans):
        total_span = span_per_ray[ray]
        share = span / total_span if total_span > 0 else 0.0
        pair_durations[ray].append(float(kept_per_ray[ray]) * share)
    return pair_durations


def schedule_dynamic_reference(group_durations: list, n_cores: int) -> ScheduleResult:
    """Dynamic workload scheduling (T1-2) on a NumPy :class:`CorePool`.

    The schedule :func:`repro.sim.engine.schedule_dynamic` ran before it
    moved to a Python list of core free times: per ray, ``np.partition``
    finds when ``k`` cores are free and ``np.argsort`` picks them, ties
    included.
    """
    pool = CorePool(n_cores)
    now = 0.0
    for durations in group_durations:
        k = len(durations)
        if k == 0:
            continue
        if k > n_cores:
            raise ValueError("a ray needs more cores than the pool has")
        now = pool.time_until_free(k, now)
        pool.dispatch_group(np.asarray(durations), now)
    return ScheduleResult(
        makespan=pool.makespan, busy_cycles=pool.busy_cycles(), n_cores=n_cores
    )
