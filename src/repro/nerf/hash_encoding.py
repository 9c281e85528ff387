"""Multiresolution hash-grid encoding (Instant-NGP), with hand gradients.

Stage II of the pipeline: every sampled 3D point gathers features from the
eight grid vertices surrounding it at each of L resolution levels; the
features are trilinearly interpolated and concatenated into the MLP input.
Training scatters gradients back into the same eight vertices per level.

The spatial hash follows Mueller et al.:
``h(x, y, z) = (x * 1) xor (y * 2654435761) xor (z * 805459861) mod T``.
Two properties of this function matter to the hardware (Sec. V-B):

* the Y/Z primes are large, so vertices that differ in their Y/Z offset
  land far apart in the table (Level-2 "interpolation level" tiling);
* the X factor is 1, so vertices that differ by one in X always have
  opposite index parity when ``T`` is even (Level-3 "parity" tiling).

The kernel is laid out **corner-major**, much as the paper's hash tiling
gives each cell corner its own SRAM bank: each of the eight corners is
one contiguous ``(L, n)`` vector of table indices and one of trilinear
weights, stored together as ``(8, L, n)`` arrays.  The per-axis hash
terms ``b * P`` and ``(b + 1) * P`` are computed once per point and
level, and a corner's index is the XOR of three of them, masked to the
table.  Each corner gathers its features per channel from the
``(F, L*T)`` transpose of the tables and adds them, weighted, to the
blend, so corners always accumulate in the fixed order ``c = 0..7``
(x-fastest, see :data:`CORNER_OFFSETS`), each weight being
``(w_x * w_y) * w_z``.  The backward scatter reads the same arrays in
``(L, n, 8)`` order.  That corner order, association order and scatter
order are what make the kernel bit-identical to the per-level reference
in :mod:`repro.perf.reference`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Instant-NGP hash primes.  PRIMES[0] == 1 is load-bearing: see module doc.
PRIMES = np.array([1, 2654435761, 805459861], dtype=np.uint64)

#: Corner offsets of a unit cell, ordered x-fastest; corner ``c`` has
#: offsets ``((c >> 0) & 1, (c >> 1) & 1, (c >> 2) & 1)``.
CORNER_OFFSETS = np.stack(
    [(np.arange(8) >> k) & 1 for k in range(3)], axis=-1
).astype(np.int64)


@dataclass(frozen=True)
class HashEncodingConfig:
    """Hyper-parameters of the encoding.

    The per-level resolution follows the geometric schedule
    ``R_l = floor(base * growth^l)`` with growth chosen so level L-1 hits
    ``finest_resolution``.
    """

    n_levels: int = 8
    n_features: int = 2
    log2_table_size: int = 14
    base_resolution: int = 16
    finest_resolution: int = 256

    def __post_init__(self):
        if self.n_levels < 1:
            raise ValueError("need at least one level")
        if self.finest_resolution < self.base_resolution:
            raise ValueError("finest_resolution must be >= base_resolution")

    @property
    def table_size(self) -> int:
        return 1 << self.log2_table_size

    @property
    def growth_factor(self) -> float:
        if self.n_levels == 1:
            return 1.0
        return np.exp(
            (np.log(self.finest_resolution) - np.log(self.base_resolution))
            / (self.n_levels - 1)
        )

    @property
    def level_resolutions(self) -> np.ndarray:
        levels = np.arange(self.n_levels)
        res = np.floor(self.base_resolution * self.growth_factor**levels)
        return res.astype(np.int64)

    @property
    def output_dim(self) -> int:
        return self.n_levels * self.n_features

    @property
    def n_parameters(self) -> int:
        return self.n_levels * self.table_size * self.n_features

    @property
    def table_bytes_fp16(self) -> int:
        """On-chip footprint of the feature tables at fp16."""
        return self.n_parameters * 2


def hash_vertices(coords: np.ndarray, table_size: int) -> np.ndarray:
    """Spatial-hash integer vertex coordinates into table indices.

    ``coords`` is ``(..., 3)`` non-negative integers; returns ``(...,)``
    indices in ``[0, table_size)``.
    """
    coords = np.asarray(coords)
    if coords.shape[-1] != 3:
        raise ValueError("coords must have a trailing dimension of 3")
    c = coords.astype(np.uint64)
    h = (c[..., 0] * PRIMES[0]) ^ (c[..., 1] * PRIMES[1]) ^ (c[..., 2] * PRIMES[2])
    if table_size & (table_size - 1) == 0:
        # Power-of-two table: mask instead of 64-bit division (identical
        # result for unsigned operands, several times faster).
        return (h & np.uint64(table_size - 1)).astype(np.int64)
    return (h % np.uint64(table_size)).astype(np.int64)


@dataclass
class EncodingTrace:
    """Stage II access record, cached for backward and for the simulator.

    Stored once, corner-major: ``flat_indices`` and ``corner_weights``
    are ``(8, L, n)`` (level-offset indices into the ``(L*T, F)``
    flattened tables, and their trilinear weights), ``base`` is the
    ``(L, 3, n)`` clipped cell origin and ``level_offsets`` the ``(L,)``
    offset of each level's slab.  The per-level lists are derived on
    access: ``indices[l]`` is ``(n, 8)`` table indices, ``weights[l]`` the
    matching weights and ``corners[l]`` the ``(n, 8, 3)`` integer vertex
    coordinates (the hash-tiling simulation derives bank ids from these).
    """

    flat_indices: np.ndarray
    corner_weights: np.ndarray
    base: np.ndarray
    level_offsets: np.ndarray

    @property
    def n_points(self) -> int:
        return self.flat_indices.shape[2]

    @property
    def indices(self) -> list:
        by_level = self.flat_indices.transpose(1, 2, 0)
        return list(by_level - self.level_offsets[:, None, None])

    @property
    def weights(self) -> list:
        return list(self.corner_weights.transpose(1, 2, 0))

    @property
    def corners(self) -> list:
        by_level = self.base.transpose(0, 2, 1)[:, :, None, :]
        return list(by_level + CORNER_OFFSETS[None, None, :, :])


class HashEncoding:
    """The trainable multiresolution hash table."""

    def __init__(self, config: HashEncodingConfig, rng: np.random.Generator = None):
        self.config = config
        rng = rng or np.random.default_rng(0)
        # Instant-NGP initializes tables uniformly in [-1e-4, 1e-4].
        self.tables = rng.uniform(
            -1e-4,
            1e-4,
            size=(config.n_levels, config.table_size, config.n_features),
        ).astype(np.float64)
        #: Flat offset of each level's slab in the level-stacked table
        #: view; the kernel gathers and scatters through ``offset + idx``.
        self._level_offsets = (
            np.arange(config.n_levels, dtype=np.int64) * config.table_size
        )

    def level_lookup(self, points: np.ndarray, level: int) -> tuple:
        """Corner coordinates, table indices and weights for one level.

        Returns ``(corners, indices, weights)`` with shapes
        ``(n, 8, 3)``, ``(n, 8)`` and ``(n, 8)``.  This is the per-level
        specification of the address path; the Stage II kernel computes
        the same values corner-major for all levels at once.
        """
        points = np.atleast_2d(points)
        resolution = int(self.config.level_resolutions[level])
        scaled = points * resolution
        base = np.floor(scaled).astype(np.int64)
        base = np.clip(base, 0, resolution - 1)
        # Subtract in the points dtype: an int64 operand would silently
        # upcast float32 sample buffers to float64.
        frac = scaled - base.astype(points.dtype)
        corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
        indices = hash_vertices(corners, self.config.table_size)
        # Trilinear weights: product over axes of f or (1 - f).
        offs = CORNER_OFFSETS[None, :, :]
        terms = np.where(offs == 1, frac[:, None, :], 1.0 - frac[:, None, :])
        weights = terms.prod(axis=-1)
        return corners, indices, weights

    def _interpolate(self, points: np.ndarray, tables: np.ndarray) -> tuple:
        """The corner-major Stage II kernel, shared with the fp16 snapshot.

        Returns ``(features, flat_indices, weights, base)``: the
        ``(n, L*F)`` level-major features blended from ``tables``, the
        ``(8, L, n)`` level-offset indices and trilinear weights, and the
        ``(L, 3, n)`` clipped cell origins.  Weights follow the ``points``
        dtype (float32 sample buffers keep float32 weights, matching the
        fp16 interpolation hardware); features follow the wider of the
        weights and ``tables``.
        """
        cfg = self.config
        n_levels, n_features = cfg.n_levels, cfg.n_features
        points = np.atleast_2d(points)
        n = points.shape[0]
        resolutions = cfg.level_resolutions
        scaled = (
            np.ascontiguousarray(points.T)[None, :, :]
            * resolutions[:, None, None].astype(points.dtype)
        )
        base = np.floor(scaled).astype(np.int64)
        np.clip(base, 0, resolutions[:, None, None] - 1, out=base)
        frac = scaled - base.astype(points.dtype)
        # Per-axis hash terms, (L, 3, n), masked to the table: the mask
        # distributes over XOR, and (b + 1) * P == b * P + P holds exactly
        # under uint64 wraparound.
        mask = np.uint64(cfg.table_size - 1)
        lo = base.view(np.uint64) * PRIMES[:, None]
        hi = lo + PRIMES[:, None]
        lo &= mask
        hi &= mask
        # A masked hash is below T, so XOR-ing in the level's slab offset
        # (a multiple of T) adds it: corner indices come out flat.
        offsets = self._level_offsets.view(np.uint64)[:, None]
        z_hash = (lo[:, 2] ^ offsets, hi[:, 2] ^ offsets)
        # The four x/y combinations, shared by the two z layers of corners.
        xy_hash = [lo[:, 0] ^ lo[:, 1], hi[:, 0] ^ lo[:, 1],
                   lo[:, 0] ^ hi[:, 1], hi[:, 0] ^ hi[:, 1]]
        w_hi = [frac[:, 0], frac[:, 1], frac[:, 2]]
        w_lo = [1.0 - f for f in w_hi]
        xy_weight = [w_lo[0] * w_lo[1], w_hi[0] * w_lo[1],
                     w_lo[0] * w_hi[1], w_hi[0] * w_hi[1]]
        z_weight = (w_lo[2], w_hi[2])
        flat = np.empty((8, n_levels, n), dtype=np.uint64)
        weights = np.empty((8, n_levels, n), dtype=frac.dtype)
        # Flat indices are far below 2**63, so the signed view is exact.
        indices = flat.view(np.int64)
        table_t = np.ascontiguousarray(tables.reshape(-1, n_features).T)
        blend = np.empty(
            (n_features, n_levels, n), dtype=np.result_type(weights, tables)
        )
        gathered = np.empty((n_levels, n), dtype=blend.dtype)
        for c in range(8):
            xy, z = c & 3, c >> 2
            np.bitwise_xor(xy_hash[xy], z_hash[z], out=flat[c])
            np.multiply(xy_weight[xy], z_weight[z], out=weights[c])
            # Accumulate explicitly in the order c = 0..7.  Every index
            # is in range, so "clip" only skips the bounds-check buffer.
            for f in range(n_features):
                if c == 0:
                    table_t[f].take(indices[c], out=blend[f], mode="clip")
                    blend[f] *= weights[c]
                else:
                    table_t[f].take(indices[c], out=gathered, mode="clip")
                    gathered *= weights[c]
                    blend[f] += gathered
        features = np.ascontiguousarray(blend.transpose(2, 1, 0))
        return features.reshape(n, cfg.output_dim), indices, weights, base

    def forward(self, points: np.ndarray) -> tuple:
        """Encode points; returns ``(features, trace)``.

        ``features`` is ``(n, n_levels * n_features)`` with level-major
        layout; ``trace`` feeds :meth:`backward` and the hash-tiling
        simulator.  The result is bit-identical to the per-level
        reference in :mod:`repro.perf.reference` (see module docstring).
        """
        features, flat, weights, base = self._interpolate(points, self.tables)
        return features, EncodingTrace(flat, weights, base, self._level_offsets)

    def backward(self, grad_features: np.ndarray, trace: EncodingTrace) -> np.ndarray:
        """Gradient of the loss w.r.t. the tables.

        ``grad_features`` is ``(n, n_levels * n_features)``; returns an
        array shaped like :attr:`tables`.  This is the scatter-accumulate
        ("inverse adder tree") workload the reconfigurable interpolation
        array executes in training mode.  The scatter runs as one flat
        ``np.bincount`` per feature channel over level-offset indices,
        fed in ``(L, n, 8)`` order: bincount accumulates in input order,
        so duplicate-index sums are bit-identical to the per-level
        ``np.add.at`` reference, without its element-at-a-time
        buffered-ufunc cost.
        """
        grad_features = np.atleast_2d(grad_features)
        if grad_features.shape != (trace.n_points, self.config.output_dim):
            raise ValueError("grad_features shape mismatch with trace")
        cfg = self.config
        n_levels, n_features = cfg.n_levels, cfg.n_features
        n = trace.n_points
        flat = trace.flat_indices.transpose(1, 2, 0).ravel()
        weights = trace.corner_weights.transpose(1, 2, 0)
        # (n, L*F) level-major -> (F, L, n), one (L, n) block per channel.
        g = np.ascontiguousarray(grad_features.reshape(n, n_levels, n_features).T)
        n_bins = n_levels * cfg.table_size
        grad_flat = np.empty((n_bins, n_features), dtype=np.float64)
        contrib = np.empty((n_levels, n, 8), dtype=np.float64)
        for feature in range(n_features):
            np.multiply(weights, g[feature][:, :, None], out=contrib)
            grad_flat[:, feature] = np.bincount(
                flat, weights=contrib.ravel(), minlength=n_bins
            )
        return grad_flat.reshape(self.tables.shape)

    def parameters(self) -> dict:
        return {"hash_tables": self.tables}

    def load_parameters(self, params: dict) -> None:
        tables = params["hash_tables"]
        if tables.shape != self.tables.shape:
            raise ValueError("hash table shape mismatch")
        self.tables = tables


class Fp16HashEncoding(HashEncoding):
    """Half-precision inference snapshot of a :class:`HashEncoding`.

    The feature tables are stored as ``np.float16`` — the on-chip
    feature-SRAM format the fault injector already models
    (:func:`repro.robustness.injection.flip_fp16_bits`) and the layout
    :attr:`HashEncodingConfig.table_bytes_fp16` prices — at half the
    gather traffic of the float64 training tables.  The forward gather
    *accumulates in fp32* (the paper's mixed-precision rule: narrow
    storage, wider accumulation), skips the :class:`EncodingTrace`
    entirely, and returns float32 features ready for the float32 MLP
    hot path.

    Inference-only: :meth:`backward` raises.  The snapshot copies the
    source tables, so the trainer may keep mutating them; call
    :meth:`refresh` to re-round after an update.
    """

    def __init__(self, source: HashEncoding):
        self.config = source.config
        self.tables = np.asarray(source.tables, dtype=np.float16)
        # Dequantize-on-load mirror: fp16 -> fp32 is exact, so gathering
        # from the widened copy is numerically identical to widening each
        # gathered corner — without paying a half-to-single conversion
        # of every gathered corner on each forward (measured ~1.5x
        # slower than the fp16 gather it follows).  ``tables`` stays the storage truth:
        # ``parameters()`` exposes it, fault injection flips its bits.
        self._tables_f32 = self.tables.astype(np.float32)
        self._level_offsets = (
            np.arange(self.config.n_levels, dtype=np.int64)
            * self.config.table_size
        )

    def refresh(self, source: HashEncoding = None) -> None:
        """Re-round the fp16 tables from a (possibly updated) source.

        With no ``source``, rebuilds only the fp32 gather mirror — call
        after mutating :attr:`tables` in place (e.g. fault injection).
        """
        if source is not None:
            if source.config != self.config:
                raise ValueError("source config mismatch")
            self.tables = np.asarray(source.tables, dtype=np.float16)
        self._tables_f32 = self.tables.astype(np.float32)

    def forward(self, points: np.ndarray) -> tuple:
        """Encode points at inference precision: ``(features, None)``.

        The same corner-major kernel as :meth:`HashEncoding.forward`, on
        float32 points, so table indices match the training gather for
        every float32 sample buffer the render pipeline produces; but it
        reads the fp16-rounded feature values, blends in fp32, and
        builds no trace: the ``(8, L, n)`` arrays exist only to serve
        backward and the tiling simulator, neither of which runs at
        inference.
        """
        points = np.asarray(points, dtype=np.float32)
        return self._interpolate(points, self._tables_f32)[0], None

    def backward(self, grad_features: np.ndarray, trace) -> np.ndarray:
        raise NotImplementedError(
            "Fp16HashEncoding is inference-only; train on the float64 "
            "HashEncoding and refresh() the snapshot"
        )
