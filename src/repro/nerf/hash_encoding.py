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
terms ``b * P`` and ``(b + 1) * P`` and weights ``1 - f`` and ``f`` are
built once per point and level: the x and y terms in the upper half of
the ``(8, L, n)`` outputs, the z terms in one ``(2, L, n)`` slab.  One
broadcast XOR writes the four x/y combinations into the lower half and
two more XOR in the z terms; the weights follow the same pattern, each
``(w_x * w_y) * w_z`` up to commutation.  Each feature channel
then gathers all eight corners in one ``take`` from the ``(F, L*T)``
transpose of the tables, weights them in one multiply, and sums them
with explicit adds in the fixed order ``c = 0..7`` (x-fastest, see
:data:`CORNER_OFFSETS`).  The backward scatter reads the same arrays
one level at a time, in ``(n, 8)`` order.  That corner order,
association order and scatter order are what make the kernel
bit-identical to the per-level reference in :mod:`repro.perf.reference`.
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
        """Entries ``T`` per level's table (``2 ** log2_table_size``)."""
        return 1 << self.log2_table_size

    @property
    def growth_factor(self) -> float:
        """Per-level resolution ratio of the geometric schedule."""
        if self.n_levels == 1:
            return 1.0
        return np.exp(
            (np.log(self.finest_resolution) - np.log(self.base_resolution))
            / (self.n_levels - 1)
        )

    @property
    def level_resolutions(self) -> np.ndarray:
        """The ``(L,)`` int64 grid resolution of each level."""
        levels = np.arange(self.n_levels)
        res = np.floor(self.base_resolution * self.growth_factor**levels)
        return res.astype(np.int64)

    @property
    def output_dim(self) -> int:
        """Feature width per point, ``L * F`` (the density MLP's input)."""
        return self.n_levels * self.n_features

    @property
    def n_parameters(self) -> int:
        """Trainable feature values over all levels' tables."""
        return self.n_levels * self.table_size * self.n_features


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
    flattened tables, and their trilinear weights) and ``level_offsets``
    the ``(L,)`` offset of each level's slab.  The per-level lists are
    derived on access: ``indices[l]`` is ``(n, 8)`` table indices and
    ``weights[l]`` the matching weights.  The integer vertex coordinates
    the hash-tiling simulation needs come from
    :meth:`HashEncoding.level_lookup`.
    """

    flat_indices: np.ndarray
    corner_weights: np.ndarray
    level_offsets: np.ndarray

    @property
    def n_points(self) -> int:
        """Number of encoded points ``n``."""
        return self.flat_indices.shape[2]

    @property
    def indices(self) -> list:
        """Per level, the ``(n, 8)`` table indices of each point's corners."""
        by_level = self.flat_indices.transpose(1, 2, 0)
        return list(by_level - self.level_offsets[:, None, None])

    @property
    def weights(self) -> list:
        """Per level, the ``(n, 8)`` trilinear weights of those corners."""
        return list(self.corner_weights.transpose(1, 2, 0))


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
        #: Level resolutions and the largest cell origin per level, as
        #: the kernel broadcasts them (computed once per config).
        self._resolutions = config.level_resolutions
        self._max_cell = (self._resolutions - 1)[None, :, None]

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

    def _interpolate(self, points: np.ndarray) -> tuple:
        """The corner-major Stage II kernel.

        Returns ``(features, flat_indices, weights)``: the ``(n, L*F)``
        level-major features blended from the tables and the
        ``(8, L, n)`` level-offset indices and trilinear weights.
        Weights follow the ``points`` dtype (float32 sample buffers keep
        float32 weights, matching the fp16 interpolation hardware);
        features follow the wider of the weights and the tables.
        """
        cfg = self.config
        n_levels, n_features = cfg.n_levels, cfg.n_features
        points = np.atleast_2d(points)
        n = points.shape[0]
        indices, weights = self._corners(points)
        table_t = np.ascontiguousarray(self.tables.reshape(-1, n_features).T)
        blend = np.empty(
            (n_features, n_levels, n), dtype=np.result_type(weights, self.tables)
        )
        gathered = np.empty((8, n_levels, n), dtype=blend.dtype)
        for f in range(n_features):
            # Every index is in range, so "clip" only skips the
            # bounds-check buffer.
            table_t[f].take(indices, out=gathered, mode="clip")
            gathered *= weights
            # Accumulate explicitly in the order c = 0..7; a reduction
            # over the corner axis may sum pairwise instead.
            np.add(gathered[0], gathered[1], out=blend[f])
            for c in range(2, 8):
                blend[f] += gathered[c]
        features = np.ascontiguousarray(blend.transpose(2, 1, 0))
        return features.reshape(n, cfg.output_dim), indices, weights

    def _corners(self, points: np.ndarray) -> tuple:
        """``(indices, weights)`` of every point's eight corners.

        Both are ``(8, L, n)``.  Corner ``c = x + 2y + 4z`` (x-fastest,
        see :data:`CORNER_OFFSETS`) is
        ``X[x] ^ Y[y] ^ Z[z]`` for the per-axis hash terms
        ``X[0] = b_x * P_x`` and ``X[1] = (b_x + 1) * P_x`` (masked to the
        table), and its weight is ``(w_x * w_y) * w_z`` up to commutation.
        Building the x and y terms inside the outputs keeps every other
        buffer ``(3, L, n)`` or smaller: at training batch sizes a larger
        transient buffer costs fresh pages on every call.
        """
        cfg = self.config
        n_levels, n = cfg.n_levels, points.shape[0]
        dtype = points.dtype
        # Axis-major (3, L, n): each axis is one contiguous (L, n) slab.
        scaled = (
            np.ascontiguousarray(points.T)[:, None, :]
            * self._resolutions[None, :, None].astype(dtype)
        )
        base = np.floor(scaled).astype(np.int64)
        np.clip(base, 0, self._max_cell, out=base)
        # Hash terms: b * P and (b + 1) * P, masked to the table.  The mask
        # distributes over XOR, and (b + 1) * P == b * P + P holds exactly
        # under uint64 wraparound.
        mask = np.uint64(cfg.table_size - 1)
        primes = PRIMES[:, None, None]
        flat = np.empty((8, n_levels, n), dtype=np.uint64)
        xy_terms = flat[4:].reshape(2, 2, n_levels, n)  # [axis, 0 or 1]
        np.multiply(base[:2].view(np.uint64), primes[:2], out=xy_terms[:, 0])
        np.add(xy_terms[:, 0], primes[:2], out=xy_terms[:, 1])
        xy_terms &= mask
        z_terms = np.empty((2, n_levels, n), dtype=np.uint64)
        np.multiply(base[2].view(np.uint64), primes[2], out=z_terms[0])
        np.add(z_terms[0], primes[2], out=z_terms[1])
        z_terms &= mask
        # A masked hash is below T, so XOR-ing in the level's slab offset
        # (a multiple of T) adds it: corner indices come out flat.
        z_terms ^= self._level_offsets.view(np.uint64)[None, :, None]
        x_terms, y_terms = xy_terms
        np.bitwise_xor(
            y_terms[:, None], x_terms[None, :], out=flat[:4].reshape(2, 2, n_levels, n)
        )
        np.bitwise_xor(flat[:4], z_terms[1], out=flat[4:])
        flat[:4] ^= z_terms[0]
        # Weights, the same way: [axis, 0] is 1 - f and [axis, 1] is f
        # for the fraction f of the point within its cell.
        cell = base.astype(dtype)
        weights = np.empty((8, n_levels, n), dtype=dtype)
        xy_weights = weights[4:].reshape(2, 2, n_levels, n)
        np.subtract(scaled[:2], cell[:2], out=xy_weights[:, 1])
        np.subtract(1.0, xy_weights[:, 1], out=xy_weights[:, 0])
        z_weights = np.empty((2, n_levels, n), dtype=dtype)
        np.subtract(scaled[2], cell[2], out=z_weights[1])
        np.subtract(1.0, z_weights[1], out=z_weights[0])
        w_x, w_y = xy_weights
        np.multiply(
            w_y[:, None], w_x[None, :], out=weights[:4].reshape(2, 2, n_levels, n)
        )
        np.multiply(weights[:4], z_weights[1], out=weights[4:])
        weights[:4] *= z_weights[0]
        # Flat indices are far below 2**63, so the signed view is exact.
        return flat.view(np.int64), weights

    def forward(self, points: np.ndarray) -> tuple:
        """Encode points; returns ``(features, trace)``.

        ``features`` is ``(n, n_levels * n_features)`` with level-major
        layout; ``trace`` feeds :meth:`backward` and the hash-tiling
        simulator.  The result is bit-identical to the per-level
        reference in :mod:`repro.perf.reference` (see module docstring).
        """
        features, flat, weights = self._interpolate(points)
        return features, EncodingTrace(flat, weights, self._level_offsets)

    def backward(self, grad_features: np.ndarray, trace: EncodingTrace) -> np.ndarray:
        """Gradient of the loss w.r.t. the tables.

        ``grad_features`` is ``(n, n_levels * n_features)``; returns an
        array shaped like :attr:`tables`.  This is the scatter-accumulate
        ("inverse adder tree") workload the reconfigurable interpolation
        array executes in training mode.  The scatter runs one level at
        a time, as one ``np.bincount`` per feature channel over that
        level's table indices fed in ``(n, 8)`` order: bincount
        accumulates in input order, so duplicate-index sums are
        bit-identical to the per-level ``np.add.at`` reference, without
        its element-at-a-time buffered-ufunc cost.  Levels own disjoint
        bins, so the largest temporaries are one level's ``(n, 8)``
        indices and contributions, not all ``L`` levels'.
        """
        grad_features = np.atleast_2d(grad_features)
        if grad_features.shape != (trace.n_points, self.config.output_dim):
            raise ValueError("grad_features shape mismatch with trace")
        cfg = self.config
        n_levels, n_features = cfg.n_levels, cfg.n_features
        n = trace.n_points
        # (n, L*F) level-major -> (F, L, n), one (L, n) block per channel.
        g = np.ascontiguousarray(grad_features.reshape(n, n_levels, n_features).T)
        grad = np.empty(self.tables.shape, dtype=np.float64)
        indices = np.empty((n, 8), dtype=np.int64)
        contrib = np.empty((n, 8), dtype=np.float64)
        for level in range(n_levels):
            np.subtract(
                trace.flat_indices[:, level].T,
                trace.level_offsets[level],
                out=indices,
            )
            weights = trace.corner_weights[:, level].T
            for feature in range(n_features):
                np.multiply(weights, g[feature, level][:, None], out=contrib)
                grad[level, :, feature] = np.bincount(
                    indices.ravel(), weights=contrib.ravel(), minlength=cfg.table_size
                )
        return grad

    def parameters(self) -> dict:
        """The ``(L, T, F)`` tables under the key ``"hash_tables"``."""
        return {"hash_tables": self.tables}

    def load_parameters(self, params: dict) -> None:
        """Adopt ``params["hash_tables"]``; its shape must match."""
        tables = params["hash_tables"]
        if tables.shape != self.tables.shape:
            raise ValueError("hash table shape mismatch")
        self.tables = tables

