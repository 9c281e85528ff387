"""TensoRF-style radiance fields: dense grid and VM plane/line factors.

RT-NeRF accelerates TensoRF, whose features live in dense voxel grids
rather than hash tables.  Sec. VI-C shows Fusion-3D's sampling /
post-processing modules and MoE scheme transfer to this pipeline, so we
provide a dense-grid field with the same model interface as
:class:`~repro.nerf.model.InstantNGPModel` (forward / backward /
parameters / density), usable standalone and under the MoE wrapper.

This module also hosts the *first-class* ``tensorf`` renderer of
:mod:`repro.pipeline`: :class:`PlaneLineEncoding` implements TensoRF's
vector-matrix (VM) decomposition — three factor planes and three factor
lines whose products reconstruct the feature volume at a fraction of a
dense grid's footprint — and :class:`TensoRFModel` composes it with the
standard density/color MLP heads behind the exact model contract the
renderer, trainer, serving, and checkpoint layers already speak.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hash_encoding import CORNER_OFFSETS
from .mlp import MLP, spherical_harmonics, SH_DIM

#: VM decomposition layout: component ``k`` pairs a plane over
#: ``PLANE_AXES[k]`` with a line along ``LINE_AXES[k]``.
PLANE_AXES = ((1, 2), (0, 2), (0, 1))
LINE_AXES = (0, 1, 2)


@dataclass(frozen=True)
class DenseGridConfig:
    """Dense feature-grid hyper-parameters.

    ``resolution ** 3 * n_features`` is the paper's "128^3 parameters"
    accounting when ``n_features`` matches.
    """

    resolution: int = 64
    n_features: int = 8
    hidden_width: int = 64



@dataclass
class DenseForwardCache:
    """Values cached by forward for backward."""

    indices: np.ndarray  # (n, 8) flat grid indices
    weights: np.ndarray  # (n, 8) trilinear weights
    density_caches: list
    color_caches: list
    density_pre: np.ndarray
    sigma: np.ndarray


class DenseGridField:
    """Trainable dense voxel grid + MLP heads."""

    def __init__(self, config: DenseGridConfig = DenseGridConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        r, f = config.resolution, config.n_features
        self.grid = rng.uniform(-1e-2, 1e-2, size=(r**3, f))
        self.density_mlp = MLP(
            [f, config.hidden_width, 16], activations=["relu", "none"],
            name="density", rng=rng,
        )
        self.color_mlp = MLP(
            [16 + SH_DIM, config.hidden_width, 3],
            activations=["relu", "sigmoid"],
            name="color",
            rng=rng,
        )

    @property
    def n_parameters(self) -> int:
        """Trainable scalars: the grid plus both MLPs."""
        return (
            self.grid.size
            + self.density_mlp.n_parameters
            + self.color_mlp.n_parameters
        )

    def _interp(self, positions: np.ndarray) -> tuple:
        """Trilinear gather: returns ``(features, indices, weights)``."""
        positions = np.atleast_2d(positions)
        r = self.config.resolution
        scaled = positions * (r - 1)
        base = np.clip(np.floor(scaled).astype(np.int64), 0, r - 2)
        frac = scaled - base
        corners = base[:, None, :] + CORNER_OFFSETS[None, :, :]
        flat = (
            corners[..., 0] * r * r + corners[..., 1] * r + corners[..., 2]
        )
        offs = CORNER_OFFSETS[None, :, :]
        terms = np.where(offs == 1, frac[:, None, :], 1.0 - frac[:, None, :])
        weights = terms.prod(axis=-1)
        features = (weights[:, :, None] * self.grid[flat]).sum(axis=1)
        return features, flat, weights

    def forward(self, positions: np.ndarray, directions: np.ndarray) -> tuple:
        """Per-sample ``(sigma, rgb, cache)``, same contract as Instant-NGP."""
        positions = np.atleast_2d(positions)
        directions = np.atleast_2d(directions)
        features, indices, weights = self._interp(positions)
        latent, density_caches = self.density_mlp.forward(features)
        density_pre = latent[:, 0]
        sigma = np.logaddexp(0.0, density_pre - 3.0)
        sh = spherical_harmonics(directions)
        rgb, color_caches = self.color_mlp.forward(
            np.concatenate([latent, sh], axis=-1)
        )
        cache = DenseForwardCache(
            indices=indices,
            weights=weights,
            density_caches=density_caches,
            color_caches=color_caches,
            density_pre=density_pre,
            sigma=sigma,
        )
        return sigma, rgb, cache

    def backward(self, grad_sigma, grad_rgb, cache: DenseForwardCache) -> dict:
        """Gradients of every parameter from the forward's ``cache``."""
        grad_sigma = np.asarray(grad_sigma).reshape(-1)
        grad_color_in, color_grads = self.color_mlp.backward(
            np.atleast_2d(grad_rgb), cache.color_caches
        )
        grad_latent = grad_color_in[:, :16].copy()
        softplus_grad = 1.0 / (1.0 + np.exp(-np.clip(cache.density_pre - 3.0, -30, 30)))
        grad_latent[:, 0] += grad_sigma * softplus_grad
        grad_features, density_grads = self.density_mlp.backward(
            grad_latent, cache.density_caches
        )
        # bincount scatter: accumulates in input order like the np.add.at
        # it replaces, so gradients are bit-identical on duplicate cells.
        contrib = (cache.weights[:, :, None] * grad_features[:, None, :]).reshape(
            -1, self.config.n_features
        )
        flat_idx = cache.indices.reshape(-1)
        grad_grid = np.empty_like(self.grid)
        for feature in range(self.config.n_features):
            grad_grid[:, feature] = np.bincount(
                flat_idx, weights=contrib[:, feature], minlength=self.grid.shape[0]
            )
        grads = {"grid": grad_grid}
        for key, value in density_grads.items():
            grads[f"density.{key}"] = value
        for key, value in color_grads.items():
            grads[f"color.{key}"] = value
        return grads

    def parameters(self) -> dict:
        """The grid and both MLPs' weights, keyed by name."""
        params = {"grid": self.grid}
        params.update(self.density_mlp.parameters())
        params.update(self.color_mlp.parameters())
        return params

    def density(self, positions: np.ndarray) -> np.ndarray:
        """Density (sigma) alone at ``positions``, for occupancy refresh."""
        features, _, _ = self._interp(positions)
        latent, _ = self.density_mlp.forward(features)
        return np.logaddexp(0.0, latent[:, 0] - 3.0)


@dataclass(frozen=True)
class TensoRFConfig:
    """Hyper-parameters of the VM-decomposed TensoRF field.

    ``n_components`` is the rank ``R`` of the decomposition: each of the
    three axis pairings contributes ``R`` plane x line products, so the
    encoding emits ``3 * R`` features per sample from
    ``3 * R * (resolution**2 + resolution)`` parameters — quadratic in
    resolution where a dense grid is cubic.
    """

    resolution: int = 48
    n_components: int = 8
    hidden_width: int = 64
    #: Width of the latent the density net hands to the color net (its
    #: first channel is the raw density logit).
    geo_features: int = 16
    #: Added to the density logit before softplus; negative so untrained
    #: space reads as empty (same convention as Instant-NGP).
    density_bias: float = -3.0

    @property
    def output_dim(self) -> int:
        """Feature width the encoding hands the density MLP."""
        return 3 * self.n_components


@dataclass
class PlaneLineTrace:
    """Values :meth:`PlaneLineEncoding.forward` caches for backward."""

    base: np.ndarray  # (n, 3) int64 lower cell corner per axis
    frac: np.ndarray  # (n, 3) float64 in-cell offset per axis
    plane_vals: list  # 3 x (n, R) interpolated plane factors
    line_vals: list  # 3 x (n, R) interpolated line factors
    n_points: int


class PlaneLineEncoding:
    """TensoRF vector-matrix (VM) factor encoding.

    Component ``k`` stores an ``(res, res, R)`` factor plane over the
    axis pair ``PLANE_AXES[k]`` and an ``(res, R)`` factor line along
    ``LINE_AXES[k]``; a sample's feature is the bilinear plane value
    times the linear line value, concatenated over the three components
    into a ``(n, 3R)`` row.  Forward/backward follow the repo's kernel
    idioms: fused gathers with an explicit corner accumulation order
    (``w00*v00 + w01*v01 + w10*v10 + w11*v11`` — bit-identical to the
    looped reference in :mod:`repro.perf.reference`) and flat
    ``np.bincount`` scatters with the component folded into the index.
    """

    def __init__(self, resolution: int = 48, n_components: int = 8, rng=None):
        if resolution < 2:
            raise ValueError("resolution must be at least 2")
        if n_components < 1:
            raise ValueError("n_components must be positive")
        self.resolution = resolution
        self.n_components = n_components
        rng = rng or np.random.default_rng(0)
        self.factor_planes = rng.normal(
            0.0, 0.1, size=(3, resolution, resolution, n_components)
        )
        self.factor_lines = rng.normal(
            0.0, 0.1, size=(3, resolution, n_components)
        )

    @property
    def output_dim(self) -> int:
        """Feature width per sample: ``3 * n_components``."""
        return 3 * self.n_components

    def forward(self, positions: np.ndarray) -> tuple:
        """Encode unit-cube positions: ``(features, trace)``.

        ``features`` is ``(n, 3R)`` float64; pass ``trace`` to
        :meth:`backward`.
        """
        positions = np.atleast_2d(positions)
        n = positions.shape[0]
        res = self.resolution
        scaled = positions.astype(np.float64) * (res - 1)
        base = np.clip(np.floor(scaled).astype(np.int64), 0, res - 2)
        frac = scaled - base
        feats, plane_vals, line_vals = [], [], []
        for k in range(3):
            a, b = PLANE_AXES[k]
            ia, ib = base[:, a], base[:, b]
            fa, fb = frac[:, a], frac[:, b]
            plane = self.factor_planes[k]
            v00 = plane[ia, ib]
            v01 = plane[ia, ib + 1]
            v10 = plane[ia + 1, ib]
            v11 = plane[ia + 1, ib + 1]
            # Explicit corner order: the looped reference accumulates in
            # exactly this order, so the fused path is bit-identical.
            pv = (
                ((1.0 - fa) * (1.0 - fb))[:, None] * v00
                + ((1.0 - fa) * fb)[:, None] * v01
                + (fa * (1.0 - fb))[:, None] * v10
                + (fa * fb)[:, None] * v11
            )
            axis = LINE_AXES[k]
            il, fl = base[:, axis], frac[:, axis]
            line = self.factor_lines[k]
            lv = (1.0 - fl)[:, None] * line[il] + fl[:, None] * line[il + 1]
            plane_vals.append(pv)
            line_vals.append(lv)
            feats.append(pv * lv)
        features = np.concatenate(feats, axis=-1)
        trace = PlaneLineTrace(
            base=base,
            frac=frac,
            plane_vals=plane_vals,
            line_vals=line_vals,
            n_points=n,
        )
        return features, trace

    def backward(self, grad_features: np.ndarray, trace: PlaneLineTrace) -> dict:
        """Factor-store gradients: ``{"factor_planes", "factor_lines"}``.

        Scatters corner contributions with one flat ``np.bincount`` per
        corner (component folded into the index) — the same add.at-free
        idiom as the hash-table backward, bit-identical on duplicate
        cells because bincount accumulates in input order.
        """
        grad_features = np.atleast_2d(grad_features)
        if grad_features.shape != (trace.n_points, self.output_dim):
            raise ValueError("grad_features shape mismatch with trace")
        res, n_comp = self.resolution, self.n_components
        comp = np.arange(n_comp, dtype=np.int64)
        grad_planes = np.zeros_like(self.factor_planes)
        grad_lines = np.zeros_like(self.factor_lines)
        for k in range(3):
            a, b = PLANE_AXES[k]
            g = grad_features[:, k * n_comp : (k + 1) * n_comp]
            grad_plane_val = g * trace.line_vals[k]
            grad_line_val = g * trace.plane_vals[k]
            ia, ib = trace.base[:, a], trace.base[:, b]
            fa, fb = trace.frac[:, a], trace.frac[:, b]
            corners = (
                ((0, 0), (1.0 - fa) * (1.0 - fb)),
                ((0, 1), (1.0 - fa) * fb),
                ((1, 0), fa * (1.0 - fb)),
                ((1, 1), fa * fb),
            )
            for (da, db), w in corners:
                flat = ((ia + da) * res + (ib + db))[:, None] * n_comp + comp
                grad_planes[k] += np.bincount(
                    flat.ravel(),
                    weights=(w[:, None] * grad_plane_val).ravel(),
                    minlength=res * res * n_comp,
                ).reshape(res, res, n_comp)
            axis = LINE_AXES[k]
            il, fl = trace.base[:, axis], trace.frac[:, axis]
            for d, w in ((0, 1.0 - fl), (1, fl)):
                flat = (il + d)[:, None] * n_comp + comp
                grad_lines[k] += np.bincount(
                    flat.ravel(),
                    weights=(w[:, None] * grad_line_val).ravel(),
                    minlength=res * n_comp,
                ).reshape(res, n_comp)
        return {"factor_planes": grad_planes, "factor_lines": grad_lines}

    def parameters(self) -> dict:
        """The factor stores, named for the optimizer and fault injector."""
        return {
            "factor_planes": self.factor_planes,
            "factor_lines": self.factor_lines,
        }

    def load_parameters(self, params: dict) -> None:
        """Install factor stores from a parameter dict (shape-checked)."""
        if "factor_planes" not in params or "factor_lines" not in params:
            raise ValueError("params must contain factor_planes and factor_lines")
        planes = params["factor_planes"]
        lines = params["factor_lines"]
        if (
            planes.shape != self.factor_planes.shape
            or lines.shape != self.factor_lines.shape
        ):
            raise ValueError("factor parameter shape mismatch")
        self.factor_planes = planes
        self.factor_lines = lines


@dataclass
class TensoRFForwardCache:
    """Everything :meth:`TensoRFModel.forward` saves for backward."""

    encoding_trace: PlaneLineTrace
    density_caches: list
    color_caches: list
    density_pre: np.ndarray


class TensoRFModel:
    """VM-decomposed radiance field behind the standard model contract.

    Drop-in peer of :class:`~repro.nerf.model.InstantNGPModel`: the
    trainer, renderer, serving registry, and checkpoint layers only call
    ``forward`` / ``backward`` / ``parameters`` / ``load_parameters`` /
    ``density``, so this model trains and serves through all of them
    unchanged — it is the field stage of the ``tensorf`` renderer in
    :mod:`repro.pipeline`.
    """

    def __init__(self, config: TensoRFConfig = TensoRFConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.encoding = PlaneLineEncoding(
            config.resolution, config.n_components, rng=rng
        )
        self.density_mlp = MLP(
            [config.output_dim, config.hidden_width, config.geo_features],
            activations=["relu", "none"],
            name="density",
            rng=rng,
        )
        self.color_mlp = MLP(
            [config.geo_features + SH_DIM, config.hidden_width, 3],
            activations=["relu", "sigmoid"],
            name="color",
            rng=rng,
        )

    def forward(self, positions: np.ndarray, directions: np.ndarray) -> tuple:
        """Per-sample ``(sigma, rgb, cache)`` — the standard contract."""
        positions = np.atleast_2d(positions)
        directions = np.atleast_2d(directions)
        if positions.shape[0] != directions.shape[0]:
            raise ValueError("positions and directions must align")
        features, trace = self.encoding.forward(positions)
        latent, density_caches = self.density_mlp.forward(features)
        density_pre = latent[:, 0]
        sigma = np.logaddexp(0.0, density_pre + self.config.density_bias)
        sh = spherical_harmonics(directions)
        rgb, color_caches = self.color_mlp.forward(
            np.concatenate([latent, sh], axis=-1)
        )
        cache = TensoRFForwardCache(
            encoding_trace=trace,
            density_caches=density_caches,
            color_caches=color_caches,
            density_pre=density_pre,
        )
        return sigma, rgb, cache

    def backward(
        self,
        grad_sigma: np.ndarray,
        grad_rgb: np.ndarray,
        cache: TensoRFForwardCache,
    ) -> dict:
        """Parameter gradients given per-sample ``d loss / d (sigma, rgb)``."""
        grad_sigma = np.asarray(grad_sigma).reshape(-1)
        grad_color_in, color_grads = self.color_mlp.backward(
            np.atleast_2d(grad_rgb), cache.color_caches
        )
        geo = self.config.geo_features
        grad_latent = grad_color_in[:, :geo].copy()
        pre = cache.density_pre + self.config.density_bias
        softplus_grad = 1.0 / (1.0 + np.exp(-np.clip(pre, -30.0, 30.0)))
        grad_latent[:, 0] += grad_sigma * softplus_grad
        grad_features, density_grads = self.density_mlp.backward(
            grad_latent, cache.density_caches
        )
        grads = self.encoding.backward(grad_features, cache.encoding_trace)
        for key, value in density_grads.items():
            grads[f"density.{key}"] = value
        for key, value in color_grads.items():
            grads[f"color.{key}"] = value
        return grads

    def parameters(self) -> dict:
        """Flat name -> array dict of every learnable parameter."""
        params = dict(self.encoding.parameters())
        params.update(self.density_mlp.parameters())
        params.update(self.color_mlp.parameters())
        return params

    def load_parameters(self, params: dict) -> None:
        """Install parameters saved by :meth:`parameters`."""
        self.encoding.load_parameters(params)
        self.density_mlp.load_parameters(params)
        self.color_mlp.load_parameters(params)

    @property
    def n_parameters(self) -> int:
        """Total learnable parameter count."""
        return sum(p.size for p in self.parameters().values())

    def density(self, positions: np.ndarray) -> np.ndarray:
        """Density only (used for occupancy-grid refreshes)."""
        features, _ = self.encoding.forward(positions)
        latent, _ = self.density_mlp.forward(features)
        return np.logaddexp(0.0, latent[:, 0] + self.config.density_bias)
