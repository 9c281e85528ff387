"""The full Instant-NGP-style radiance field model.

Composition of the three pipeline stages' learnable parts:

* Stage II — :class:`~repro.nerf.hash_encoding.HashEncoding`;
* Stage III — a density MLP on the encoded features and a color MLP on
  the density latent plus a spherical-harmonics direction encoding.

``forward`` produces per-sample ``(sigma, rgb)``; ``backward`` routes the
renderer's gradients through both MLPs into the hash tables and returns a
flat parameter-gradient dict for the optimizer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hash_encoding import HashEncoding, HashEncodingConfig, EncodingTrace
from .mlp import MLP, spherical_harmonics, SH_DIM


@dataclass(frozen=True)
class ModelConfig:
    """Hyper-parameters of the radiance field."""

    encoding: HashEncodingConfig = field(default_factory=HashEncodingConfig)
    hidden_width: int = 64
    #: Width of the latent the density net hands to the color net (its
    #: first channel is the raw density logit).
    geo_features: int = 16
    density_activation: str = "softplus"
    #: Added to the density logit before activation; a negative bias makes
    #: untrained space read as empty, so the occupancy grid can prune it.
    density_bias: float = -3.0

    @property
    def density_widths(self) -> list:
        """Layer widths of the density MLP: features -> hidden -> latent."""
        return [self.encoding.output_dim, self.hidden_width, self.geo_features]

    @property
    def color_widths(self) -> list:
        """Layer widths of the color MLP: latent + SH -> hidden x 2 -> RGB."""
        return [
            self.geo_features + SH_DIM,
            self.hidden_width,
            self.hidden_width,
            3,
        ]


@dataclass
class ForwardCache:
    """Everything ``forward`` saves for ``backward``."""

    encoding_trace: EncodingTrace
    density_caches: list
    color_caches: list
    density_pre: np.ndarray
    sigma: np.ndarray


class InstantNGPModel:
    """Hash-encoded radiance field with NumPy forward/backward."""

    def __init__(self, config: ModelConfig = ModelConfig(), seed: int = 0):
        self.config = config
        rng = np.random.default_rng(seed)
        self.encoding = HashEncoding(config.encoding, rng=rng)
        self.density_mlp = MLP(
            config.density_widths,
            activations=["relu", "none"],
            name="density",
            rng=rng,
        )
        self.color_mlp = MLP(
            config.color_widths,
            activations=["relu", "relu", "sigmoid"],
            name="color",
            rng=rng,
        )

    def forward(self, positions: np.ndarray, directions: np.ndarray) -> tuple:
        """Per-sample density and color: ``(sigma, rgb, cache)``.

        ``positions`` are unit-cube coordinates; ``directions`` unit
        vectors (used only by the color head, as in the paper's Stage III).
        """
        positions = np.atleast_2d(positions)
        directions = np.atleast_2d(directions)
        if positions.shape[0] != directions.shape[0]:
            raise ValueError("positions and directions must align")
        features, trace = self.encoding.forward(positions)
        latent, density_caches = self.density_mlp.forward(features)
        density_pre = latent[:, 0]
        sigma = self._density_activation(density_pre)
        sh = spherical_harmonics(directions)
        color_in = np.concatenate([latent, sh], axis=-1)
        rgb, color_caches = self.color_mlp.forward(color_in)
        cache = ForwardCache(
            encoding_trace=trace,
            density_caches=density_caches,
            color_caches=color_caches,
            density_pre=density_pre,
            sigma=sigma,
        )
        return sigma, rgb, cache

    def backward(
        self,
        grad_sigma: np.ndarray,
        grad_rgb: np.ndarray,
        cache: ForwardCache,
    ) -> dict:
        """Parameter gradients given per-sample ``d loss / d (sigma, rgb)``.

        The upstream gradients are taken in the dtype the forward ran in
        (float32 on a snapshot), so the backward runs on the same
        datapath as its forward.  The hash-table gradient accumulates in
        float64 either way.
        """
        dtype = cache.sigma.dtype
        grad_sigma = np.asarray(grad_sigma, dtype=dtype).reshape(-1)
        grad_rgb = np.atleast_2d(np.asarray(grad_rgb, dtype=dtype))
        grad_color_in, color_grads = self.color_mlp.backward(
            grad_rgb, cache.color_caches
        )
        geo = self.config.geo_features
        grad_latent = grad_color_in[:, :geo].copy()
        grad_latent[:, 0] += grad_sigma * self._density_activation_grad(
            cache.density_pre, cache.sigma
        )
        grad_features, density_grads = self.density_mlp.backward(
            grad_latent, cache.density_caches
        )
        grad_tables = self.encoding.backward(grad_features, cache.encoding_trace)
        grads = {"hash_tables": grad_tables}
        for key, value in density_grads.items():
            grads[f"density.{key}"] = value
        for key, value in color_grads.items():
            grads[f"color.{key}"] = value
        return grads

    def parameters(self) -> dict:
        """Every trainable array by name: tables, then both MLPs."""
        params = {}
        params.update(self.encoding.parameters())
        params.update(self.density_mlp.parameters())
        params.update(self.color_mlp.parameters())
        return params

    def load_parameters(self, params: dict) -> None:
        """Adopt arrays keyed as :meth:`parameters` names them."""
        self.encoding.load_parameters(params)
        self.density_mlp.load_parameters(params)
        self.color_mlp.load_parameters(params)

    @property
    def n_parameters(self) -> int:
        """Total trainable values."""
        return sum(p.size for p in self.parameters().values())

    def density(self, positions: np.ndarray) -> np.ndarray:
        """Density only (used for occupancy-grid refreshes)."""
        features, _ = self.encoding.forward(positions)
        latent, _ = self.density_mlp.forward(features)
        return self._density_activation(latent[:, 0])

    def _density_activation(self, x: np.ndarray) -> np.ndarray:
        x = x + self.config.density_bias
        if self.config.density_activation == "softplus":
            return np.logaddexp(0.0, x)
        if self.config.density_activation == "exp":
            return np.exp(np.clip(x, -15.0, 15.0))
        raise ValueError(
            f"unknown density activation {self.config.density_activation!r}"
        )

    def _density_activation_grad(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        x = x + self.config.density_bias
        if self.config.density_activation == "softplus":
            return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))
        if self.config.density_activation == "exp":
            return y * (np.abs(x) < 15.0)
        raise ValueError(
            f"unknown density activation {self.config.density_activation!r}"
        )
