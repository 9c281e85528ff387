"""Mixture-of-Experts NeRF: Level-1 tiling of the multi-chip system (T3).

The whole model is split into N complete, smaller models ("experts"), one
per chip.  Each expert runs the full three-stage pipeline on the broadcast
input rays, gated by its own occupancy grid, and the chips' outputs are
fused *by addition* in the I/O module — the property that collapses
chip-to-chip traffic to one partial pixel per ray per chip.

Fusion rule.  Each expert composites its own render with the shared
background ``bg``; since a standard composite returns
``C_e = bg + sum_i w_i (c_i - bg)``, the fused pixel

``C = bg + sum_e (C_e - bg)``

is a plain sum with a constant offset, and ``dC/dC_e = 1`` — the I/O
module is an adder, exactly as Sec. V-A describes, and gradients broadcast
back to each chip unchanged.  Experts specialize automatically during
training (paper Fig. 8).

:class:`MoENeRF` is a container of experts, not itself a field: each chip
runs the ordinary training step, so :class:`~repro.nerf.trainer.Trainer`
trains ``model.experts`` jointly against the fused pixel and renders the
fused frame.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .hash_encoding import HashEncodingConfig
from .model import InstantNGPModel, ModelConfig
from .rays import generate_rays


@dataclass(frozen=True)
class MoEConfig:
    """MoE decomposition parameters.

    ``expert_model`` configures each expert; the paper's headline
    configuration is four experts of 2^14 hash entries replacing one
    2^16 model (same total capacity).
    """

    n_experts: int = 4
    expert_model: ModelConfig = field(
        default_factory=lambda: ModelConfig(
            encoding=HashEncodingConfig(log2_table_size=14)
        )
    )

    def __post_init__(self):
        if self.n_experts < 1:
            raise ValueError("need at least one expert")


class MoENeRF:
    """N independent experts fused by addition at the pixel level.

    Built from ``config`` (``n_experts`` Instant-NGP experts seeded
    ``seed + i``), or around ready-built ``experts`` — any trainable
    field, e.g. :class:`~repro.nerf.tensorf.DenseGridField` — in which
    case ``config`` is ``None``.
    """

    def __init__(self, config: MoEConfig = MoEConfig(), seed: int = 0, experts: list = None):
        if experts is None:
            self.config = config
            self.experts = [
                InstantNGPModel(config.expert_model, seed=seed + i)
                for i in range(config.n_experts)
            ]
        else:
            if not experts:
                raise ValueError("need at least one expert")
            self.config = None
            self.experts = list(experts)

    @property
    def n_experts(self) -> int:
        """How many experts the model fuses."""
        return len(self.experts)

    @property
    def n_parameters(self) -> int:
        """Trainable scalars summed over every expert."""
        return sum(expert.n_parameters for expert in self.experts)

    def prefixes(self) -> list:
        """``expert{i}.``: the key prefix of expert ``i``'s parameters."""
        return [f"expert{i}." for i in range(self.n_experts)]

    def parameters(self) -> dict:
        """Every expert's parameters, keyed ``expert{i}.<name>``."""
        params = {}
        for prefix, expert in zip(self.prefixes(), self.experts):
            for name, value in expert.parameters().items():
                params[prefix + name] = value
        return params

    @staticmethod
    def fuse(expert_colors: list, background: float) -> np.ndarray:
        """The I/O module's adder: ``bg + sum_e (C_e - bg)``.

        With one input the adder is a wire and returns it unchanged, so a
        single field trains and renders bit-identically through the
        fused path.
        """
        if not expert_colors:
            raise ValueError("no expert outputs to fuse")
        if len(expert_colors) == 1:
            return expert_colors[0]
        total = np.zeros_like(expert_colors[0])
        for colors in expert_colors:
            total += colors - background
        return total + background


def dominance_map(trainer, camera, normalizer) -> np.ndarray:
    """Per-pixel dominating-expert image (the paper's Fig. 8 view).

    ``trainer`` is the :class:`~repro.nerf.trainer.Trainer` of an MoE:
    each expert renders against a zero background, and a pixel belongs
    to the expert whose render contributes most.  Returns an ``(h, w)``
    integer array of expert indices; render it with any categorical
    palette to reproduce the figure's colored regions.
    """
    rays = generate_rays(camera)
    origins, directions = normalizer.rays_to_unit(rays.origins, rays.directions)
    contributions = [
        np.abs(renderer.render_rays(origins, directions)[0]).sum(axis=-1)
        for renderer in trainer.renderers(background=0.0)
    ]
    dominance = np.argmax(np.stack(contributions, axis=0), axis=0)
    return dominance.reshape(camera.height, camera.width)


def dominance_ascii(dominance: np.ndarray, glyphs: str = ".:+#@%&*") -> str:
    """Render a dominance map as ASCII art (for terminal examples)."""
    dominance = np.asarray(dominance)
    if dominance.max() >= len(glyphs):
        raise ValueError("not enough glyphs for the expert count")
    lines = []
    for row in dominance:
        lines.append("".join(glyphs[int(e)] for e in row))
    return "\n".join(lines)
