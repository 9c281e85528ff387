"""MoE scalability in expert count (Fig. 13(a)'s second observation).

The paper observes that "the convergent PSNR improves as the number of
small models (i.e., the number of chips) increases".  This experiment
trains 1-, 2- and 4-expert MoEs with the *same per-expert capacity* on a
Room-like scene under one schedule and reports the final test PSNR.
"""

from __future__ import annotations

from ..datasets import nerf360
from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import ModelConfig
from ..nerf.moe import MoEConfig, MoENeRF
from ..nerf.trainer import Trainer, TrainerConfig
from .base import ExperimentResult

EXPERT_COUNTS = (1, 2, 4)


def run(quick: bool = True) -> ExperimentResult:
    """Reproduce Fig. 13(a) obs. 2: PSNR vs expert count (see the module docstring)."""
    iterations = 100 if quick else 500
    size = 24 if quick else 40
    dataset = nerf360.make_dataset(
        "room", n_views=8, width=size, height=size, gt_steps=96
    )
    expert_model = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=5, log2_table_size=10, base_resolution=8, finest_resolution=64
        ),
        hidden_width=24,
        geo_features=8,
    )
    rows = []
    scores = []
    for n_experts in EXPERT_COUNTS:
        moe = MoENeRF(MoEConfig(n_experts=n_experts, expert_model=expert_model), seed=0)
        trainer = Trainer(
            moe,
            dataset.cameras,
            dataset.images,
            dataset.normalizer,
            TrainerConfig(
                batch_rays=384, lr=5e-3, max_samples_per_ray=32,
                occupancy_resolution=16,
            ),
        )
        trainer.train(iterations)
        psnr = trainer.eval_psnr(n_views=2)
        scores.append(psnr)
        rows.append(
            {
                "n_experts": n_experts,
                "total_parameters": moe.n_parameters,
                "final_psnr": round(psnr, 2),
            }
        )
    return ExperimentResult(
        experiment="final PSNR vs number of experts (chips)",
        paper_ref="Fig. 13(a), second observation",
        rows=rows,
        summary={
            "psnr_1_expert": scores[0],
            "psnr_4_experts": scores[-1],
            "more_experts_help": scores[-1] > scores[0],
            "paper_claim": "convergent PSNR improves with the chip count",
        },
    )
