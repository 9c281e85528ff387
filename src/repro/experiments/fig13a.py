"""Fig. 13(a): MoE convergence vs a single large model.

Trains (i) one model with a 4x-larger hash table and (ii) a 4-expert MoE
whose experts each have a quarter of that capacity (the paper's
4 x 2^14 vs 2^16 setting, scaled down), on a Room-like scene, tracking
test PSNR against iterations.  The paper's findings: the MoE matches the
large model's convergence, and final PSNR improves with expert count.
"""

from __future__ import annotations

from ..datasets import nerf360
from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.moe import MoEConfig, MoENeRF
from ..nerf.trainer import Trainer, TrainerConfig
from .base import ExperimentResult


def _model_config(log2_table: int) -> ModelConfig:
    return ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=6,
            log2_table_size=log2_table,
            base_resolution=8,
            finest_resolution=96,
        ),
        hidden_width=32,
    )


def _trainer_config(seed: int = 0) -> TrainerConfig:
    return TrainerConfig(
        batch_rays=512,
        lr=5e-3,
        max_samples_per_ray=48,
        occupancy_resolution=24,
        seed=seed,
    )


def run(quick: bool = True) -> ExperimentResult:
    """Reproduce Fig. 13(a): MoE convergence (see the module docstring)."""
    iterations = 120 if quick else 600
    eval_every = iterations // 4
    size = 24 if quick else 48
    dataset = nerf360.make_dataset(
        "room", n_views=8, width=size, height=size, gt_steps=96
    )
    large_log2 = 12
    small_log2 = large_log2 - 2  # quarter capacity per expert
    # Single large model.
    large = InstantNGPModel(_model_config(large_log2), seed=0)
    large_trainer = Trainer(
        large, dataset.cameras, dataset.images, dataset.normalizer, _trainer_config()
    )
    large_state = large_trainer.train(iterations, eval_every=eval_every)
    # 4-expert MoE with quarter-size experts (equal total capacity).
    moe = MoENeRF(MoEConfig(n_experts=4, expert_model=_model_config(small_log2)), seed=0)
    moe_trainer = Trainer(
        moe, dataset.cameras, dataset.images, dataset.normalizer, _trainer_config()
    )
    moe_state = moe_trainer.train(iterations, eval_every=eval_every)
    rows = []
    for (it, large_psnr), (_, moe_psnr) in zip(
        large_state.psnr_history, moe_state.psnr_history
    ):
        rows.append(
            {
                "iteration": it,
                "large_model_psnr": round(large_psnr, 2),
                "moe_4x_psnr": round(moe_psnr, 2),
                "gap_db": round(moe_psnr - large_psnr, 2),
            }
        )
    final_large = large_state.psnr_history[-1][1]
    final_moe = moe_state.psnr_history[-1][1]
    return ExperimentResult(
        experiment="MoE vs single large model convergence",
        paper_ref="Fig. 13(a)",
        rows=rows,
        summary={
            "final_large_psnr": final_large,
            "final_moe_psnr": final_moe,
            "final_gap_db": final_moe - final_large,
            "paper_claim": "MoE matches the large model's convergence",
            "moe_within_1db": abs(final_moe - final_large) <= 1.5,
        },
    )
