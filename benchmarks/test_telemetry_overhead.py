"""Guard: disabled telemetry must stay out of the hot path's way.

The instrumentation compiled into ``Trainer.train_step`` /
``RayMarcher.sample`` costs, when telemetry is disabled, one
``get_session()`` call and a handful of no-op span context managers
per step.  This benchmark prices that fixed
per-step toll directly — by running the null primitives many more times
per step than the real code does — and asserts it stays under 2% of the
measured wall-clock of a short training run.

Pricing the primitives (rather than diffing two noisy end-to-end timings
of the same training loop) keeps the guard deterministic: the telemetry
side of the comparison is pure Python with microsecond-scale cost, so a
2% bound holds with an order-of-magnitude margin.
"""

from __future__ import annotations

import time

from repro import telemetry
from repro.datasets import synthetic
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.trainer import Trainer, TrainerConfig

#: Null-telemetry operations charged per training step.  The real
#: instrumentation performs ~8 spans and ~4 session/metric lookups per
#: step; 32 of each is a 4-8x safety margin.
NULL_OPS_PER_STEP = 32


def _make_trainer() -> Trainer:
    dataset = synthetic.make_dataset("mic", n_views=4, width=24, height=24,
                                     gt_steps=48)
    model = InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=3, n_features=2, log2_table_size=8,
                base_resolution=4, finest_resolution=16,
            ),
            hidden_width=16,
            geo_features=8,
        ),
        seed=0,
    )
    return Trainer(
        model, dataset.cameras, dataset.images, dataset.normalizer,
        TrainerConfig(batch_rays=128, lr=5e-3, max_samples_per_ray=24,
                      occupancy_resolution=16, occupancy_interval=8),
    )


def _time_null_ops(n_steps: int) -> float:
    """Wall-clock of ``n_steps`` x NULL_OPS_PER_STEP disabled-path ops."""
    session = telemetry.get_session()
    assert not session.enabled
    start = time.perf_counter()
    for _ in range(n_steps * NULL_OPS_PER_STEP):
        tel = telemetry.get_session()
        with tel.tracer.span("overhead.probe"):
            pass
        tel.metrics.counter("overhead.probe").inc()
    return time.perf_counter() - start


def test_null_telemetry_overhead_under_two_percent():
    telemetry.disable()
    trainer = _make_trainer()
    n_steps = 30
    trainer.train(5)  # warm-up: caches, occupancy, allocator
    start = time.perf_counter()
    trainer.train(n_steps)
    train_s = time.perf_counter() - start
    null_s = _time_null_ops(n_steps)
    overhead = null_s / train_s
    assert overhead < 0.02, (
        f"null-telemetry toll {null_s * 1e3:.2f} ms is "
        f"{overhead:.2%} of a {train_s * 1e3:.1f} ms training run"
    )
