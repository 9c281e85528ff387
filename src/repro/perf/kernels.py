"""Kernel-level benchmarks: each hot-path kernel vs its frozen reference.

Every bench builds one deterministic workload, then times the reference
implementation (:mod:`repro.perf.reference`) and the optimized library
code back to back on identical inputs.  Input equality *is* checked in
the test suite, not here — the bench trusts the equivalence tests and
only measures.

``KERNEL_BENCHES`` maps bench name to a builder; builders take a
``smoke`` flag that shrinks the workload for CI.
"""

from __future__ import annotations

import numpy as np

from ..nerf.hash_encoding import HashEncoding, HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.precision import LowPrecisionField
from ..nerf.tensorf import PlaneLineEncoding
from ..nerf.volume_rendering import segment_sum
from ..sim.trace import distribute_samples_over_pairs
from . import reference
from .timing import time_pair

#: Bench RNG seed — fixed so recorded numbers are workload-reproducible.
SEED = 1234


def _bench_encoding(smoke: bool) -> tuple:
    """Shared hash-encoding workload: ``(encoding, reference, points)``."""
    config = HashEncodingConfig(
        n_levels=8,
        n_features=2,
        log2_table_size=14,
        base_resolution=16,
        finest_resolution=256,
    )
    opt = HashEncoding(config, rng=np.random.default_rng(SEED))
    ref = reference.ReferenceHashEncoding(config, rng=np.random.default_rng(SEED))
    rng = np.random.default_rng(SEED)
    points = rng.random((2_000 if smoke else 20_000, 3))
    return opt, ref, points


def bench_hash_forward(smoke: bool = False) -> dict:
    """Multi-level hash-encoding forward: corner-major kernel vs per-level loop."""
    opt, ref, points = _bench_encoding(smoke)
    timing = time_pair(
        lambda: ref.forward(points),
        lambda: opt.forward(points),
        repeats=3 if smoke else 5,
    )
    return dict(timing.as_record(), renderer="ngp")


def bench_hash_backward(smoke: bool = False) -> dict:
    """Hash-table gradient scatter: flat bincount vs per-level add.at."""
    opt, ref, points = _bench_encoding(smoke)
    _, opt_trace = opt.forward(points)
    _, ref_trace = ref.forward(points)
    rng = np.random.default_rng(SEED + 1)
    grad = rng.normal(size=(points.shape[0], opt.config.output_dim))
    timing = time_pair(
        lambda: ref.backward(grad, ref_trace),
        lambda: opt.backward(grad, opt_trace),
        repeats=3 if smoke else 5,
    )
    return dict(timing.as_record(), renderer="ngp")


def bench_hash_fwd_bwd(smoke: bool = False) -> dict:
    """Full encoding round trip (forward + backward) — the headline
    kernel number the acceptance gate tracks."""
    opt, ref, points = _bench_encoding(smoke)
    rng = np.random.default_rng(SEED + 1)
    grad = rng.normal(size=(points.shape[0], opt.config.output_dim))

    def run(encoding):
        _, trace = encoding.forward(points)
        encoding.backward(grad, trace)

    timing = time_pair(
        lambda: run(ref), lambda: run(opt), repeats=3 if smoke else 5
    )
    return dict(timing.as_record(), renderer="ngp")


def _bench_plane_line(smoke: bool) -> tuple:
    """Shared TensoRF VM-encoding workload: ``(opt, ref, points)``."""
    resolution, n_components = 48, 8
    opt = PlaneLineEncoding(
        resolution, n_components, rng=np.random.default_rng(SEED)
    )
    ref = reference.ReferencePlaneLineEncoding(
        resolution, n_components, rng=np.random.default_rng(SEED)
    )
    # Smoke stays large enough that the optimized side is well clear of
    # timer jitter — the speedup ratio is what the 20% gate defends, and
    # a sub-millisecond denominator makes it noisy.
    rng = np.random.default_rng(SEED)
    points = rng.random((4_000 if smoke else 8_000, 3))
    return opt, ref, points


def bench_tensorf_forward(smoke: bool = False) -> dict:
    """TensoRF VM-encoding forward: fused gathers vs per-point loop."""
    opt, ref, points = _bench_plane_line(smoke)
    timing = time_pair(
        lambda: ref.forward(points),
        lambda: opt.forward(points),
        repeats=3 if smoke else 5,
    )
    return dict(timing.as_record(), renderer="tensorf")


def bench_tensorf_fwd_bwd(smoke: bool = False) -> dict:
    """TensoRF VM-encoding round trip (forward + backward) — the
    ``tensorf`` renderer's headline kernel number, the peer of
    ``hash_fwd_bwd`` on the ``ngp`` side."""
    opt, ref, points = _bench_plane_line(smoke)
    rng = np.random.default_rng(SEED + 1)
    grad = rng.normal(size=(points.shape[0], opt.output_dim))

    def run(encoding):
        _, trace = encoding.forward(points)
        encoding.backward(grad, trace)

    timing = time_pair(
        lambda: run(ref), lambda: run(opt), repeats=3 if smoke else 5
    )
    return dict(timing.as_record(), renderer="tensorf")


def bench_precision_field_fwd(smoke: bool = False) -> dict:
    """Field inference: float64 training forward vs the fp16/INT8
    snapshot (:class:`~repro.nerf.precision.LowPrecisionField`).

    The same sample batch through the same weights; the snapshot wins by
    gathering half-width tables, running float32 matmuls, and building
    no backward caches.  This is the kernel the ``precision_pareto``
    experiment and the ``render_frame_precision`` e2e bench rest on, so
    its ratio is what the CI bench gate defends at smoke scale.
    """
    config = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=8,
            n_features=2,
            log2_table_size=14,
            base_resolution=16,
            finest_resolution=256,
        ),
        hidden_width=64,
        geo_features=16,
    )
    model = InstantNGPModel(config, seed=SEED)
    lowp = LowPrecisionField(model, mode="fp16-int8")
    rng = np.random.default_rng(SEED)
    n = 2_000 if smoke else 20_000
    # float32 buffers, as the ray marcher hands both paths in the
    # rendering pipeline.
    points = rng.random((n, 3)).astype(np.float32)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    directions = directions.astype(np.float32)
    timing = time_pair(
        lambda: model.forward(points, directions),
        lambda: lowp.forward(points, directions),
        repeats=3 if smoke else 5,
    )
    return dict(timing.as_record(), renderer="ngp", precision=lowp.precision)


def bench_scatter_add(smoke: bool = False) -> dict:
    """Duplicate-heavy segment sum: bincount columns vs ``np.add.at``."""
    rng = np.random.default_rng(SEED)
    n = 20_000 if smoke else 200_000
    n_rays = n // 16
    ray_idx = np.sort(rng.integers(0, n_rays, size=n))
    values = rng.normal(size=(n, 3))
    timing = time_pair(
        lambda: reference.scatter_add_reference(values, ray_idx, n_rays),
        lambda: segment_sum(values, ray_idx, n_rays),
        repeats=3 if smoke else 5,
    )
    return timing.as_record()


def bench_trace_pair_durations(smoke: bool = False) -> dict:
    """Trace span accounting: vectorized slices vs per-pair Python loop."""
    rng = np.random.default_rng(SEED)
    n_rays = 2_000 if smoke else 20_000
    pairs_per_ray = rng.integers(1, 4, size=n_rays)
    pair_ray_idx = np.repeat(np.arange(n_rays), pairs_per_ray)
    spans = rng.random(pair_ray_idx.shape[0])
    kept = rng.integers(0, 32, size=n_rays)
    timing = time_pair(
        lambda: reference.pair_durations_reference(
            pair_ray_idx, spans, kept, n_rays
        ),
        lambda: distribute_samples_over_pairs(pair_ray_idx, spans, kept, n_rays),
        repeats=3 if smoke else 5,
    )
    return timing.as_record()


#: name -> builder registry the bench driver iterates, in report order.
KERNEL_BENCHES = {
    "hash_forward": bench_hash_forward,
    "hash_backward": bench_hash_backward,
    "hash_fwd_bwd": bench_hash_fwd_bwd,
    "tensorf_forward": bench_tensorf_forward,
    "tensorf_fwd_bwd": bench_tensorf_fwd_bwd,
    "precision_field_fwd": bench_precision_field_fwd,
    "scatter_add": bench_scatter_add,
    "trace_pair_durations": bench_trace_pair_durations,
}
