"""Mixed-precision fast path: snapshots, adaptive sampling, gates, wiring.

Covers the precision tentpole end to end: the full-precision default
stays bit-identical, fp16/INT8 snapshots track the float64 field within
their storage error, transmittance-adaptive sampling is deterministic
and color-bounded, the PSNR gate rejects over-aggressive configurations,
and the pipeline/serving layers carry the precision tag through.
"""

import numpy as np
import pytest

from repro import pipeline
from repro.nerf.aabb import SceneNormalizer
from repro.nerf.early_termination import render_batch_adaptive
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.mlp import MLP, Int8MLP, InferenceMLP
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.occupancy import HierarchicalOccupancy, OccupancyGrid
from repro.nerf.precision import (
    LowPrecisionField,
    PrecisionBudgetError,
    PrecisionGate,
)
from repro.nerf.quantization import quantize_int8, quantize_int8_fixed
from repro.nerf.sampling import RayMarcher, SamplerConfig
from repro.nerf.camera import Camera, sphere_poses
from repro.robustness.faults import SramFaultConfig
from repro.robustness.injection import inject_model_faults


def _model(density_bias=None, seed=0):
    kwargs = {} if density_bias is None else {"density_bias": density_bias}
    config = ModelConfig(
        encoding=HashEncodingConfig(
            n_levels=4,
            n_features=2,
            log2_table_size=10,
            base_resolution=4,
            finest_resolution=16,
        ),
        hidden_width=16,
        geo_features=15,
        **kwargs,
    )
    return InstantNGPModel(config, seed=seed)


def _samples(n=256, seed=3):
    rng = np.random.default_rng(seed)
    positions = rng.random((n, 3)).astype(np.float32)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return positions, directions.astype(np.float32)


def _camera(px=8):
    pose = sphere_poses(1, radius=2.6)[0]
    return Camera(width=px, height=px, focal=1.1 * px, c2w=pose)


def _normalizer():
    return SceneNormalizer(offset=np.array([-1.0, -1.0, -1.0]), scale=0.5)


def _opaque_batch(max_samples=32, n_px=6, density_bias=12.0):
    """An opaque-scene model plus a sampled pixel batch for it."""
    model = _model(density_bias=density_bias)
    camera = _camera(n_px)
    from repro.nerf.rays import generate_rays

    rays = generate_rays(camera)
    origins, directions = _normalizer().rays_to_unit(
        rays.origins, rays.directions
    )
    marcher = RayMarcher(SamplerConfig(max_samples=max_samples))
    batch = marcher.sample(origins, directions, occupancy=OccupancyGrid(8))
    return model, batch


# ------------------------------------------------- default path unchanged


def test_default_path_bit_identical():
    """The full-precision default evaluates the float64 field itself:
    one forward plus the exact composite, no snapshot in between."""
    from repro.nerf.volume_rendering import composite

    model, batch = _opaque_batch(density_bias=None)
    staged = pipeline.wrap_model(model)
    assert staged.precision == "full"
    assert staged.compositor.lowp_field is None
    colors, result = staged.compositor.render(model, batch, 1.0)
    sigma, rgb, _ = model.forward(batch.positions, batch.directions)
    expected = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    assert np.array_equal(colors, expected.colors)
    assert np.array_equal(result.weights, expected.weights)


def test_snapshot_construction_leaves_source_untouched():
    model = _model()
    positions, directions = _samples()
    before_sigma, before_rgb, _ = model.forward(positions, directions)
    before_tables = model.encoding.tables.copy()
    LowPrecisionField(model, mode="fp16-int8")
    after_sigma, after_rgb, _ = model.forward(positions, directions)
    assert np.array_equal(before_sigma, after_sigma)
    assert np.array_equal(before_rgb, after_rgb)
    assert np.array_equal(before_tables, model.encoding.tables)


# ------------------------------------------------------- snapshot fidelity


@pytest.mark.parametrize("mode", ["fp16", "fp16-int8"])
def test_lowp_field_tracks_float64_field(mode):
    model = _model()
    lowp = LowPrecisionField(model, mode=mode)
    positions, directions = _samples()
    sigma64, rgb64, _ = model.forward(positions, directions)
    sigma, rgb, cache = lowp.forward(positions, directions)
    assert cache is None
    assert sigma.dtype == np.float32 and rgb.dtype == np.float32
    # fp16 tables quantize features to ~1e-3 relative; INT8 MLP weights
    # add ~max|W|/254 per tap.  The untrained field's outputs are O(1),
    # so a loose absolute bound holds for both modes.
    assert np.max(np.abs(sigma - sigma64)) < 0.05
    assert np.max(np.abs(rgb - rgb64)) < 0.05
    assert np.array_equal(
        lowp.density(positions), lowp.forward(positions, directions)[0]
    )


def test_lowp_field_mode_and_source_validation():
    model = _model()
    with pytest.raises(ValueError):
        LowPrecisionField(model, mode="int4")
    with pytest.raises(ValueError):
        LowPrecisionField(model, mode="full")
    with pytest.raises(TypeError):
        LowPrecisionField(object())


def test_lowp_field_refresh_tracks_training():
    model = _model()
    lowp = LowPrecisionField(model, mode="fp16-int8")
    positions, directions = _samples()
    before, _, _ = lowp.forward(positions, directions)
    for value in model.parameters().values():
        value += 0.05
    # Stale snapshot: unchanged until refreshed, like weight SRAM.
    stale, _, _ = lowp.forward(positions, directions)
    assert np.array_equal(before, stale)
    lowp.refresh()
    refreshed, _, _ = lowp.forward(positions, directions)
    assert not np.array_equal(before, refreshed)
    assert np.array_equal(
        lowp.encoding.tables, model.encoding.tables.astype(np.float16)
    )


def test_lowp_field_storage_shrinks_with_mode():
    model = _model()
    fp16 = LowPrecisionField(model, mode="fp16")
    int8 = LowPrecisionField(model, mode="fp16-int8")
    full_bytes = model.n_parameters * 8
    assert int8.storage_bytes < fp16.storage_bytes < full_bytes
    # fp16 tables alone halve 8-byte masters four times over.
    assert fp16.encoding.tables.nbytes * 4 == model.encoding.tables.nbytes


def test_lowp_field_inference_only():
    model = _model()
    lowp = LowPrecisionField(model, mode="fp16")
    with pytest.raises(NotImplementedError):
        lowp.density_mlp.backward(None, None)
    with pytest.raises(NotImplementedError):
        lowp.encoding.backward(None, None)


# ----------------------------------------------------------------- INT8 MLP


def test_int8_mlp_quantization_contract():
    rng = np.random.default_rng(5)
    source = MLP([6, 8, 4], name="m", rng=rng)
    int8 = Int8MLP(source)
    ref = InferenceMLP(source)
    for codes, scale, w32, w_ref in zip(
        int8.codes, int8.scales, int8.weights, ref.weights
    ):
        assert codes.dtype == np.int8
        assert np.all(np.abs(codes.astype(np.int32)) <= 127)
        # Symmetric per-layer scale: dequantization error <= scale/2.
        assert np.max(np.abs(w32 - w_ref)) <= scale / 2 + 1e-7
    assert int8.storage_bytes == sum(w.size for w in ref.weights)
    x = rng.normal(size=(9, 6)).astype(np.float32)
    out, cache = int8.forward(x)
    assert cache is None
    assert out.dtype == np.float32
    assert np.max(np.abs(out - ref.forward(x)[0])) < 0.2


def test_int8_mlp_zero_layer_is_safe():
    source = MLP([4, 4], name="z", rng=np.random.default_rng(0))
    source.weights[0][...] = 0.0
    int8 = Int8MLP(source)
    assert int8.scales[0] == 1.0
    assert not int8.codes[0].any()
    out, _ = int8.forward(np.ones((2, 4), dtype=np.float32))
    assert np.all(np.isfinite(out))


# ------------------------------------------------- quantization edge cases


def test_quantize_int8_fixed_asymmetric_range():
    # Two's-complement Q3.4: -8.0 is exactly representable (-128 * 1/16)
    # while +8.0 saturates to the largest positive code, 127/16.
    assert quantize_int8_fixed(np.array([-8.0]))[0] == -8.0
    assert quantize_int8_fixed(np.array([8.0]))[0] == 127.0 / 16.0
    assert quantize_int8_fixed(np.array([-9.5]))[0] == -8.0
    with pytest.raises(ValueError):
        quantize_int8_fixed(np.array([1.0]), step=0.0)


def test_quantize_int8_subnormal_max_abs():
    # A tensor whose max magnitude is subnormal: max_abs/127 underflows
    # to zero and the values must pass through unchanged (no 0/0 NaN).
    values = np.array([5e-324, -5e-324, 0.0])
    out = quantize_int8(values)
    assert np.array_equal(out, values)
    assert np.all(np.isfinite(out))


def test_quantize_int8_round_trip_error_bound():
    rng = np.random.default_rng(11)
    values = rng.normal(size=257)
    out = quantize_int8(values)
    scale = np.abs(values).max() / 127.0
    assert np.max(np.abs(out - values)) <= scale / 2 + 1e-12


# ---------------------------------------------- renderer ERT validation


def test_render_entry_points_validate_ert_threshold():
    """The compositor range-checks ``ert_threshold`` where it is built, so
    every way of assembling a renderer rejects a bad one up front."""
    model = _model()
    origins = np.zeros((2, 3))
    directions = np.tile([0.0, 0.0, 1.0], (2, 1))
    for bad in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            pipeline.wrap_model(model, ert_threshold=bad)
        with pytest.raises(ValueError):
            pipeline.VolumeCompositor(bad)
    # None (ERT off) and in-range values remain accepted.
    for good in (None, 0.5):
        pipeline.wrap_model(model, ert_threshold=good).render_rays(
            origins, directions
        )


# ------------------------------------------------------- adaptive sampling


def test_adaptive_routes_and_bounds_color_error():
    model, batch = _opaque_batch()
    lowp = LowPrecisionField(model, mode="fp16-int8")
    from repro.nerf.volume_rendering import composite

    sigma, rgb, _ = model.forward(batch.positions, batch.directions)
    full = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    colors, stats = render_batch_adaptive(
        model, lowp, batch, threshold=1e-2, switch_threshold=0.5, round_size=4
    )
    assert stats.lowp_samples > 0
    assert stats.full_samples > 0
    assert stats.evaluated < stats.total_samples  # ERT actually skipped
    assert 0.0 < stats.lowp_fraction < 1.0
    # Tail truncation contributes <= threshold per channel; the
    # low-precision segments contribute their snapshot error on top.
    assert np.max(np.abs(colors - full.colors)) < 5e-2


def test_adaptive_selection_is_deterministic():
    model, batch = _opaque_batch()
    lowp = LowPrecisionField(model, mode="fp16-int8")
    runs = [
        render_batch_adaptive(
            model, lowp, batch,
            threshold=1e-2, switch_threshold=0.5, round_size=4,
        )
        for _ in range(2)
    ]
    assert np.array_equal(runs[0][0], runs[1][0])
    assert runs[0][1] == runs[1][1]


def test_adaptive_parameter_validation():
    model, batch = _opaque_batch()
    lowp = LowPrecisionField(model, mode="fp16")
    for kwargs in (
        {"threshold": 0.0},
        {"threshold": 1.0},
        {"switch_threshold": -0.1},
        {"switch_threshold": 1.0},
        {"round_size": 0},
    ):
        with pytest.raises(ValueError):
            render_batch_adaptive(model, lowp, batch, **kwargs)


# -------------------------------------------------- hierarchical occupancy


def test_hierarchical_occupancy_query_bit_identical():
    rng = np.random.default_rng(2)
    fine = OccupancyGrid(resolution=16)
    fine.mask[...] = rng.random(fine.mask.shape) < 0.1
    hier = HierarchicalOccupancy(fine, factor=4)
    points = rng.random((4_000, 3)) * 1.2 - 0.1  # includes out-of-cube
    assert np.array_equal(hier.query(points), fine.query(points))
    assert hier.resolution == fine.resolution
    # Max-pooling can only grow the occupied fraction.
    assert hier.coarse_occupancy_fraction >= hier.occupancy_fraction


def test_hierarchical_occupancy_tracks_fine_refresh():
    fine = OccupancyGrid(resolution=8)
    hier = HierarchicalOccupancy(fine, factor=2)
    fine.mask[...] = False
    hier.refresh()
    assert hier.coarse_occupancy_fraction == 0.0
    points = np.random.default_rng(0).random((64, 3))
    assert not hier.query(points).any()


def test_hierarchical_occupancy_validates_factor():
    fine = OccupancyGrid(resolution=8)
    with pytest.raises(ValueError):
        HierarchicalOccupancy(fine, factor=0)
    with pytest.raises(ValueError):
        HierarchicalOccupancy(fine, factor=3)  # 8 % 3 != 0


# ----------------------------------------------------------- precision gate


def test_precision_gate_passes_close_renders():
    rng = np.random.default_rng(4)
    gt = rng.random((8, 8, 3))
    full = np.clip(gt + rng.normal(scale=0.02, size=gt.shape), 0.0, 1.0)
    lowp = full + 1e-4
    report = PrecisionGate().evaluate(full, lowp, ground_truth=gt)
    assert report.passed
    assert report.agreement_db > 30.0
    assert abs(report.psnr_delta_db) < 1.0


def test_precision_gate_rejects_over_aggressive_config():
    # An over-aggressive adaptive config: terminating at T < 0.45 drops
    # visible energy, so agreement with the full render collapses below
    # the 30 dB floor and the gate must refuse the configuration.
    model, batch = _opaque_batch()
    lowp = LowPrecisionField(model, mode="fp16-int8")
    from repro.nerf.volume_rendering import composite

    sigma, rgb, _ = model.forward(batch.positions, batch.directions)
    full = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    ).colors
    aggressive, _ = render_batch_adaptive(
        model, lowp, batch, threshold=0.45, switch_threshold=0.9, round_size=1
    )
    report = PrecisionGate().evaluate(full, aggressive)
    assert not report.passed
    with pytest.raises(PrecisionBudgetError):
        PrecisionGate().check(full, aggressive, mode="fp16-int8+adaptive")


def test_precision_gate_budget_validation():
    with pytest.raises(ValueError):
        PrecisionGate(max_delta_db=-0.1)
    with pytest.raises(ValueError):
        PrecisionGate(min_agreement_db=0.0)
    # Delta budget: a mode that loses quality against ground truth fails
    # even when it agrees well with a mediocre full render.
    rng = np.random.default_rng(9)
    gt = rng.random((8, 8, 3))
    full = np.clip(gt + 0.01, 0.0, 1.0)
    lowp = np.clip(gt + 0.03, 0.0, 1.0)
    tight = PrecisionGate(max_delta_db=1.0, min_agreement_db=20.0)
    assert not tight.evaluate(full, lowp, ground_truth=gt).passed


# -------------------------------------------------------- pipeline wiring


def test_registry_builds_precision_renderer():
    renderer = pipeline.create(
        "ngp",
        config={
            "encoding": {
                "n_levels": 4,
                "n_features": 2,
                "log2_table_size": 10,
                "base_resolution": 4,
                "finest_resolution": 16,
            },
            "hidden_width": 16,
            "geo_features": 15,
            "max_samples": 16,
            "precision": "fp16-int8",
            "switch_threshold": 0.3,
        },
        seed=0,
    )
    assert renderer.precision == "fp16-int8"
    assert renderer.compositor.precision == "fp16-int8"
    assert renderer.compositor.lowp_field.source is renderer.field
    image = renderer.render_image(_camera(4), _normalizer())
    assert np.all(np.isfinite(image))
    assert pipeline.renderer_name_for(renderer.compositor.lowp_field) == "ngp"


def test_registry_rejects_switch_without_lowp_mode():
    with pytest.raises(ValueError):
        pipeline.create(
            "ngp",
            config={
                "encoding": {
                    "n_levels": 4,
                    "n_features": 2,
                    "log2_table_size": 10,
                    "base_resolution": 4,
                    "finest_resolution": 16,
                },
                "switch_threshold": 0.3,
            },
            seed=0,
        )


def test_registry_rejects_precision_on_vm_field():
    with pytest.raises(TypeError):
        pipeline.create(
            "tensorf",
            config={
                "resolution": 8,
                "n_components": 2,
                "precision": "fp16",
            },
            seed=0,
        )


def test_wrap_model_precision_matches_direct_snapshot():
    model = _model()
    occupancy = OccupancyGrid(resolution=8)
    camera = _camera(4)
    staged = pipeline.wrap_model(
        model,
        marcher=RayMarcher(SamplerConfig(max_samples=16)),
        occupancy=occupancy,
        precision="fp16",
    )
    assert staged.precision == "fp16"
    image = staged.render_image(camera, _normalizer())
    full = pipeline.wrap_model(
        model,
        marcher=RayMarcher(SamplerConfig(max_samples=16)),
        occupancy=occupancy,
    ).render_image(camera, _normalizer())
    assert PrecisionGate().evaluate(
        full.astype(np.float64), image.astype(np.float64)
    ).passed


# --------------------------------------------------------- serving wiring


def test_deploy_tags_lowp_model_precision():
    from repro.serve import SceneRegistry
    from repro.serve.loadgen import demo_model

    model = demo_model(seed=0)
    lowp = LowPrecisionField(model, mode="fp16-int8")
    registry = SceneRegistry()
    registry.deploy(
        "lowp-scene",
        model=lowp,
        occupancy=OccupancyGrid(resolution=8),
        normalizer=_normalizer(),
    )
    summary = registry.scenes()[0]
    assert summary["renderer"] == "ngp"  # resolved through the source
    assert summary["precision"] == "fp16-int8"
    handle = registry.acquire("lowp-scene")
    assert handle.renderer.precision == "fp16-int8"
    handle.release()


def test_service_keys_admission_on_precision():
    from repro.serve import (
        RenderService,
        SceneRegistry,
        ServiceConfig,
        demo_camera,
        run_closed_loop,
    )
    from repro.serve.loadgen import demo_model

    model = demo_model(seed=0)
    registry = SceneRegistry()
    registry.deploy(
        "scene-a",
        model=model,
        occupancy=OccupancyGrid(resolution=8),
        normalizer=_normalizer(),
    )
    registry.deploy(
        "scene-b",
        model=LowPrecisionField(model, mode="fp16"),
        occupancy=OccupancyGrid(resolution=8),
        normalizer=_normalizer(),
    )
    service = RenderService(registry, config=ServiceConfig())
    camera = demo_camera(8, 8)
    run_closed_loop(service, "scene-a", n_frames=2, camera=camera)
    run_closed_loop(service, "scene-b", n_frames=2, camera=camera)
    by_key = service.stats()["ewma_s_per_ray_by_key"]
    assert "scene-a/ngp/full" in by_key
    assert "scene-b/ngp/fp16" in by_key


# --------------------------------------------------------- fault tolerance


def test_fault_injection_composes_with_snapshot():
    model = _model()
    lowp = LowPrecisionField(model, mode="fp16-int8")
    positions, directions = _samples(64)
    before, _, _ = lowp.forward(positions, directions)
    applied = inject_model_faults(
        lowp,
        SramFaultConfig(hash_table_bit_flips=64, mlp_bit_flips=16),
        np.random.default_rng(0),
    )
    assert applied["hash_table_flips"] == 64
    assert applied["mlp_flips"] == 16
    # Flips land in the stored fp16 words; the float32 gather mirror is
    # rebuilt on refresh, exactly like a scrub cycle re-reading SRAM.
    lowp.encoding.refresh()
    after, _, _ = lowp.forward(positions, directions)
    assert not np.array_equal(before, after)
    assert model.encoding.tables.dtype == np.float64  # masters untouched
