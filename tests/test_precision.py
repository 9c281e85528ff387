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
from repro.nerf.mlp import MLP
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.precision import (
    LowPrecisionField,
    PrecisionGate,
    quantize_int8_layer,
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


def _assert_float32_copy(snapshot, master):
    """Every stored value of ``snapshot`` is ``master``'s cast to float32."""
    stored = snapshot.parameters()
    for name, value in master.parameters().items():
        assert stored[name].dtype == np.float32, name
        assert np.array_equal(
            stored[name], value.astype(np.float32), equal_nan=True
        ), name


def test_default_path_bit_identical():
    """The full-precision default evaluates a float32 snapshot of the
    float64 master: one snapshot forward plus the exact composite, and
    the snapshot holds exactly ``master.astype(float32)``."""
    from repro.nerf.volume_rendering import composite

    model, batch = _opaque_batch(density_bias=None)
    staged = pipeline.wrap_model(model)
    assert staged.precision == "full"
    assert staged.field is model
    snapshot = staged.compositor.lowp_field
    assert isinstance(snapshot, LowPrecisionField)
    assert snapshot.mode == "full" and snapshot.precision == "full"
    _assert_float32_copy(snapshot, model)
    colors, live = staged.compositor.render(model, batch, 1.0)
    sigma, rgb, _ = snapshot.forward(batch.positions, batch.directions)
    assert sigma.dtype == np.float32
    expected = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    assert np.array_equal(colors, expected.colors)
    assert live == len(batch)


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
    assert cache.sigma is sigma
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
    # "full" is the unrounded float32 snapshot, tagged "full".
    assert LowPrecisionField(model, mode="full").precision == "full"
    with pytest.raises(TypeError):
        LowPrecisionField(object())


def test_lowp_field_refresh_tracks_training():
    model = _model()
    lowp = LowPrecisionField(model, mode="fp16-int8")
    positions, directions = _samples()
    before, _, _ = lowp.forward(positions, directions)
    for value in model.parameters().values():
        value += 0.05
    # Stale snapshot: unchanged by training, like weight SRAM.
    stale, _, _ = lowp.forward(positions, directions)
    assert np.array_equal(before, stale)
    # A new snapshot re-rounds the trained masters.
    fresh = LowPrecisionField(model, mode="fp16-int8")
    refreshed, _, _ = fresh.forward(positions, directions)
    assert not np.array_equal(before, refreshed)
    assert np.array_equal(
        fresh.encoding.tables,
        model.encoding.tables.astype(np.float16).astype(np.float32),
    )


def test_lowp_field_storage_shrinks_with_mode():
    model = _model()
    fp16 = LowPrecisionField(model, mode="fp16")
    int8 = LowPrecisionField(model, mode="fp16-int8")
    full_bytes = model.n_parameters * 8
    assert int8.storage_bytes < fp16.storage_bytes < full_bytes
    # 2 B per table entry; 4 B (fp16) or 1 B (INT8) per weight; 4 B per
    # bias.  4 levels x 2**10 entries x 2 features; MLP widths
    # 8-16-15 and 24-16-16-3.
    tables = 4 * 1024 * 2
    weights = 8 * 16 + 16 * 15 + 24 * 16 + 16 * 16 + 16 * 3
    biases = 16 + 15 + 16 + 16 + 3
    assert fp16.storage_bytes == 2 * tables + 4 * weights + 4 * biases
    assert int8.storage_bytes == 2 * tables + 1 * weights + 4 * biases


def test_lowp_field_backward_runs_in_float32():
    """A snapshot trains: its forward keeps the cache, and its backward
    takes float64 upstream gradients in float32 and returns float32 MLP
    gradients (the hash-table scatter accumulates in float64)."""
    model = _model()
    lowp = LowPrecisionField(model, mode="full")
    positions, directions = _samples(8)
    _, _, cache = lowp.forward(positions, directions)
    grads = lowp.backward(np.ones(8), np.ones((8, 3)), cache)
    assert grads.keys() == model.parameters().keys()
    assert grads["hash_tables"].dtype == np.float64
    assert all(
        grad.dtype == np.float32
        for name, grad in grads.items()
        if name != "hash_tables"
    )
    assert all(np.isfinite(grad).all() for grad in grads.values())


def test_save_refuses_snapshot_field(tmp_path):
    """A snapshot is an InstantNGPModel by type; saving it as an ngp
    archive would reload as a float64 master, so the save refuses."""
    renderer = pipeline.wrap_model(LowPrecisionField(_model(), mode="fp16"))
    assert renderer.precision == "fp16"
    with pytest.raises(TypeError, match="LowPrecisionField"):
        renderer.save(tmp_path / "snapshot.npz", normalizer=_normalizer())
    assert not (tmp_path / "snapshot.npz").exists()


# ----------------------------------------------------------------- INT8 MLP


def _float32_mlp(source, weights):
    """An MLP shaped like ``source`` holding float32 ``weights``."""
    mlp = MLP(source.widths, source.activations, name=source.name)
    mlp.weights = weights
    mlp.biases = [b.astype(np.float32) for b in source.biases]
    return mlp


def test_int8_mlp_quantization_contract():
    rng = np.random.default_rng(5)
    source = MLP([6, 8, 4], name="m", rng=rng)
    exact = [w.astype(np.float32) for w in source.weights]
    dequantized = []
    for w32 in exact:
        codes, scale = quantize_int8_layer(w32)
        assert codes.dtype == np.int8 and codes.shape == w32.shape
        assert np.all(np.abs(codes.astype(np.int32)) <= 127)
        w8 = codes.astype(np.float32) * np.float32(scale)
        # Symmetric per-layer scale: dequantization error <= scale/2.
        assert np.max(np.abs(w8 - w32)) <= scale / 2 + 1e-7
        dequantized.append(w8)
    x = rng.normal(size=(9, 6)).astype(np.float32)
    out, _ = _float32_mlp(source, dequantized).forward(x)
    ref, _ = _float32_mlp(source, exact).forward(x)
    assert out.dtype == np.float32
    assert np.max(np.abs(out - ref)) < 0.2


def test_int8_mlp_zero_layer_is_safe():
    source = MLP([4, 4], name="z", rng=np.random.default_rng(0))
    source.weights[0][...] = 0.0
    codes, scale = quantize_int8_layer(source.weights[0].astype(np.float32))
    assert scale == 1.0
    assert not codes.any()
    w8 = codes.astype(np.float32) * np.float32(scale)
    out, _ = _float32_mlp(source, [w8]).forward(np.ones((2, 4), dtype=np.float32))
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
    evaluated = stats.full_samples + stats.lowp_samples
    assert evaluated < stats.total_samples  # ERT actually skipped
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
    lowp = renderer.compositor.lowp_field
    assert isinstance(lowp, LowPrecisionField) and lowp is not renderer.field
    assert np.array_equal(
        lowp.encoding.tables,
        renderer.field.encoding.tables.astype(np.float16).astype(np.float32),
    )
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
    occupancy = OccupancyGrid(resolution=8)
    registry = SceneRegistry()
    registry.deploy(
        "lowp-scene",
        model=lowp,
        occupancy=occupancy,
        normalizer=_normalizer(),
    )
    summary = registry.scenes()[0]
    assert summary["renderer"] == "ngp"  # a snapshot is an InstantNGPModel
    assert summary["precision"] == "fp16-int8"
    # Priced at its stored width, not at the float32 it computes in.
    assert summary["bytes"] == (
        lowp.storage_bytes + occupancy.density_ema.nbytes + occupancy.mask.nbytes
    )
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
        lowp, SramFaultConfig(hash_table_bit_flips=64), np.random.default_rng(0)
    )
    assert applied == {"hash_table_flips": 64, "mlp_flips": 0}
    # Table flips land in the stored values that forward reads.
    flipped_tables, _, _ = lowp.forward(positions, directions)
    assert not np.array_equal(before, flipped_tables)
    applied = inject_model_faults(
        lowp, SramFaultConfig(mlp_bit_flips=16), np.random.default_rng(1)
    )
    assert applied == {"hash_table_flips": 0, "mlp_flips": 16}
    after, _, _ = lowp.forward(positions, directions)
    assert not np.array_equal(flipped_tables, after)
    assert model.encoding.tables.dtype == np.float64  # masters untouched


@pytest.mark.parametrize("mode", ["full", "fp16", "fp16-int8"])
def test_snapshot_tables_are_feature_major_and_flips_reach_render(mode):
    """The snapshot stores its tables as one C-contiguous ``(F, L*T)``
    float32 array seen through an ``(L, T, F)`` view, so the Stage II
    gather copies nothing; in-place writers (SRAM flips) write through
    the view into the store the render reads."""
    model = _model()
    renderer = pipeline.wrap_model(model, precision=mode)
    lowp = renderer.compositor.lowp_field
    tables = lowp.encoding.tables
    n_levels, table_size, n_features = tables.shape
    store = tables.base
    assert store.shape == (n_features, n_levels * table_size)
    assert store.dtype == np.float32 and store.flags.c_contiguous
    gather_table = np.ascontiguousarray(tables.reshape(-1, n_features).T)
    assert np.shares_memory(gather_table, store)
    assert model.encoding.tables.flags.c_contiguous  # masters keep theirs
    before = renderer.render_image(_camera(), _normalizer())
    inject_model_faults(
        lowp, SramFaultConfig(hash_table_bit_flips=64), np.random.default_rng(0)
    )
    assert lowp.encoding.tables.base is store
    after = renderer.render_image(_camera(), _normalizer())
    assert not np.array_equal(before, after)


def test_fp16_flips_stay_fp16_words_in_snapshot_store():
    """Dense table flips (signalling NaNs among them) widen exactly into
    the snapshot's float32 store: every entry is still an fp16 word."""
    lowp = LowPrecisionField(_model(), mode="fp16")
    tables = lowp.encoding.tables
    # fp16 0x7801: flipping exponent bit 10 gives signalling NaN 0x7c01.
    tables[...] = 32784.0
    clean = tables.copy()
    inject_model_faults(
        lowp,
        SramFaultConfig(hash_table_bit_flips=20_000),
        np.random.default_rng(2),
    )
    assert tables.dtype == np.float32 and lowp.encoding.tables is tables
    assert np.isnan(tables).any()
    assert np.array_equal(
        tables, tables.astype(np.float16).astype(np.float32), equal_nan=True
    )
    assert (tables != clean).sum() > tables.size // 2


# ------------------------------------------------ float32 inference datapath


@pytest.mark.parametrize("name", ["hash_tables", "density.w0", "color.b1"])
def test_out_of_range_master_fails_loudly(name):
    """A finite master value beyond float32 range cannot be snapshotted:
    ``ValueError`` naming the parameter, not an overflow-to-inf cast."""
    import warnings

    model = _model()
    model.parameters()[name].reshape(-1)[3] = -1e39
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=name):
            pipeline.wrap_model(model)
        with pytest.raises(ValueError, match=name):
            LowPrecisionField(model, mode="fp16")


@pytest.mark.parametrize("poison", [np.nan, np.inf, -np.inf])
def test_poisoned_master_snapshots_without_warning(poison):
    """NaN and inf cast to float32 as they are, so a fault-injected
    master still wraps (and renders its poison for the scrub path)."""
    import warnings

    model = _model()
    params = model.parameters()
    params["hash_tables"].reshape(-1)[:64] = poison
    params["density.w0"][0, :] = poison
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        renderer = pipeline.wrap_model(model)
    snapshot = renderer.compositor.lowp_field
    assert snapshot.precision == "full"
    _assert_float32_copy(snapshot, model)
    stored = snapshot.parameters()
    assert not np.isfinite(stored["hash_tables"].reshape(-1)[:64]).any()
    assert not np.isfinite(stored["density.w0"][0]).any()


def test_wrapping_a_snapshot_keeps_its_tag():
    """An fp16 snapshot wrapped as the field is evaluated as it is: it
    keeps its ``"fp16"`` tag and is not snapshotted again."""
    from repro.nerf.volume_rendering import composite

    lowp = LowPrecisionField(_model(), mode="fp16")
    renderer = pipeline.wrap_model(lowp)
    assert renderer.precision == "fp16"
    assert renderer.compositor.lowp_field is None
    assert renderer.field is lowp
    _, batch = _opaque_batch(density_bias=None)
    colors, _ = renderer.compositor.render(lowp, batch, 1.0)
    sigma, rgb, _ = lowp.forward(batch.positions, batch.directions)
    expected = composite(
        sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
    )
    assert np.array_equal(colors, expected.colors)


def test_only_plain_ngp_models_are_snapshotted():
    """TensoRF and dense fields have no float32 snapshot, and neither
    has a subclass with its own forward; ``"full"`` stays ``"full"``."""
    from repro.nerf.tensorf import TensoRFConfig, TensoRFModel

    class Shifted(InstantNGPModel):
        def forward(self, positions, directions):
            sigma, rgb, cache = super().forward(positions, directions)
            return sigma + 1.0, rgb, cache

    vm = TensoRFModel(TensoRFConfig(resolution=8, n_components=2, hidden_width=16))
    shifted = Shifted(_model().config)
    for field in (vm, shifted):
        renderer = pipeline.wrap_model(field)
        assert renderer.compositor.lowp_field is None
        assert renderer.precision == "full"
    with pytest.raises(ValueError):
        pipeline.wrap_model(_model(), switch_threshold=0.3)


def _trained_scene(scene: str, seed: int):
    """A briefly trained tiny field on one synthetic scene."""
    from repro.datasets import synthetic
    from repro.nerf.trainer import Trainer, TrainerConfig

    dataset = synthetic.make_dataset(
        scene, n_views=3, width=12, height=12, gt_steps=24
    )
    trainer = Trainer(
        _model(seed=seed),
        dataset.cameras,
        dataset.images,
        dataset.normalizer,
        TrainerConfig(
            batch_rays=128,
            max_samples_per_ray=16,
            occupancy_resolution=8,
            occupancy_interval=4,
            seed=seed,
        ),
    )
    trainer.train_steps(12)
    return trainer, dataset


@pytest.mark.parametrize("scene,seed", [("mic", 0), ("ship", 1), ("lego", 2)])
def test_float32_snapshot_passes_the_gate(scene, seed):
    """Over scenes and stage configs the float32 default agrees with a
    directly built float64 renderer at or above the gate's floor, and
    within its PSNR-delta budget against ground truth."""
    from repro.pipeline.renderer import Renderer
    from repro.pipeline.stages import OccupancySampler, VolumeCompositor

    trainer, dataset = _trained_scene(scene, seed)
    gate = PrecisionGate()
    camera, target = dataset.cameras[-1], dataset.images[-1]
    for ert in (None, 1e-3):
        marcher = RayMarcher(SamplerConfig(max_samples=16))
        master = Renderer(
            "ngp",
            trainer.model,
            sampler=OccupancySampler(marcher, trainer.occupancy),
            compositor=VolumeCompositor(ert),
        )
        default = pipeline.wrap_model(
            trainer.model,
            marcher=marcher,
            occupancy=trainer.occupancy,
            ert_threshold=ert,
        )
        assert master.compositor.lowp_field is None
        assert default.compositor.lowp_field.precision == "full"
        full = master.render_image(camera, dataset.normalizer)
        narrow = default.render_image(camera, dataset.normalizer)
        report = gate.evaluate(
            full.astype(np.float64),
            narrow.astype(np.float64),
            ground_truth=target,
        )
        assert report.passed, (scene, ert, report)
        assert report.agreement_db >= gate.min_agreement_db
