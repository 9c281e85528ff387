"""Fixed-tile field evaluation (``FIELD_TILE``) against one-shot calls.

Every inference caller of ``field.forward`` / ``density`` evaluates the
field in :data:`~repro.nerf.volume_rendering.FIELD_TILE`-sample tiles.
A seeded sweep over batch sizes around the tile boundary, three fields
and the three compositor regimes checks that tiling changes no sigma,
no encoding feature and no occupancy grid, and moves colors by no more
than BLAS rounding.
"""

import numpy as np
import pytest

from repro.nerf import volume_rendering
from repro.nerf.hash_encoding import HashEncodingConfig
from repro.nerf.model import InstantNGPModel, ModelConfig
from repro.nerf.occupancy import OccupancyGrid
from repro.nerf.precision import LowPrecisionField
from repro.nerf.sampling import SampleBatch
from repro.nerf.tensorf import TensoRFConfig, TensoRFModel
from repro.nerf.volume_rendering import FIELD_TILE, composite, evaluate_in_tiles
from repro.pipeline.stages import VolumeCompositor

T = FIELD_TILE
SIZES = (1, T - 1, T, T + 1, 3 * T + 7)
FIELDS = ("ngp", "tensorf", "fp16")
REGIMES = ("full", "ert", "adaptive")
#: Tiling leaves every row's arithmetic alone, but OpenBLAS picks its
#: dgemm kernel by M*N*K (a small-matrix path below about 1e6), so a
#: tile's matmul can take a different kernel from the whole batch's.
#: Sigma and the encoding come out bit-identical; the 3-wide color head
#: rounds differently on the two kernels, by a few ulp.
COLOR_ATOL = 1e-12


def _ngp(seed=0):
    return InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=4,
                n_features=2,
                log2_table_size=10,
                base_resolution=4,
                finest_resolution=32,
            ),
            hidden_width=32,
            geo_features=15,
            # Opaque enough that ERT terminates and the adaptive switch
            # fires inside the sweep's short rays.
            density_bias=2.0,
        ),
        seed=seed,
    )


@pytest.fixture(scope="module")
def fields():
    ngp = _ngp()
    tensorf = TensoRFModel(
        TensoRFConfig(
            resolution=8, n_components=2, hidden_width=16, density_bias=2.0
        ),
        seed=1,
    )
    return {"ngp": ngp, "tensorf": tensorf, "fp16": LowPrecisionField(ngp, "fp16")}


def _batch(n, seed, samples_per_ray=4):
    """``n`` samples on rays of ``samples_per_ray`` (the last ray shorter)."""
    rng = np.random.default_rng(seed)
    directions = rng.normal(size=(n, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    ray_idx = np.arange(n) // samples_per_ray
    return SampleBatch(
        positions=rng.uniform(0.0, 1.0, size=(n, 3)),
        directions=directions,
        deltas=rng.uniform(0.01, 0.2, size=n),
        ts=np.arange(n, dtype=np.float64) % samples_per_ray * 0.1,
        ray_idx=ray_idx,
        n_rays=int(ray_idx[-1]) + 1,
        candidates=n,
    )


def _compositor(regime, lowp):
    if regime == "full":
        return VolumeCompositor()
    if regime == "ert":
        return VolumeCompositor(ert_threshold=1e-3)
    # Two samples per round on four-sample rays: the second round's
    # low-precision evaluation spans about as many samples as the first
    # round's full one.
    return VolumeCompositor(lowp_field=lowp, switch_threshold=0.9, round_size=2)


class _Recorder:
    """Wraps a bound method, keeping every call's first output."""

    def __init__(self, method):
        self.method = method
        self.outputs = []

    def __call__(self, *args):
        out = self.method(*args)
        self.outputs.append(out[0])
        return out


@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("n", SIZES)
def test_tiled_forward_matches_one_shot(fields, name, n, monkeypatch):
    field = fields[name]
    batch = _batch(n, seed=n)
    sigma_ref, rgb_ref, _ = field.forward(batch.positions, batch.directions)
    positions = batch.positions
    if name == "fp16":  # the snapshot casts to float32 before encoding
        positions = positions.astype(np.float32)
    features_ref, _ = field.encoding.forward(positions)
    encode = _Recorder(field.encoding.forward)
    monkeypatch.setattr(field.encoding, "forward", encode)
    sigma, rgb = evaluate_in_tiles(
        lambda p, d: field.forward(p, d)[:2], batch.positions, batch.directions
    )
    assert len(encode.outputs) == -(-n // T)
    np.testing.assert_array_equal(np.concatenate(encode.outputs), features_ref)
    assert sigma.dtype == rgb.dtype == np.float64
    np.testing.assert_array_equal(sigma, sigma_ref)
    np.testing.assert_allclose(rgb, rgb_ref, rtol=0.0, atol=COLOR_ATOL)


@pytest.mark.parametrize("regime", REGIMES)
@pytest.mark.parametrize("name", FIELDS)
@pytest.mark.parametrize("n", SIZES)
def test_compositor_regimes_match_one_shot(fields, name, regime, n, monkeypatch):
    field = fields[name]
    batch = _batch(n, seed=1000 + n)
    compositor = _compositor(regime, fields["fp16"])
    calls = _Recorder(field.forward)
    monkeypatch.setattr(field, "forward", calls)
    colors, live = compositor.render(field, batch, background=1.0)
    monkeypatch.undo()
    if regime == "full":
        assert len(calls.outputs) == -(-n // T)
        sigma, rgb, _ = field.forward(batch.positions, batch.directions)
        reference = composite(
            sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
        )
        assert live == n
        expected = reference.colors
    else:
        assert 0 <= live <= n
        # The one-shot reference: the same round loop with one call per
        # round, however many samples the round holds.
        monkeypatch.setattr(volume_rendering, "FIELD_TILE", 10 * n)
        expected, _ = compositor.render(field, batch, background=1.0)
    np.testing.assert_allclose(colors, expected, rtol=0.0, atol=COLOR_ATOL)


def test_adaptive_sweep_splits_rounds_across_tiles(fields):
    """The adaptive regime's rounds are wide enough to cross tiles."""
    batch = _batch(3 * T + 7, seed=7)
    lowp = fields["fp16"]
    compositor = _compositor("adaptive", lowp)
    calls = _Recorder(lowp.forward)
    lowp.forward = calls
    try:
        compositor.render(fields["ngp"], batch, background=1.0)
    finally:
        del lowp.forward
    widths = [len(sigma) for sigma in calls.outputs]
    assert max(widths) == T and len(widths) > 1


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("resolution", [8, 16, 32])
def test_tiled_occupancy_refresh_matches_untiled_query(seed, resolution):
    model = _ngp(seed)
    probe = np.random.default_rng(seed + 100).uniform(size=(512, 3))
    # A median threshold, so both masks are mixed, not all-occupied.
    threshold = float(np.median(model.density(probe)))
    tiled = OccupancyGrid(resolution=resolution, threshold=threshold)
    untiled = OccupancyGrid(resolution=resolution, threshold=threshold)
    tiled_rng = np.random.default_rng(seed)
    untiled_rng = np.random.default_rng(seed)
    r = resolution
    base = (
        np.stack(np.meshgrid(*([np.arange(r)] * 3), indexing="ij"), axis=-1)
        .reshape(-1, 3)
        .astype(np.float64)
    )
    for _ in range(2):
        tiled.refresh_from_density(model.density, tiled_rng)
        points = (base + untiled_rng.uniform(0.0, 1.0, size=base.shape)) / r
        untiled.update(points, model.density(points))
        if not untiled.mask.any():
            untiled.mask[:] = True
        np.testing.assert_array_equal(tiled.density_ema, untiled.density_ema)
        np.testing.assert_array_equal(tiled.mask, untiled.mask)
        assert 0.0 < tiled.occupancy_fraction < 1.0
    assert tiled_rng.uniform() == untiled_rng.uniform()


def test_empty_grid_refresh_keeps_every_cell():
    grid = OccupancyGrid(resolution=4, threshold=1.0)
    grid.refresh_from_density(
        lambda p: np.zeros(len(p)), np.random.default_rng(0)
    )
    assert grid.mask.all()
