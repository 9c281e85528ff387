"""Online reconstruction: capture, ingest, deploy gates, live sessions."""

import numpy as np
import pytest

from repro.datasets import (
    TRAJECTORIES,
    camera_on_sphere_poses,
    spherical_trajectory_poses,
    trajectory_poses,
)
from repro.online import (
    CaptureConfig,
    CaptureSession,
    Deployer,
    FrameStore,
    IncrementalTrainerLoop,
    IngestConfig,
    OnlineConfig,
    QualityGate,
    ReconstructionSession,
    clone_model,
    clone_occupancy,
)
from repro.serve.loadgen import demo_camera
from repro.serve.registry import SceneRegistry


# -- trajectories ----------------------------------------------------------


def test_cos_trajectory_replays_from_seed():
    a = trajectory_poses("cos", 6, 2.6, seed=3)
    b = trajectory_poses("cos", 6, 2.6, seed=3)
    other = trajectory_poses("cos", 6, 2.6, seed=4)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
    assert not all(np.array_equal(pa, po) for pa, po in zip(a, other))


def test_sof_trajectory_is_deterministic_spiral():
    a = spherical_trajectory_poses(5, 2.0)
    b = spherical_trajectory_poses(5, 2.0)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa, pb)
    # consecutive eyes stay close (a smooth orbit, not random jumps)
    eyes = [pose[:3, 3] for pose in spherical_trajectory_poses(16, 2.0)]
    gaps = [np.linalg.norm(e1 - e0) for e0, e1 in zip(eyes, eyes[1:])]
    assert max(gaps) < 1.0


def test_trajectory_poses_sit_on_the_sphere():
    for kind in TRAJECTORIES:
        for pose in trajectory_poses(kind, 4, 3.0, seed=1):
            assert np.linalg.norm(pose[:3, 3]) == pytest.approx(3.0)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        trajectory_poses("orbit", 4, 2.0)
    with pytest.raises(ValueError):
        camera_on_sphere_poses(0, 2.0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        spherical_trajectory_poses(0, 2.0)


# -- capture ---------------------------------------------------------------


def _capture_config(**kw):
    base = dict(
        scene="mic", n_frames=4, rate_hz=8.0, width=10, height=10, gt_steps=16
    )
    base.update(kw)
    return CaptureConfig(**base)


def test_capture_session_timestamps_on_the_virtual_clock():
    session = CaptureSession(_capture_config())
    frames = list(session.frames())
    assert [f.t_s for f in frames] == [0.125, 0.25, 0.375, 0.5]
    assert session.horizon_s == 0.5
    assert all(f.image.shape == (10, 10, 3) for f in frames)


def test_capture_session_replays_bit_exactly():
    a = list(CaptureSession(_capture_config()).frames())
    b = list(CaptureSession(_capture_config()).frames())
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.image, fb.image)
    reseeded = list(CaptureSession(_capture_config(seed=9)).frames())
    assert not all(
        np.array_equal(fa.image, fr.image) for fa, fr in zip(a, reseeded)
    )


def test_capture_config_validation():
    with pytest.raises(ValueError):
        CaptureConfig(n_frames=0)
    with pytest.raises(ValueError):
        CaptureConfig(rate_hz=0.0)


# -- ingest ----------------------------------------------------------------


def test_frame_store_routes_and_accounts():
    store = FrameStore(IngestConfig(holdout_every=3))
    session = CaptureSession(_capture_config(n_frames=7))
    routes = [store.add(frame) for frame in session.frames()]
    # index 0 always trains; indexes 3 and 6 are held out
    assert routes == [
        "train", "train", "train", "holdout", "train", "train", "holdout"
    ]
    accounting = store.accounting()
    assert accounting["ingested"] == 7
    assert accounting["train"] == 5 and accounting["holdout"] == 2
    assert accounting["unaccounted"] == 0
    cameras, images = store.holdout_arrays()
    assert len(cameras) == 2 and images.shape == (2, 10, 10, 3)


def test_frame_store_rejects_degenerate_split():
    with pytest.raises(ValueError):
        IngestConfig(holdout_every=1)
    with pytest.raises(ValueError):
        FrameStore().holdout_arrays()


# -- deployer --------------------------------------------------------------


def _loop_over(n_frames=6, steps=10):
    """A small trained loop plus its capture session."""
    capture = CaptureSession(_capture_config(n_frames=n_frames))
    store = FrameStore(IngestConfig(holdout_every=3))
    frames = iter(capture.frames())
    store.add(next(frames))
    from repro.nerf.hash_encoding import HashEncodingConfig
    from repro.nerf.model import InstantNGPModel, ModelConfig
    from repro.nerf.trainer import TrainerConfig

    model = InstantNGPModel(
        ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=2, log2_table_size=8,
                base_resolution=4, finest_resolution=16,
            ),
            hidden_width=16,
            geo_features=8,
        ),
        seed=0,
    )
    loop = IncrementalTrainerLoop(
        model,
        store,
        capture.normalizer,
        trainer_config=TrainerConfig(
            batch_rays=64, lr=5e-3, max_samples_per_ray=16,
            occupancy_resolution=16, occupancy_interval=8,
        ),
    )
    for frame in frames:
        loop.ingest(frame)
    loop.increment(steps)
    return loop, capture


def test_clones_are_frozen_copies():
    loop, _ = _loop_over()
    model = loop.trainer.model
    clone = clone_model(model)
    for key, value in model.parameters().items():
        assert np.array_equal(clone.parameters()[key], value)
        assert clone.parameters()[key] is not value
    grid = clone_occupancy(loop.trainer.occupancy)
    assert np.array_equal(grid.density_ema, loop.trainer.occupancy.density_ema)
    before = {k: v.copy() for k, v in clone.parameters().items()}
    loop.increment(3)  # keeps mutating the live model...
    for key, value in before.items():
        assert np.array_equal(clone.parameters()[key], value)  # ...not the clone


def test_quality_gate_floor_and_delta():
    registry = SceneRegistry()
    deployer = Deployer(
        registry, "mic",
        gate=QualityGate(target_psnr_db=20.0, deploy_floor_db=10.0,
                         min_delta_db=0.5),
    )
    assert not deployer.clears_gate(9.9)  # under the floor
    assert not deployer.clears_gate(float("nan"))
    assert deployer.clears_gate(10.5)
    loop, _ = _loop_over()
    deployer.deploy(loop.trainer, t_s=1.0, psnr_db=12.0)
    assert not deployer.clears_gate(12.2)  # improvement under min_delta
    assert deployer.clears_gate(12.5)
    assert deployer.time_to_target_s is None  # 12 dB < 20 dB target


def test_quality_gate_validation():
    with pytest.raises(ValueError):
        QualityGate(target_psnr_db=10.0, deploy_floor_db=12.0)
    with pytest.raises(ValueError):
        QualityGate(min_delta_db=-0.1)


def test_pinned_handle_stays_bit_identical_across_hot_swap():
    loop, capture = _loop_over()
    registry = SceneRegistry(max_samples_per_ray=16)
    camera = demo_camera(10, 10)
    deployer = Deployer(
        registry, "mic",
        gate=QualityGate(target_psnr_db=12.0, deploy_floor_db=0.0,
                         min_delta_db=0.0),
        reference_camera=camera,
        slice_rays=32,
        background=capture.scene.background,
    )
    first = deployer.deploy(loop.trainer, t_s=0.5, psnr_db=10.0)
    pinned = registry.acquire("mic")
    loop.increment(10)  # train on, then swap in the improved generation
    second = deployer.deploy(loop.trainer, t_s=1.0, psnr_db=11.0)
    assert second.generation == first.generation + 1
    assert pinned.generation == first.generation
    served = pinned.renderer.render_image(camera, pinned.normalizer, chunk=32)
    assert np.array_equal(served, deployer.reference_frames[first.generation])
    fresh = registry.acquire("mic")
    assert fresh.generation == second.generation
    assert np.array_equal(
        fresh.renderer.render_image(camera, fresh.normalizer, chunk=32),
        deployer.reference_frames[second.generation],
    )
    pinned.release()
    fresh.release()
    assert registry._retiring == []  # drained generation freed


def test_trainer_loop_requires_a_first_frame():
    store = FrameStore()
    with pytest.raises(ValueError):
        IncrementalTrainerLoop(object(), store, None)


# -- the session -----------------------------------------------------------


def _session_config(**kw):
    base = dict(
        capture=CaptureConfig(
            n_frames=8, rate_hz=8.0, width=12, height=12, gt_steps=24
        ),
        ingest=IngestConfig(holdout_every=3),
        gate=QualityGate(target_psnr_db=14.0, deploy_floor_db=8.0),
        steps_per_frame=8,
        eval_every_frames=2,
        batch_rays=128,
        serve_rate_hz=20.0,
        probe=12,
    )
    base.update(kw)
    return OnlineConfig(**base)


@pytest.fixture(scope="module")
def session_result():
    return ReconstructionSession(_session_config()).run()


def test_session_deploys_quality_gated_generations(session_result):
    result = session_result
    assert result.generations >= 2
    psnrs = [d["psnr_db"] for d in result.deployments]
    assert all(b > a for a, b in zip(psnrs, psnrs[1:]))  # gate: monotone
    assert result.time_to_target_s is not None
    assert result.time_to_target_s <= result.horizon_s
    gens = [d["generation"] for d in result.deployments]
    assert gens == list(range(1, len(gens) + 1))


def test_session_swap_proofs_span_and_match(session_result):
    proofs = session_result.swap_proofs
    assert len(proofs) == session_result.generations - 1
    for proof in proofs:
        assert proof["spanned_swap"]
        assert proof["bit_identical"]


def test_session_accounting_is_exact(session_result):
    accounting = session_result.accounting
    assert accounting["frames"]["unaccounted"] == 0
    assert accounting["requests"]["unaccounted"] == 0
    assert accounting["requests"]["offered"] > 0
    statuses = session_result.serve_stats["statuses"]
    assert sum(statuses.values()) == accounting["requests"]["terminal"]


def test_session_windows_cover_the_horizon(session_result):
    windows = session_result.windows
    assert windows[0]["t0_s"] == 0.0
    assert windows[-1]["t1_s"] >= session_result.horizon_s
    live = [w for w in windows if w["attainment"] is not None]
    assert live  # serving attainment measured *during* training
    assert all(0.0 <= w["attainment"] <= 1.0 for w in live)


def test_session_report_is_greppable(session_result):
    report = session_result.report()
    assert "online: deployed generation 1 psnr=" in report
    assert "unaccounted: 0" in report
    assert "slo window [" in report
    panel = session_result.ops_panel()
    assert panel["generations"] == session_result.generations
    assert panel["steps_total"] == session_result.steps_total
    assert len(panel["psnr_trend"]) == len(session_result.psnr_history)


def test_session_replays_bit_exactly_from_its_seed(session_result):
    replay = ReconstructionSession(_session_config()).run()
    assert replay.deployments == session_result.deployments
    assert replay.psnr_history == session_result.psnr_history
    assert replay.swap_proofs == session_result.swap_proofs
    assert replay.windows == session_result.windows
    assert (
        replay.serve_stats["completed"]
        == session_result.serve_stats["completed"]
    )
    assert replay.accounting == session_result.accounting


def test_session_with_different_seed_diverges(session_result):
    other = ReconstructionSession(_session_config(seed=5)).run()
    assert (
        other.psnr_history != session_result.psnr_history
        or other.deployments != session_result.deployments
    )
