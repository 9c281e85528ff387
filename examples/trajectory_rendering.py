"""Trajectory rendering: an orbiting camera over a trained field.

The AR/VR workload the paper motivates: reconstruct once, then render a
continuous camera path in real time.  This example

1. trains a field on the 'hotdog' scene and checkpoints it to disk (the
   ~10 MB-class payload the paper highlights as NeRF's deployment
   advantage);
2. reloads the checkpoint and renders an orbit of views, tracking the
   per-frame workload and the simulated chip FPS;
3. reports what early ray termination would additionally save per frame;
4. compares against the image-warping renderer (MetaVRain-style) at the
   orbit's angular velocity.

Run:  python examples/trajectory_rendering.py
"""

import numpy as np

from repro import Fusion3D
from repro.baselines import ImageWarpingModel, METAVRAIN
from repro.core.metrics import fps_from_throughput, ssim
from repro.datasets import synthetic
from repro.nerf.camera import Camera, sphere_poses
from repro.nerf.checkpoint import deployment_payload_bytes, load_model, save_model
from repro.nerf.early_termination import termination_stats
from repro.nerf.rays import generate_rays
from repro.nerf.volume_rendering import composite, psnr
from repro.sim.chip import ChipConfig, SingleChipAccelerator
from repro.sim.trace import trace_from_rays


def main() -> None:
    print("Reconstructing the 'hotdog' scene...")
    dataset = synthetic.make_dataset("hotdog", n_views=10, width=36, height=36)
    system = Fusion3D.single_chip()
    recon = system.reconstruct(dataset, iterations=150)
    print(f"  trained to {recon.psnr:.1f} dB PSNR")

    save_model(system.model, "hotdog_field.npz")
    payload = deployment_payload_bytes(system.model)
    print(f"  checkpointed to hotdog_field.npz "
          f"(deployment payload: {payload / 1e6:.2f} MB fp16)")
    model = load_model("hotdog_field.npz")
    trainer = system._trainer

    print("\nRendering an 8-view orbit from the reloaded checkpoint...")
    chip = SingleChipAccelerator(ChipConfig.scaled())
    orbit = sphere_poses(8, radius=2.6)
    fps_per_frame = []
    ert_savings = []
    for i, pose in enumerate(orbit):
        camera = Camera(width=36, height=36, focal=1.1 * 36, c2w=pose)
        rays = generate_rays(camera)
        origins, directions = dataset.normalizer.rays_to_unit(
            rays.origins, rays.directions
        )
        batch = trainer.marcher.sample(
            origins, directions, occupancy=trainer.occupancy
        )
        sigma, rgb, _ = model.forward(batch.positions, batch.directions)
        result = composite(
            sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
        )
        trace = trace_from_rays(
            origins, directions, trainer.occupancy, max_samples=48
        )
        report = chip.simulate(trace)
        fps = fps_from_throughput(report.samples_per_second)
        # ERT estimate at convergence: the analytic field is what a fully
        # trained (sharp) model approaches; short demo training stays too
        # soft to terminate much.
        world = dataset.normalizer.from_unit(batch.positions)
        sharp_sigma = dataset.scene.density(world) / dataset.normalizer.scale
        sharp = composite(
            sharp_sigma, rgb, batch.deltas, batch.ts, batch.ray_idx, batch.n_rays
        )
        ert = termination_stats(sharp, batch, threshold=1e-2)
        fps_per_frame.append(fps)
        ert_savings.append(ert.terminated_fraction)
        print(f"  frame {i}: {len(batch):6d} samples, "
              f"{fps:5.1f} FPS(800p-equiv), "
              f"ERT at convergence would skip {ert.terminated_fraction * 100:4.1f}%")

    # Quality check on a held-out dataset view using the reloaded model.
    from repro.pipeline import wrap_model

    view = wrap_model(
        model, marcher=trainer.marcher, occupancy=trainer.occupancy
    ).render_image(dataset.cameras[-1], dataset.normalizer)
    target = dataset.images[-1]
    print(f"\nReloaded-model quality: {psnr(view, target):.1f} dB PSNR, "
          f"{ssim(view, target):.3f} SSIM")

    # The orbit revisits 8 views per revolution; at 36 FPS that is a
    # 162 deg/s pan — compare the warping baseline at that speed.
    angular_velocity = 360.0 / 8 * 36.0 / 10.0  # ~162 deg/s scaled demo
    warping = ImageWarpingModel(
        raw_fps=fps_from_throughput(METAVRAIN.inference_mps * 1e6)
    )
    print(f"\nAt {angular_velocity:.0f} deg/s of camera motion:")
    print(f"  Fusion-3D full re-render: {np.mean(fps_per_frame):5.1f} FPS "
          "(motion-invariant)")
    print(f"  MetaVRain-style warping:  {warping.effective_fps(angular_velocity):5.1f} FPS "
          f"(overlap {warping.overlap_fraction(angular_velocity) * 100:.1f}%)")


if __name__ == "__main__":
    main()
