"""The online reconstruction session: capture → train → hot-swap → serve.

:class:`ReconstructionSession` runs the paper's instant-reconstruction
story end to end on one shared virtual clock.  A synthetic capture
stream delivers posed frames at a fixed rate; between frames the trainer
advances a budgeted step increment under the divergence watchdog; at
checkpoints the held-out PSNR is evaluated and, when the quality gate
clears, the frozen snapshot hot-swaps into the serving registry — while
the render service keeps draining a Poisson viewer workload against
whichever generation each request pinned at admission.

Three properties the session proves about itself every run:

* **bit-identity across the swap** — at every hot-swap a proof request
  is admitted against the outgoing generation, exactly one batch is
  dispatched, the new generation deploys, and the service then finishes
  the proof from its pinned handle.  The completed frame must equal the
  outgoing generation's offline reference render bit-for-bit;
* **frame conservation** — every captured frame lands in exactly one of
  train/holdout, and every submitted request reaches exactly one
  terminal status (the report's ``unaccounted: 0`` lines);
* **replayability** — everything (trajectory, pixels, ray batches,
  arrivals) derives from the config's seeds on the virtual clock, so two
  runs of the same config produce bit-identical deployments, PSNR
  trajectories, and reference frames.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..nerf.hash_encoding import HashEncodingConfig
from ..nerf.model import InstantNGPModel, ModelConfig
from ..nerf.trainer import TrainerConfig
from ..robustness.faults import WatchdogConfig
from ..serve.batching import (
    PRIORITY_BATCH,
    PRIORITY_INTERACTIVE,
    RenderRequest,
)
from ..serve.loadgen import demo_camera, poisson_arrivals
from ..serve.registry import SceneRegistry
from ..serve.scheduler import BatchPolicy
from ..serve.service import RenderService, ServiceConfig
from .capture import CaptureConfig, CaptureSession
from .deployer import Deployer, QualityGate
from .ingest import FrameStore, IngestConfig
from .trainer_loop import IncrementalTrainerLoop

#: Request-id base of the swap-proof probes (keeps them distinguishable
#: from the viewer workload in ``service.responses``).
PROOF_ID_BASE = 1_000_000


@dataclass(frozen=True)
class OnlineConfig:
    """Everything one online reconstruction session depends on."""

    capture: CaptureConfig = field(default_factory=CaptureConfig)
    ingest: IngestConfig = field(default_factory=IngestConfig)
    gate: QualityGate = field(default_factory=QualityGate)
    #: Training steps per delivered frame (the incremental budget).
    steps_per_frame: int = 10
    #: Evaluate/maybe-deploy every this many frames (and at the last).
    eval_every_frames: int = 4
    # -- trainer ---------------------------------------------------------
    batch_rays: int = 256
    lr: float = 5e-3
    max_samples_per_ray: int = 32
    occupancy_resolution: int = 32
    occupancy_interval: int = 8
    # -- serving ---------------------------------------------------------
    #: Offered viewer request rate over the capture horizon.
    serve_rate_hz: float = 30.0
    #: Side of the square probe frames viewers request.
    probe: int = 12
    #: Hardware billing multiplier per probe frame (cf. serving_study).
    hw_scale: float = 200.0
    #: Serving slice granularity; also the swap-proof batch size, so it
    #: must leave a probe frame spanning several dispatches.
    slice_rays: int = 64
    #: Width of the SLO-attainment windows in the report.
    window_s: float = 0.5
    seed: int = 0


@dataclass
class SessionResult:
    """Everything a finished session proved and measured."""

    scene: str
    horizon_s: float
    deployments: list
    psnr_history: list
    target_psnr_db: float
    time_to_target_s: float
    swap_proofs: list
    windows: list
    serve_stats: dict
    slo: dict
    accounting: dict
    steps_total: int
    rollbacks: int

    @property
    def generations(self) -> int:
        """Generations that went live during the session."""
        return len(self.deployments)

    def ops_panel(self) -> dict:
        """The dashboard's online-reconstruction panel payload."""
        return {
            "scene": self.scene,
            "frames_ingested": self.accounting["frames"]["ingested"],
            "generations": self.generations,
            "psnr_trend": [p["psnr_db"] for p in self.psnr_history],
            "last_psnr_db": (
                self.psnr_history[-1]["psnr_db"] if self.psnr_history else None
            ),
            "target_psnr_db": self.target_psnr_db,
            "time_to_target_s": self.time_to_target_s,
            "steps_total": self.steps_total,
            "steps_per_s": (
                self.steps_total / self.horizon_s if self.horizon_s > 0 else 0.0
            ),
            "rollbacks": self.rollbacks,
        }

    def report(self) -> str:
        """The greppable session log (deploys, proofs, accounting, SLO)."""
        lines = [
            f"online session: scene={self.scene} "
            f"frames={self.accounting['frames']['ingested']} "
            f"horizon={self.horizon_s:.2f}s steps={self.steps_total}"
        ]
        for d in self.deployments:
            lines.append(
                f"online: deployed generation {d['generation']} "
                f"psnr={d['psnr_db']:.2f} at t={d['t_s']:.3f}"
            )
        if self.time_to_target_s is not None:
            lines.append(
                f"online: reached target {self.target_psnr_db:.1f} dB "
                f"at t={self.time_to_target_s:.3f}"
            )
        else:
            lines.append(
                f"online: target {self.target_psnr_db:.1f} dB not reached"
            )
        for proof in self.swap_proofs:
            lines.append(
                f"online swap proof: generation {proof['pinned_generation']} "
                f"-> {proof['swapped_to']} spanned={proof['spanned_swap']} "
                f"bit_identical={proof['bit_identical']}"
            )
        frames = self.accounting["frames"]
        lines.append(
            f"frame accounting: ingested {frames['ingested']} "
            f"train {frames['train']} holdout {frames['holdout']} "
            f"unaccounted: {frames['unaccounted']}"
        )
        requests = self.accounting["requests"]
        lines.append(
            f"request accounting: offered {requests['offered']} "
            f"terminal {requests['terminal']} "
            f"unaccounted: {requests['unaccounted']}"
        )
        for w in self.windows:
            att = (
                f"{w['attainment']:.2f}"
                if w["attainment"] is not None
                else "-"
            )
            lines.append(
                f"slo window [{w['t0_s']:.2f}, {w['t1_s']:.2f}): "
                f"completed {w['completed']} not-live {w['not_live']} "
                f"attainment {att}"
            )
        return "\n".join(lines)


class ReconstructionSession:
    """One live reconstruction run on the shared virtual clock."""

    def __init__(self, config: OnlineConfig = None):
        self.config = config or OnlineConfig()

    # -- construction helpers --------------------------------------------

    def _build_model(self) -> InstantNGPModel:
        """A compact hash-grid field sized for streaming-rate training."""
        config = ModelConfig(
            encoding=HashEncodingConfig(
                n_levels=4,
                n_features=2,
                log2_table_size=12,
                base_resolution=8,
                finest_resolution=64,
            ),
            hidden_width=32,
            geo_features=15,
        )
        return InstantNGPModel(config, seed=self.config.seed)

    def _trainer_config(self) -> TrainerConfig:
        cfg = self.config
        return TrainerConfig(
            batch_rays=cfg.batch_rays,
            lr=cfg.lr,
            max_samples_per_ray=cfg.max_samples_per_ray,
            occupancy_resolution=cfg.occupancy_resolution,
            occupancy_interval=cfg.occupancy_interval,
            seed=cfg.seed,
        )

    def _build_service(self, registry: SceneRegistry) -> RenderService:
        cfg = self.config
        return RenderService(
            registry,
            config=ServiceConfig(
                # One slice per dispatch: a probe frame spans several
                # batches, which is what lets a swap-proof request start
                # on one generation and finish after the hot-swap.
                batch=BatchPolicy(
                    slice_rays=cfg.slice_rays,
                    max_batch_rays=cfg.slice_rays,
                ),
            ),
        )

    def _viewer_requests(self, capture: CaptureSession, camera) -> list:
        cfg = self.config
        times = poisson_arrivals(
            cfg.serve_rate_hz,
            capture.horizon_s,
            np.random.default_rng(cfg.seed + 1),
        )
        return [
            RenderRequest(
                request_id=i,
                scene=cfg.capture.scene,
                camera=camera,
                arrival_s=float(t),
                priority=PRIORITY_INTERACTIVE,
                hw_scale=cfg.hw_scale,
            )
            for i, t in enumerate(times)
        ]

    # -- the run ---------------------------------------------------------

    def run(self) -> SessionResult:
        """Play the whole session; returns what it proved and measured."""
        cfg = self.config
        capture = CaptureSession(cfg.capture)
        store = FrameStore(cfg.ingest)
        registry = SceneRegistry(max_samples_per_ray=cfg.max_samples_per_ray)
        service = self._build_service(registry)
        camera = demo_camera(cfg.probe, cfg.probe)
        deployer = Deployer(
            registry,
            cfg.capture.scene,
            gate=cfg.gate,
            reference_camera=camera,
            slice_rays=cfg.slice_rays,
            background=capture.scene.background,
        )
        arrivals = self._viewer_requests(capture, camera)
        proof_frames = {}
        swap_proofs = []
        psnr_history = []
        loop = None
        arrival_idx = 0
        n_frames = cfg.capture.n_frames
        try:
            for frame in capture.frames():
                t = frame.t_s
                if loop is None:
                    store.add(frame)
                    loop = IncrementalTrainerLoop(
                        self._build_model(),
                        store,
                        capture.normalizer,
                        trainer_config=self._trainer_config(),
                        watchdog_config=WatchdogConfig(),
                    )
                    loop.watchdog.attach()
                else:
                    loop.ingest(frame)
                loop.increment(cfg.steps_per_frame)
                due_eval = (
                    (frame.index + 1) % cfg.eval_every_frames == 0
                    or frame.index == n_frames - 1
                )
                if due_eval and store.n_holdout >= 1:
                    psnr = loop.eval_holdout_psnr()
                    psnr_history.append(
                        {
                            "t_s": t,
                            "iteration": loop.trainer.state.iteration,
                            "psnr_db": psnr,
                        }
                    )
                    if deployer.clears_gate(psnr):
                        self._deploy_with_proof(
                            service,
                            deployer,
                            loop.trainer,
                            t,
                            psnr,
                            camera,
                            proof_frames,
                            swap_proofs,
                        )
                while (
                    arrival_idx < len(arrivals)
                    and arrivals[arrival_idx].arrival_s <= t
                ):
                    service.submit(arrivals[arrival_idx])
                    arrival_idx += 1
                service.run()
        finally:
            if loop is not None:
                loop.watchdog.detach()
        while arrival_idx < len(arrivals):
            service.submit(arrivals[arrival_idx])
            arrival_idx += 1
        service.run()
        self._check_proofs(deployer, proof_frames, swap_proofs, service)
        return self._result(
            capture,
            store,
            deployer,
            service,
            arrivals,
            swap_proofs,
            psnr_history,
            loop,
        )

    def _deploy_with_proof(
        self,
        service,
        deployer,
        trainer,
        t_s,
        psnr,
        camera,
        proof_frames,
        swap_proofs,
    ) -> None:
        """Hot-swap a cleared snapshot live, proving the swap is safe.

        For every generation after the first: admit a proof request
        against the *outgoing* generation (pinning its handle), dispatch
        exactly one batch so the request is provably in flight, then
        deploy.  The request finishes later from its pinned handle; the
        completed frame is checked against the outgoing generation's
        reference in :meth:`_check_proofs`.
        """
        outgoing = deployer.deployments[-1] if deployer.deployments else None
        pending = None
        if outgoing is not None:
            proof_id = PROOF_ID_BASE + outgoing.generation
            service.submit(
                RenderRequest(
                    request_id=proof_id,
                    scene=deployer.scene_name,
                    camera=camera,
                    arrival_s=service.now_s,
                    priority=PRIORITY_BATCH,
                    hw_scale=self.config.hw_scale,
                ),
                on_complete=lambda response: proof_frames.__setitem__(
                    response.request_id, response.frame
                ),
            )
            # The service is drained, so its clock's instant holds the
            # proof's arrival (admission pins the outgoing generation)
            # and the wake that dispatches its first slice; the rest
            # render after the deploy.
            service.run(until_s=service.now_s)
            pending = {
                "pinned_generation": outgoing.generation,
                "spanned_swap": proof_id not in service.responses,
            }
        deployment = deployer.deploy(trainer, t_s, psnr)
        if pending is not None:
            pending["swapped_to"] = deployment.generation
            swap_proofs.append(pending)

    def _check_proofs(
        self, deployer, proof_frames, swap_proofs, service
    ) -> None:
        """Compare each completed proof frame to its generation's reference."""
        for proof in swap_proofs:
            generation = proof["pinned_generation"]
            frame = proof_frames.get(PROOF_ID_BASE + generation)
            reference = deployer.reference_frames.get(generation)
            proof["bit_identical"] = (
                frame is not None
                and reference is not None
                and np.array_equal(frame, reference)
            )

    # -- reporting -------------------------------------------------------

    def _windows(self, service, arrivals) -> list:
        """Per-window interactive SLO attainment over the session."""
        cfg = self.config
        target = service.slo.targets[PRIORITY_INTERACTIVE].latency_s
        arrival_by_id = {r.request_id: r.arrival_s for r in arrivals}
        horizon = max(
            [cfg.capture.n_frames / cfg.capture.rate_hz]
            + [
                arrival_by_id[rid] + response.latency_s
                for rid, response in service.responses.items()
                if rid in arrival_by_id and response.latency_s is not None
            ]
        )
        n_windows = max(1, math.ceil(horizon / cfg.window_s))
        windows = [
            {
                "t0_s": i * cfg.window_s,
                "t1_s": (i + 1) * cfg.window_s,
                "arrived": 0,
                "completed": 0,
                "met": 0,
                "not_live": 0,
                "other": 0,
            }
            for i in range(n_windows)
        ]

        def _bucket(t):
            return windows[min(int(t / cfg.window_s), n_windows - 1)]

        for rid, arrival_s in arrival_by_id.items():
            response = service.responses.get(rid)
            if response is None:
                continue
            _bucket(arrival_s)["arrived"] += 1
            if response.completed:
                window = _bucket(arrival_s + response.latency_s)
                window["completed"] += 1
                if response.latency_s <= target:
                    window["met"] += 1
            elif response.status == "failed_unknown_scene":
                _bucket(arrival_s)["not_live"] += 1
            else:
                _bucket(arrival_s)["other"] += 1
        for window in windows:
            window["attainment"] = (
                window["met"] / window["completed"]
                if window["completed"]
                else None
            )
        return windows

    def _result(
        self,
        capture,
        store,
        deployer,
        service,
        arrivals,
        swap_proofs,
        psnr_history,
        loop,
    ) -> SessionResult:
        requests = service.accounting()
        return SessionResult(
            scene=self.config.capture.scene,
            horizon_s=capture.horizon_s,
            deployments=[d.row() for d in deployer.deployments],
            psnr_history=psnr_history,
            target_psnr_db=deployer.gate.target_psnr_db,
            time_to_target_s=deployer.time_to_target_s,
            swap_proofs=swap_proofs,
            windows=self._windows(service, arrivals),
            serve_stats=service.stats(),
            slo=service.slo.summary(),
            accounting={
                "frames": store.accounting(),
                "requests": {
                    "offered": requests["offered"],
                    "terminal": requests["offered"] - requests["unaccounted"],
                    "unaccounted": requests["unaccounted"],
                },
            },
            steps_total=loop.steps_total if loop is not None else 0,
            rollbacks=loop.rollbacks if loop is not None else 0,
        )
