"""Per-scene cost models fitted from recorded telemetry.

The paper's provisioning argument — how many chips a workload needs —
starts from *measured* per-scene cost: seconds of board time per ray,
cycles per sample per pipeline module, and the samples-per-ray
distribution the occupancy grid actually produces.  FlexNeRFer's
observation (PAPERS.md) is that these vary strongly with scene sparsity,
so they must be fitted from telemetry rather than assumed.

This module turns recorded telemetry into a :class:`SceneCostModel`:

* each profiled run yields one :class:`CostObservation`, extracted from
  a service's operational stats plus the run's metrics snapshot
  (:func:`observation_from_run`);
* :func:`fit_cost_model` aggregates repeated runs into per-quantity
  :class:`FittedStat` means with Student-t 95% confidence intervals;
* the model serializes to a stable on-disk JSON schema
  (:data:`SCHEMA_VERSION`, :meth:`SceneCostModel.save` /
  :meth:`SceneCostModel.load`) consumed by the capacity planner
  (:mod:`repro.obs.planner`) and the ``runner plan`` CLI.

:func:`profile_demo_scene` is the batteries-included driver: it runs the
real serving stack (:mod:`repro.serve`) over a demo scene several times
under telemetry and fits the model from what was recorded.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

#: On-disk schema version of :meth:`SceneCostModel.to_payload`.
SCHEMA_VERSION = 1

#: Two-sided Student-t 97.5% critical values by degrees of freedom
#: (df >= 30 uses the normal approximation) — enough for the handful of
#: repeated profiling runs a cost model is fitted from.
_T_975 = {
    1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571, 6: 2.447,
    7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228, 15: 2.131, 20: 2.086,
    25: 2.060, 30: 1.960,
}


def _t_critical(df: int) -> float:
    """Two-sided 95% Student-t critical value for ``df`` degrees of freedom."""
    if df <= 0:
        return float("inf")
    for bound in sorted(_T_975):
        if df <= bound:
            return _T_975[bound]
    return _T_975[30]


@dataclass(frozen=True)
class FittedStat:
    """Mean and spread of one repeated-run cost measurement.

    ``ci95`` is the half-width of the 95% confidence interval of the
    mean (Student-t over ``n`` runs); a single run reports ``ci95=0.0``
    with ``n=1`` — the spread is simply unknown, and consumers can read
    ``n`` to tell "tight" from "unmeasured".
    """

    mean: float
    ci95: float
    n: int
    values: tuple = ()

    @classmethod
    def fit(cls, values) -> "FittedStat":
        """Fit mean + CI from repeated measurements of one quantity."""
        values = tuple(float(v) for v in values)
        if not values:
            raise ValueError("cannot fit a statistic from zero runs")
        n = len(values)
        mean = sum(values) / n
        if n == 1:
            return cls(mean=mean, ci95=0.0, n=1, values=values)
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        sem = math.sqrt(var / n)
        return cls(
            mean=mean, ci95=_t_critical(n - 1) * sem, n=n, values=values
        )

    def to_payload(self) -> dict:
        """JSON-safe dict form (stable keys: mean/ci95/n/values)."""
        return {
            "mean": self.mean,
            "ci95": self.ci95,
            "n": self.n,
            "values": list(self.values),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "FittedStat":
        """Rebuild from a :meth:`to_payload` dict."""
        return cls(
            mean=float(payload["mean"]),
            ci95=float(payload["ci95"]),
            n=int(payload["n"]),
            values=tuple(payload.get("values", ())),
        )


@dataclass
class CostObservation:
    """Raw cost measurements of one profiled run.

    ``rays`` and ``sim_busy_s`` are the load-bearing pair (their ratio
    is the simulated seconds-per-ray the planner provisions from);
    everything else enriches the model when available and degrades to
    ``None``/empty when the telemetry source did not record it.
    """

    #: Rays dispatched to the board over the run.
    rays: float
    #: Simulated board-busy seconds over the run.
    sim_busy_s: float
    #: Samples kept by the ray marcher (occupancy-gated).
    samples: float = None
    #: Per-module simulated cycle totals (``sim.<module>.cycles``).
    module_cycles: dict = field(default_factory=dict)
    #: ``sampler.samples_per_ray`` histogram summary of the run.
    samples_per_ray: dict = None
    #: Measured per-request latency beyond pure board time at low load
    #: (typical completed latency minus the frame's board cost) —
    #: dominated by the batch scheduler's coalescing ``max_wait_s``.
    overhead_s: float = None

    @property
    def sim_s_per_ray(self) -> float:
        """Simulated board seconds per dispatched ray."""
        if self.rays <= 0:
            raise ValueError("observation saw no dispatched rays")
        return self.sim_busy_s / self.rays


def observation_from_run(stats: dict, snapshot: dict) -> CostObservation:
    """Extract one :class:`CostObservation` from a recorded serving run.

    ``stats`` is :meth:`repro.serve.RenderService.stats`; ``snapshot`` a
    :meth:`~repro.telemetry.metrics.MetricsRegistry.snapshot` taken at
    the end of the run.
    """
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    batch_rays = histograms.get("serve.batch.rays", {})
    rays = float(batch_rays.get("sum", 0.0))
    module_cycles = {}
    for name, value in counters.items():
        if name.startswith("sim.") and name.endswith(".cycles"):
            module = name[len("sim."):-len(".cycles")]
            if module != "total":
                module_cycles[module] = float(value)
    samples = counters.get("sampler.kept")
    return CostObservation(
        rays=rays,
        sim_busy_s=float(stats.get("hardware_busy_s", 0.0)),
        samples=float(samples) if samples is not None else None,
        module_cycles=module_cycles,
        samples_per_ray=histograms.get("sampler.samples_per_ray") or None,
    )


def _merge_hist_summaries(summaries) -> dict:
    """Count-weighted merge of ``samples_per_ray`` histogram summaries."""
    merged = None
    for summ in summaries:
        if not summ:
            continue
        if merged is None:
            merged = dict(summ)
            continue
        n_old, n_new = merged["count"], summ["count"]
        total = n_old + n_new
        for quantile in ("p50", "p95", "p99"):
            merged[quantile] = (
                (merged[quantile] * n_old + summ[quantile] * n_new) / total
                if total else 0.0
            )
        merged["count"] = total
        merged["sum"] = merged["sum"] + summ["sum"]
        merged["mean"] = merged["sum"] / total if total else 0.0
        merged["min"] = min(merged["min"], summ["min"])
        merged["max"] = max(merged["max"], summ["max"])
    return merged


@dataclass
class SceneCostModel:
    """Fitted per-scene, per-module cost model (on-disk schema 1).

    All costs are in the units the planner consumes directly:
    ``sim_s_per_ray`` in simulated board seconds per dispatched ray
    (*including* the ``hw_scale`` billing factor recorded in ``meta``),
    ``cycles_per_sample`` in simulated cycles per kept sample per
    pipeline module, ``samples_per_ray`` as a histogram summary of the
    occupancy-gated per-ray sample counts.
    """

    scene: str
    sim_s_per_ray: FittedStat
    cycles_per_sample: dict = field(default_factory=dict)
    samples_per_ray: dict = None
    #: Renderer family (``repro.pipeline`` name) the scene was profiled
    #: under.  Costs are renderer-specific — a model fitted for one
    #: renderer must not price another — so the planner and dashboards
    #: carry the tag through.  Defaults to ``"ngp"`` (also what schema-1
    #: payloads written before the tag existed load as).
    renderer: str = "ngp"
    #: Fixed per-request latency beyond pure board time, measured at low
    #: load (batching max-wait pooling, comm round trips).  The planner
    #: subtracts it from the SLO budget before applying the queueing tail
    #: bound — without it, a coalescing wait comparable to the budget
    #: silently sinks every plan.
    overhead_s: FittedStat = None
    #: Profiling provenance: hw_scale, probe resolution, rays per frame,
    #: run count — whatever the fitter knew.
    meta: dict = field(default_factory=dict)

    @property
    def rays_per_frame(self) -> int:
        """Rays in one client frame at the profiled probe resolution."""
        return int(self.meta.get("rays_per_frame", 0))

    def sim_s_per_frame(self, rays_per_frame: int = None) -> float:
        """Expected simulated board seconds for one ``rays_per_frame`` frame."""
        rays = self.rays_per_frame if rays_per_frame is None else rays_per_frame
        if rays <= 0:
            raise ValueError("rays_per_frame unknown; pass it explicitly")
        return self.sim_s_per_ray.mean * rays

    def to_payload(self) -> dict:
        """Stable JSON-safe dict (``schema`` key = :data:`SCHEMA_VERSION`)."""
        return {
            "schema": SCHEMA_VERSION,
            "scene": self.scene,
            "renderer": self.renderer,
            "sim_s_per_ray": self.sim_s_per_ray.to_payload(),
            "cycles_per_sample": {
                module: stat.to_payload()
                for module, stat in sorted(self.cycles_per_sample.items())
            },
            "samples_per_ray": self.samples_per_ray,
            "overhead_s": (
                self.overhead_s.to_payload()
                if self.overhead_s is not None else None
            ),
            "meta": dict(self.meta),
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "SceneCostModel":
        """Rebuild a model from its :meth:`to_payload` dict.

        Unknown schema versions are rejected loudly — a planner running
        on a mis-parsed cost model would emit confidently wrong capacity
        numbers.  Keys the model no longer holds are ignored, so a file
        that still carries the retired ``wall_s_per_ray`` entry loads.
        """
        schema = payload.get("schema")
        if schema != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported cost-model schema {schema!r} "
                f"(expected {SCHEMA_VERSION})"
            )
        overhead = payload.get("overhead_s")
        return cls(
            scene=payload["scene"],
            renderer=payload.get("renderer", "ngp"),
            sim_s_per_ray=FittedStat.from_payload(payload["sim_s_per_ray"]),
            cycles_per_sample={
                module: FittedStat.from_payload(stat)
                for module, stat in payload.get("cycles_per_sample", {}).items()
            },
            samples_per_ray=payload.get("samples_per_ray"),
            overhead_s=(
                FittedStat.from_payload(overhead)
                if overhead is not None else None
            ),
            meta=dict(payload.get("meta", {})),
        )

    def save(self, path: str) -> None:
        """Write the model as JSON to ``path`` (atomic rename)."""
        tmp = f"{path}.tmp.{os.getpid()}"
        with open(tmp, "w") as fh:
            json.dump(self.to_payload(), fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "SceneCostModel":
        """Load a model previously written by :meth:`save`."""
        with open(path) as fh:
            return cls.from_payload(json.load(fh))


def fit_cost_model(
    scene: str,
    observations,
    meta: dict = None,
    renderer: str = "ngp",
) -> SceneCostModel:
    """Fit a :class:`SceneCostModel` from repeated-run observations.

    ``observations`` is a non-empty sequence of :class:`CostObservation`;
    ``renderer`` tags the fitted model with the renderer family the runs
    were served by (costs do not transfer across renderers).
    """
    observations = list(observations)
    if not observations:
        raise ValueError("need at least one observation to fit a cost model")
    sim = FittedStat.fit([o.sim_s_per_ray for o in observations])
    modules = set()
    for o in observations:
        modules.update(o.module_cycles)
    cycles = {}
    for module in sorted(modules):
        per_sample = [
            o.module_cycles[module] / o.samples
            for o in observations
            if module in o.module_cycles and o.samples
        ]
        if per_sample:
            cycles[module] = FittedStat.fit(per_sample)
    spr = _merge_hist_summaries(o.samples_per_ray for o in observations)
    overhead_values = [
        o.overhead_s for o in observations if o.overhead_s is not None
    ]
    overhead = FittedStat.fit(overhead_values) if overhead_values else None
    meta = dict(meta or {})
    meta.setdefault("n_runs", len(observations))
    return SceneCostModel(
        scene=scene,
        renderer=renderer,
        sim_s_per_ray=sim,
        cycles_per_sample=cycles,
        samples_per_ray=spr,
        overhead_s=overhead,
        meta=meta,
    )


def profile_demo_scene(
    scene: str,
    runs: int = 3,
    probe: int = 16,
    max_samples: int = 32,
    hw_scale: float = 400.0,
    frames: int = 8,
    seed: int = 0,
    batch_policy=None,
) -> SceneCostModel:
    """Profile one demo scene through the real serving stack and fit.

    Runs a one-frame closed loop to estimate the uncongested per-frame
    latency, then ``runs`` low-rate open-loop runs (distinct arrival
    seeds, ~30% utilization so queueing does not pollute the cost) with
    telemetry recording, and fits the cost model from what each run's
    metrics snapshot and service stats recorded.

    ``batch_policy`` (a :class:`~repro.serve.scheduler.BatchPolicy`, or
    ``None`` for the service default) must match the deployment being
    planned for: the fitted ``overhead_s`` mostly *is* the policy's
    coalescing ``max_wait_s``, and a model profiled under one policy
    mis-prices latency under another.
    """
    import numpy as np

    from .. import telemetry
    from ..serve import (
        PRIORITY_STANDARD,
        RenderService,
        ServiceConfig,
        build_demo_registry,
        demo_camera,
        run_closed_loop,
        run_open_loop,
    )

    if runs < 1:
        raise ValueError("runs must be positive")
    camera = demo_camera(probe, probe)

    def _fresh_service():
        registry = build_demo_registry(
            scenes=[scene], max_samples_per_ray=max_samples, seed=seed
        )
        config = (
            ServiceConfig(batch=batch_policy)
            if batch_policy is not None else None
        )
        return RenderService(registry, config=config)

    # Pilot: one closed-loop frame prices the uncongested frame latency,
    # which sets the probing rate for the measurement runs.
    pilot = _fresh_service()
    renderer = next(
        s["renderer"] for s in pilot.registry.scenes() if s["name"] == scene
    )
    pilot_report = run_closed_loop(
        pilot, scene, n_frames=1, camera=camera, hw_scale=hw_scale
    )
    frame_s = pilot_report.duration_s / max(pilot_report.completed, 1)
    rate_hz = 0.3 / frame_s if frame_s > 0 else 1.0

    observations = []
    for run in range(runs):
        service = _fresh_service()
        with telemetry.session() as tel:
            run_open_loop(
                service,
                [scene],
                rate_hz=rate_hz,
                duration_s=frames / rate_hz,
                camera=camera,
                rng=np.random.default_rng(seed + 7919 * (run + 1)),
                priority_mix=((PRIORITY_STANDARD, 1.0),),
                hw_scale=hw_scale,
            )
            snapshot = tel.metrics.snapshot()
        obs = observation_from_run(service.stats(), snapshot)
        if obs.rays > 0:
            # Typical uncongested latency minus pure board time = fixed
            # per-request overhead (coalescing wait, comm round trips).
            p50 = service.slo.class_stats(PRIORITY_STANDARD)["p50_s"]
            if not math.isnan(p50):
                obs.overhead_s = max(
                    0.0, p50 - obs.sim_s_per_ray * probe * probe
                )
            observations.append(obs)
    if not observations:
        raise RuntimeError(
            f"profiling {scene!r} dispatched no rays; raise frames or rate"
        )
    return fit_cost_model(
        scene,
        observations,
        renderer=renderer,
        meta={
            "hw_scale": hw_scale,
            "probe": probe,
            "rays_per_frame": probe * probe,
            "max_samples_per_ray": max_samples,
            "profile_rate_hz": rate_hz,
            "frames_per_run": frames,
            "seed": seed,
            "batch_max_wait_s": pilot.config.batch.max_wait_s,
        },
    )
