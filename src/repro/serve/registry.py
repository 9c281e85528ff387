"""Multi-scene registry: named, refcounted scene store with hot-swap.

The serving layer multiplexes many trained scenes over one simulated
board (the Uni-Render deployment argument): scenes are *deployed* into
the registry — from a checkpoint archive or from in-memory objects — and
request handling *acquires* a refcounted :class:`SceneHandle` for the
lifetime of each request.

One lifecycle rule: a deployed scene lives until a hot-swap replaces
it.  Re-deploying a live name installs the next generation: new
acquisitions see it immediately, while in-flight requests keep rendering
against the old weights until their refcount drains.  Nothing else
removes a name, so a name's generation never decreases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import telemetry
from ..nerf.checkpoint import load_scene
from ..nerf.occupancy import OccupancyGrid
from ..nerf.sampling import RayMarcher, SamplerConfig
from ..pipeline.registry import wrap_model
from ..pipeline.renderer import Renderer
from ..sim.trace import WorkloadTrace, trace_from_rays

#: Ray grid of the deploy-time representative workload trace (per-scene
#: hardware cost model); workload statistics are resolution-independent,
#: so a small grid suffices (cf. ``repro.experiments.workloads``).
TRACE_GRID = 24


class SceneRegistryError(RuntimeError):
    """Base class for registry failures."""


class UnknownSceneError(SceneRegistryError):
    """The named scene is not deployed."""


@dataclass
class SceneRecord:
    """One deployed scene generation and its serving state."""

    name: str
    generation: int
    #: The scene's full-quality rendering pipeline; its ``name`` and
    #: ``precision`` are the renderer / precision components of the
    #: (scene, renderer, precision) admission-EWMA key.
    renderer: Renderer
    normalizer: object
    #: Representative workload trace the scheduler bills hardware time
    #: against (scaled by each dispatch's actual kept samples).
    trace: WorkloadTrace
    n_bytes: int
    refcount: int = 0
    retired: bool = False
    last_used: int = 0
    #: Whether the occupancy grid came from trained state (checkpoint /
    #: caller) rather than the permissive keep-everything fallback.
    warmed: bool = True


class SceneHandle:
    """A refcounted view of one scene generation.

    Handles pin their generation in memory: the registry never frees a
    hot-swapped-out record while handles to it are live.  ``release()``
    is idempotent.
    """

    __slots__ = ("_registry", "_record", "_released")

    def __init__(self, registry: "SceneRegistry", record: SceneRecord):
        self._registry = registry
        self._record = record
        self._released = False

    @property
    def name(self) -> str:
        """Deployed scene name."""
        return self._record.name

    @property
    def generation(self) -> int:
        """Generation counter of the pinned record (1 at the first
        deploy, bumped by each hot-swap)."""
        return self._record.generation

    @property
    def renderer(self) -> Renderer:
        """The pinned generation's full-quality renderer (hot-swaps may
        change its family, so in-flight requests read their pinned one)."""
        return self._record.renderer

    @property
    def model(self):
        """The pinned radiance-field model (the renderer's field)."""
        return self._record.renderer.field

    @property
    def occupancy(self) -> OccupancyGrid:
        """The pinned occupancy grid."""
        return self._record.renderer.occupancy

    @property
    def normalizer(self):
        """World-to-unit-cube map of the pinned scene."""
        return self._record.normalizer

    @property
    def marcher(self) -> RayMarcher:
        """The scene's default (full-quality) ray marcher."""
        return self._record.renderer.marcher

    @property
    def background(self) -> float:
        """Background color the scene composites against."""
        return self._record.renderer.background

    @property
    def trace(self) -> WorkloadTrace:
        """Representative workload trace for hardware billing."""
        return self._record.trace

    def release(self) -> None:
        """Drop the pin; frees the record when its refcount drains."""
        if self._released:
            return
        self._released = True
        self._registry._release(self._record)


def _representative_trace(
    occupancy: OccupancyGrid, max_samples: int, grid: int = TRACE_GRID
) -> WorkloadTrace:
    """Deterministic unit-space probe trace of a scene's workload shape.

    A ``grid x grid`` bundle of parallel rays enters the unit cube
    through the z = 0 face and exits at z = 1, so every ray crosses the
    full occupancy volume; the per-ray kept-sample skew this produces is
    what the dispatch-time ``workload_scale`` stretches to the size of
    each real batch.
    """
    u = (np.arange(grid, dtype=np.float64) + 0.5) / grid
    xx, yy = np.meshgrid(u, u, indexing="ij")
    origins = np.stack(
        [xx.reshape(-1), yy.reshape(-1), np.full(grid * grid, -0.25)], axis=-1
    )
    directions = np.tile(
        np.array([0.0, 0.0, 1.0]), (grid * grid, 1)
    )
    return trace_from_rays(
        origins, directions, occupancy, max_samples=max_samples
    )


def _scene_bytes(model, occupancy: OccupancyGrid) -> int:
    """Deployment footprint: parameter store plus occupancy state.

    A low-precision snapshot holds its rounded values in float32 but
    prices them at their stored width (``storage_bytes``).
    """
    total = getattr(model, "storage_bytes", None)
    if total is None:
        total = sum(p.nbytes for p in model.parameters().values())
    total += occupancy.density_ema.nbytes + occupancy.mask.nbytes
    return int(total)


class SceneRegistry:
    """Named scene store with refcounted hot-swap."""

    def __init__(self, max_samples_per_ray: int = 64):
        self.max_samples_per_ray = max_samples_per_ray
        self._records = {}
        #: Hot-swapped-out generations still pinned by live handles.
        self._retiring = []
        self._clock = 0
        self.hot_swaps = 0

    # -- introspection ---------------------------------------------------

    @property
    def memory_bytes(self) -> int:
        """Bytes pinned by every live generation (current + retiring)."""
        return sum(r.n_bytes for r in self._records.values()) + sum(
            r.n_bytes for r in self._retiring
        )

    def __contains__(self, name: str) -> bool:
        return name in self._records

    def __len__(self) -> int:
        return len(self._records)

    def scenes(self) -> list:
        """Summaries of every deployed scene, least recently used first."""
        records = sorted(self._records.values(), key=lambda r: r.last_used)
        return [
            {
                "name": r.name,
                "generation": r.generation,
                "renderer": r.renderer.name,
                "precision": r.renderer.precision,
                "bytes": r.n_bytes,
                "refcount": r.refcount,
                "warmed": r.warmed,
                "mean_samples_per_ray": r.trace.mean_samples_per_ray,
            }
            for r in records
        ]

    # -- deployment ------------------------------------------------------

    def deploy(
        self,
        name: str,
        model=None,
        occupancy: OccupancyGrid = None,
        normalizer=None,
        checkpoint=None,
        background: float = 1.0,
        max_samples_per_ray: int = None,
        renderer: Renderer = None,
    ) -> dict:
        """Deploy (or hot-swap) a scene; returns its summary dict.

        The scene is one :class:`~repro.pipeline.renderer.Renderer`
        plus its ``normalizer``.  Pass the renderer directly (any stage
        config: ERT, low precision, adaptive), or give ``checkpoint`` (a
        path readable by :func:`~repro.nerf.checkpoint.load_scene`) or
        ``model`` and the registry wraps it with
        :func:`~repro.pipeline.registry.wrap_model` at
        ``max_samples_per_ray``.  A checkpoint saved with its occupancy
        grid cold-starts without re-warmup; without one, the registry
        falls back to a permissive keep-everything grid (correct, but
        ungated — ``warmed`` is ``False`` in the summary).  Re-deploying
        a live name installs a new generation: in-flight requests keep
        their pinned handles, new acquisitions get the new weights, and
        the old generation is freed when its refcount drains.

        The summary's ``renderer`` / ``precision`` tags come from the
        renderer (its ``name`` and stage precision); a wrapped model
        gets the name :func:`repro.pipeline.registry.renderer_name_for`
        infers, and a :class:`~repro.nerf.precision.LowPrecisionField`
        deployed as the model keeps its ``"fp16"`` / ``"fp16-int8"``
        tag.  Per-(scene, renderer, precision) cost estimates
        downstream key on both, and a hot-swap may change them.
        """
        if renderer is not None:
            if model is not None or occupancy is not None or checkpoint is not None:
                raise SceneRegistryError(
                    f"deploy({name!r}) takes a renderer or a model/checkpoint, "
                    "not both"
                )
            occupancy = renderer.occupancy
        else:
            if checkpoint is not None:
                loaded_model, loaded_occupancy, loaded_normalizer = load_scene(
                    checkpoint
                )
                model = model if model is not None else loaded_model
                occupancy = occupancy if occupancy is not None else loaded_occupancy
                normalizer = normalizer if normalizer is not None else loaded_normalizer
            if model is None:
                raise SceneRegistryError(
                    f"deploy({name!r}) needs a model, a renderer or a checkpoint"
                )
        if normalizer is None:
            raise SceneRegistryError(
                f"deploy({name!r}) needs a normalizer (in-memory or stored "
                "in the checkpoint)"
            )
        warmed = occupancy is not None
        if occupancy is None:
            occupancy = OccupancyGrid(resolution=16)
        if renderer is None:
            renderer = wrap_model(
                model,
                marcher=RayMarcher(
                    SamplerConfig(
                        max_samples=max_samples_per_ray or self.max_samples_per_ray
                    )
                ),
                occupancy=occupancy,
                background=background,
            )
        record = SceneRecord(
            name=name,
            generation=1,
            renderer=renderer,
            normalizer=normalizer,
            trace=_representative_trace(
                occupancy, renderer.marcher.config.max_samples
            ),
            n_bytes=_scene_bytes(renderer.field, occupancy),
            warmed=warmed,
        )
        previous = self._records.get(name)
        if previous is not None:
            record.generation = previous.generation + 1
            self.hot_swaps += 1
            if previous.refcount > 0:
                previous.retired = True
                self._retiring.append(previous)
        self._clock += 1
        record.last_used = self._clock
        self._records[name] = record
        self._record_metrics()
        return self.scenes()[-1] if len(self._records) == 1 else next(
            s for s in self.scenes() if s["name"] == name
        )

    # -- acquisition -----------------------------------------------------

    def acquire(self, name: str) -> SceneHandle:
        """Pin the current generation of ``name`` and return its handle."""
        record = self._records.get(name)
        if record is None:
            raise UnknownSceneError(f"scene {name!r} is not deployed")
        record.refcount += 1
        self._clock += 1
        record.last_used = self._clock
        return SceneHandle(self, record)

    def _release(self, record: SceneRecord) -> None:
        if record.refcount <= 0:
            raise SceneRegistryError(
                f"refcount underflow on scene {record.name!r}"
            )
        record.refcount -= 1
        if record.refcount == 0 and record.retired:
            # Last in-flight request against a hot-swapped-out
            # generation: free it now.
            self._retiring.remove(record)
            self._record_metrics()

    def _record_metrics(self) -> None:
        tel = telemetry.get_session()
        if not tel.enabled:
            return
        tel.metrics.gauge("serve.registry.scenes").set(float(len(self._records)))
        tel.metrics.gauge("serve.registry.bytes").set(float(self.memory_bytes))
        tel.metrics.gauge("serve.registry.retiring").set(float(len(self._retiring)))
