"""Render requests, ray slicing, and frame assembly for the service.

A :class:`RenderRequest` names a deployed scene and a camera view (a full
frame or a tile crop of one).  At admission the service expands it into
an :class:`ActiveRequest` — the request's rays mapped into the scene's
unit cube, a pixel buffer, and a list of fixed-size :class:`RaySlice`
work items.  Slices are the scheduler's currency: they are small enough
to coalesce across requests into one hardware dispatch, and their
boundaries depend only on the request itself (never on what else is
queued), which is what keeps served pixels bit-identical to an offline
:meth:`~repro.pipeline.renderer.Renderer.render_image` call of the
scene's renderer at the same chunk size.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, replace

import numpy as np

from ..nerf.camera import Camera
from ..nerf.rays import generate_rays
from ..nerf.sampling import RayMarcher
from ..pipeline.stages import OccupancySampler

#: Request priority classes, best first.  The admission controller sheds
#: from the bottom of this ladder under overload.
PRIORITY_INTERACTIVE = 0
PRIORITY_STANDARD = 1
PRIORITY_BATCH = 2


@dataclass(frozen=True)
class RenderRequest:
    """One client render call: a scene, a view, and its QoS envelope.

    ``tile`` crops the camera frame to the half-open pixel rectangle
    ``(x0, y0, x1, y1)``; ``None`` renders the full frame.  ``deadline_s``
    is an absolute service-clock deadline (``None`` = best effort).
    ``hw_scale`` multiplies the *billed* hardware work without changing
    the rendered probe pixels — the standard linear-extrapolation hook
    (cf. ``workload_scale`` in the chip simulators) that lets a small
    probe frame stand in for a full-resolution one in the latency model.
    """

    request_id: int
    scene: str
    camera: Camera
    arrival_s: float = 0.0
    priority: int = PRIORITY_STANDARD
    deadline_s: float = None
    tile: tuple = None
    hw_scale: float = 1.0

    def __post_init__(self):
        if self.priority < 0:
            raise ValueError("priority must be non-negative")
        if self.hw_scale <= 0:
            raise ValueError("hw_scale must be positive")
        if self.tile is not None:
            x0, y0, x1, y1 = self.tile
            if not (0 <= x0 < x1 <= self.camera.width):
                raise ValueError("tile x-range out of camera bounds")
            if not (0 <= y0 < y1 <= self.camera.height):
                raise ValueError("tile y-range out of camera bounds")

    @property
    def frame_shape(self) -> tuple:
        """``(height, width)`` of the pixels this request produces."""
        if self.tile is None:
            return (self.camera.height, self.camera.width)
        x0, y0, x1, y1 = self.tile
        return (y1 - y0, x1 - x0)

    @property
    def n_rays(self) -> int:
        """Ray count of the request (tile-cropped when applicable)."""
        h, w = self.frame_shape
        return h * w

    def pixel_ids(self) -> np.ndarray:
        """Row-major pixel indices into the camera frame this request covers."""
        if self.tile is None:
            return np.arange(self.camera.n_pixels, dtype=np.int64)
        x0, y0, x1, y1 = self.tile
        rows = np.arange(y0, y1, dtype=np.int64)
        cols = np.arange(x0, x1, dtype=np.int64)
        return (rows[:, None] * self.camera.width + cols[None, :]).reshape(-1)


@dataclass
class ActiveRequest:
    """An admitted request's in-flight state.

    Holds the unit-space rays, the output pixel buffer, and completion
    bookkeeping.  ``status`` stays ``None`` while in flight and becomes a
    terminal string (``"completed"``, ``"failed_scene_evicted"``, ...)
    exactly once.
    """

    request: RenderRequest
    handle: object  # repro.serve.registry.SceneHandle
    origins: np.ndarray
    directions: np.ndarray
    renderer: object  # repro.pipeline.Renderer (possibly degraded)
    #: Degradation applied at admission: 0 = full quality.
    degrade_level: int = 0
    #: Effective samples-per-ray budget after degradation.
    samples_per_ray: int = 0
    #: Effective output resolution scale after degradation (1.0 = asked-for).
    resolution_scale: float = 1.0
    out: np.ndarray = None
    slices_remaining: int = 0
    admitted_s: float = 0.0
    completed_s: float = None
    status: str = None
    #: ``(height, width)`` of the (possibly degraded) output frame.
    frame_shape: tuple = None

    @property
    def n_rays(self) -> int:
        """Rays this request actually marches (after degradation)."""
        return self.origins.shape[0]

    def finish(self, status: str, now: float) -> None:
        """Terminally mark the request; idempotent for the first status."""
        if self.status is None:
            self.status = status
            self.completed_s = now

    @property
    def frame(self) -> np.ndarray:
        """The assembled ``(h, w, 3)`` frame (``None`` until completed)."""
        if self.status != "completed":
            return None
        h, w = self.frame_shape
        return np.clip(self.out, 0.0, 1.0).reshape(h, w, 3)


@dataclass(frozen=True)
class RaySlice:
    """A contiguous ray range of one request: the scheduler's work unit."""

    active: ActiveRequest
    start: int
    stop: int

    @property
    def n_rays(self) -> int:
        """Rays in this slice."""
        return self.stop - self.start


@dataclass
class DispatchBatch:
    """Slices coalesced into one hardware dispatch for a single scene."""

    scene: str
    slices: list
    formed_s: float

    @property
    def n_rays(self) -> int:
        """Total rays across every slice of the batch."""
        return sum(s.n_rays for s in self.slices)

    @property
    def n_requests(self) -> int:
        """Distinct requests contributing slices to this batch."""
        return len({id(s.active) for s in self.slices})


def degraded_camera(camera: Camera, resolution_scale: float) -> Camera:
    """The camera a resolution-degraded request renders through.

    Width, height, and focal all scale together, so the field of view is
    preserved and the smaller frame is a genuine downsampled render of
    the same view.  Every dimension is floored at one pixel.
    """
    if resolution_scale >= 1.0:
        return camera
    width = max(int(camera.width * resolution_scale), 1)
    height = max(int(camera.height * resolution_scale), 1)
    focal = camera.focal * (width / camera.width)
    return Camera(width=width, height=height, focal=focal, c2w=camera.c2w)


def degraded_renderer(renderer, samples_per_ray: int):
    """The renderer a request runs at a ``samples_per_ray`` budget.

    The admission degrade ladder keeps the scene's renderer and changes
    only its sampler config: the same field, occupancy grid, compositor
    and background behind a marcher capped at ``samples_per_ray``.  At
    the scene's own budget this is the renderer itself.
    """
    config = renderer.marcher.config
    if samples_per_ray == config.max_samples:
        return renderer
    degraded = copy.copy(renderer)
    degraded.sampler = OccupancySampler(
        RayMarcher(replace(config, max_samples=samples_per_ray)),
        renderer.occupancy,
    )
    return degraded


def activate_request(
    request: RenderRequest,
    handle,
    renderer,
    samples_per_ray: int,
    resolution_scale: float,
    degrade_level: int,
    now: float,
) -> ActiveRequest:
    """Expand an admitted request into its in-flight state.

    Generates the request's rays (full frame, tile crop, or degraded
    resolution), maps them through the scene normalizer into unit-cube
    space, and allocates the output pixel buffer.  Ray order is row-major
    over the requested pixels — identical to
    :meth:`~repro.pipeline.renderer.Renderer.render_image`'s ordering.
    """
    camera = request.camera
    tile = request.tile
    if resolution_scale < 1.0 and tile is None:
        camera = degraded_camera(camera, resolution_scale)
    if tile is None:
        rays = generate_rays(camera)
        frame_shape = (camera.height, camera.width)
    else:
        rays = generate_rays(camera, pixel_ids=request.pixel_ids())
        frame_shape = request.frame_shape
    origins, directions = handle.normalizer.rays_to_unit(
        rays.origins, rays.directions
    )
    n = origins.shape[0]
    return ActiveRequest(
        request=request,
        handle=handle,
        origins=origins,
        directions=directions,
        renderer=renderer,
        degrade_level=degrade_level,
        samples_per_ray=samples_per_ray,
        resolution_scale=resolution_scale,
        # float32: the pixel format of the rendering pipeline (the
        # offline Renderer.render_image frame buffer is float32 too); a
        # float64 buffer would double the frame-memory footprint.
        out=np.empty((n, 3), dtype=np.float32),
        slices_remaining=0,
        admitted_s=now,
        frame_shape=frame_shape,
    )


def slice_request(active: ActiveRequest, slice_rays: int) -> list:
    """Cut an active request into fixed-size :class:`RaySlice` items.

    Boundaries are multiples of ``slice_rays`` from the request's own ray
    0 — independent of queue state, so the per-slice renders are
    bit-identical to a direct chunked render of the same request.
    """
    if slice_rays < 1:
        raise ValueError("slice_rays must be positive")
    n = active.n_rays
    slices = [
        RaySlice(active=active, start=start, stop=min(start + slice_rays, n))
        for start in range(0, n, slice_rays)
    ]
    active.slices_remaining = len(slices)
    return slices
