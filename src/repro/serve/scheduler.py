"""Dynamic ray-batch scheduler: coalesce request slices per scene.

Requests for the same scene rarely arrive aligned: one client wants a
full frame while another wants a 16x16 tile.  The scheduler keeps one
FIFO of :class:`~repro.serve.batching.RaySlice` work items per scene and
forms a hardware dispatch when either enough rays have pooled
(``max_batch_rays``) or the oldest slice has waited ``max_wait_s`` —
FlexNeRFer's adaptive batch-shape argument in queueing form.  Slices are
never split, so each one still renders through its own
``render_rays`` call and the coalescing affects only *when* hardware
time is charged, never the pixels produced.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .batching import DispatchBatch

#: Scheduler verdicts returned by :meth:`DynamicRayBatchScheduler.next_action`.
ACTION_DISPATCH = "dispatch"
ACTION_WAIT = "wait"
ACTION_IDLE = "idle"


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of the coalescing policy.

    ``slice_rays`` is the fixed slice granularity (and therefore the
    ``chunk`` a bit-identical direct render must use); ``max_batch_rays``
    caps one dispatch; ``max_wait_s`` bounds how long a lone slice can
    sit waiting for company before it is flushed anyway.
    """

    slice_rays: int = 4096
    max_batch_rays: int = 16384
    max_wait_s: float = 4e-3

    def __post_init__(self):
        if self.slice_rays < 1:
            raise ValueError("slice_rays must be positive")
        if self.max_batch_rays < self.slice_rays:
            raise ValueError("max_batch_rays must be >= slice_rays")
        if self.max_wait_s < 0:
            raise ValueError("max_wait_s must be non-negative")


class DynamicRayBatchScheduler:
    """Per-scene slice queues with max-batch / max-wait dispatch."""

    def __init__(self, policy: BatchPolicy = None):
        self.policy = policy or BatchPolicy()
        #: scene name -> deque of ``(RaySlice, enqueue_s)``.
        self._queues = {}
        self.batches_formed = 0

    # -- enqueue ---------------------------------------------------------

    def enqueue(self, scene: str, slices: list, now: float) -> None:
        """Append a request's slices to its scene queue."""
        queue = self._queues.setdefault(scene, deque())
        for item in slices:
            queue.append((item, now))

    # -- introspection ---------------------------------------------------

    def queued_rays(self) -> int:
        """Rays waiting across all scenes."""
        return sum(
            s.n_rays for queue in self._queues.values() for s, _ in queue
        )

    def queued_slices(self) -> int:
        """Slices waiting across all scenes."""
        return sum(len(queue) for queue in self._queues.values())

    # -- decision --------------------------------------------------------

    def _scene_ready_s(self, queue) -> float:
        """Service-clock time at which this queue's dispatch is due."""
        rays = sum(s.n_rays for s, _ in queue)
        oldest = min(t for _, t in queue)
        if rays >= self.policy.max_batch_rays:
            return oldest  # already over the batch cap: due immediately
        return oldest + self.policy.max_wait_s

    def next_action(self, now: float) -> tuple:
        """Decide the service's next move at service-clock ``now``.

        Returns one of::

            ("dispatch", DispatchBatch)  # render this batch now
            ("wait", t)                  # no batch due before absolute time t
            ("idle", None)               # no queued work

        A max-wait expiry with an empty queue is *not* a dispatch — the
        flush timer only ever fires on behalf of queued slices, so no
        zero-ray batch can reach the hardware.
        """
        if not self._queues:
            return (ACTION_IDLE, None)
        ready = {
            scene: self._scene_ready_s(queue)
            for scene, queue in self._queues.items()
        }
        due = [scene for scene, t in ready.items() if t <= now]
        if not due:
            return (ACTION_WAIT, min(ready.values()))
        # Among due scenes, serve the one whose head-of-line slice has the
        # best (lowest) priority class; break ties by oldest enqueue.
        def _rank(scene):
            head_slice, head_t = self._queues[scene][0]
            return (head_slice.active.request.priority, head_t)

        return (ACTION_DISPATCH, self._form_batch(min(due, key=_rank)))

    def _form_batch(self, scene: str) -> DispatchBatch:
        """Pop FIFO slices of one scene up to the max-batch cap."""
        queue = self._queues[scene]
        slices = []
        rays = 0
        while queue:
            head, _ = queue[0]
            if slices and rays + head.n_rays > self.policy.max_batch_rays:
                break
            queue.popleft()
            slices.append(head)
            rays += head.n_rays
        if not queue:
            del self._queues[scene]
        self.batches_formed += 1
        return DispatchBatch(scene=scene, slices=slices)
