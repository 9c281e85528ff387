"""Incremental training loop: budgeted step increments over a growing set.

The online session cannot hand the trainer a closed dataset and call
``train(N)`` — frames keep arriving and the serving side needs the model
between increments.  :class:`IncrementalTrainerLoop` owns the trainer
for exactly that interleaving: it creates the trainer from the first
streamed frame(s), appends each later frame via
:meth:`~repro.nerf.trainer.Trainer.add_view`, and advances optimization
in budgeted :meth:`~repro.nerf.trainer.Trainer.train_steps` increments —
the API whose N-increments-equals-one-run bit-identity contract makes
the whole session replayable.

Every increment runs under the divergence watchdog
(:class:`~repro.robustness.watchdog.DivergenceWatchdog`): a diverged
step rolls back to the last good snapshot and backs off the learning
rate instead of poisoning the next deployment.  Use the loop as a
context manager so the watchdog is attached to the trainer only while
the loop is in use::

    with IncrementalTrainerLoop(model, store, normalizer, cfg) as loop:
        loop.increment(10)
"""

from __future__ import annotations

import numpy as np

from ..nerf.trainer import Trainer, TrainerConfig
from ..robustness.faults import WatchdogConfig
from ..robustness.watchdog import DivergenceWatchdog
from .capture import CapturedFrame
from .ingest import ROUTE_TRAIN, FrameStore


class IncrementalTrainerLoop:
    """Watchdog-guarded incremental trainer over a :class:`FrameStore`."""

    def __init__(
        self,
        model,
        store: FrameStore,
        normalizer,
        trainer_config: TrainerConfig = None,
        watchdog_config: WatchdogConfig = None,
    ):
        if store.n_train < 1:
            raise ValueError(
                "the store needs at least one training frame before the "
                "trainer can exist"
            )
        self.store = store
        self.trainer = Trainer(
            model,
            list(store.train_cameras),
            np.stack(store.train_images),
            normalizer,
            trainer_config or TrainerConfig(),
        )
        self.watchdog = DivergenceWatchdog(
            self.trainer, watchdog_config or WatchdogConfig()
        )
        self.steps_total = 0

    def __enter__(self) -> "IncrementalTrainerLoop":
        self.watchdog.attach()
        return self

    def __exit__(self, *exc_info) -> None:
        self.watchdog.detach()

    def ingest(self, frame: CapturedFrame) -> str:
        """Route one frame through the store and into the trainer.

        Holdout frames stay out of the training set (they are the
        quality gate's evaluation material); training frames are
        appended to the live trainer so the very next ray batch can draw
        from them.
        """
        route = self.store.add(frame)
        if route == ROUTE_TRAIN:
            self.trainer.add_view(frame.camera, frame.image)
        return route

    def increment(self, n_steps: int) -> float:
        """Run one budgeted training increment; returns the last loss.

        NaN (a skipped/diverged step as the last step of the increment)
        is a legitimate return — the watchdog has already rolled the
        model back, so the caller's next evaluation sees the last good
        state, not the diverged one.
        """
        state = self.trainer.train_steps(n_steps)
        self.steps_total += n_steps
        return state.losses[-1] if state.losses else float("nan")

    def eval_holdout_psnr(self) -> float:
        """PSNR of the current model over every held-out view."""
        cameras, images = self.store.holdout_arrays()
        return self.trainer.eval_psnr(cameras=cameras, images=images)

    @property
    def rollbacks(self) -> int:
        """Watchdog recoveries so far this session."""
        return self.watchdog.rollbacks
