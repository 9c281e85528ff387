"""Training divergence watchdog: snapshot, roll back, back off, resume.

Instant-3D-class accelerators train on a device power budget that leaves
no room for wasted runs: a diverged training job is minutes of battery
spent producing NaN.  The watchdog makes divergence a recoverable event
instead of a dead run:

* ``attach()`` binds it to its trainer's one recovery slot
  (``trainer.watchdog``); the trainer calls it directly, so which
  telemetry session is active when it attaches or steps does not matter;
* after each finite step the trainer calls :meth:`after_step`, which
  snapshots the model (parameters, Adam state, every expert's occupancy
  grid) every ``snapshot_interval`` iterations — optionally spooling the
  parameters through :mod:`repro.nerf.checkpoint`, so the last good
  state is also a durable on-disk artifact;
* when a step's loss or gradient norm goes non-finite (the step never
  reaches the optimizer, see :mod:`repro.nerf.trainer`) the trainer
  calls :meth:`recover`, which rolls the trainer back to the last good
  snapshot, multiplies the learning rate by ``lr_backoff``, records the
  event in telemetry metrics (``robustness.watchdog.*``), and lets
  training resume;
* after ``max_rollbacks`` recoveries it gives up and re-raises
  :class:`~repro.robustness.errors.DivergenceError`, so a structurally
  broken run still fails loudly.

Use it scoped::

    with DivergenceWatchdog(trainer, WatchdogConfig()) as watchdog:
        trainer.train(2000)
    print(watchdog.rollbacks, "rollbacks")
"""

from __future__ import annotations

import os

from .. import telemetry
from .errors import DivergenceError
from .faults import WatchdogConfig

#: Filename of the durable snapshot inside ``snapshot_dir``.
SNAPSHOT_NAME = "watchdog-snapshot.npz"


class DivergenceWatchdog:
    """Rollback-and-backoff recovery for a :class:`~repro.nerf.trainer.Trainer`."""

    def __init__(self, trainer, config: WatchdogConfig = None, snapshot_dir=None):
        self.trainer = trainer
        self.config = config if config is not None else WatchdogConfig()
        self.snapshot_dir = snapshot_dir
        self.rollbacks = 0
        #: One dict per recovery: iteration, reason, restored iteration, lr.
        self.events = []
        self._snapshot = None
        self._previous_threshold = None

    # -- lifecycle -----------------------------------------------------

    def attach(self) -> "DivergenceWatchdog":
        """Take the trainer's recovery slot; take the first snapshot."""
        if self.trainer.watchdog is not None:
            raise RuntimeError("trainer already has a watchdog")
        self.trainer.watchdog = self
        self._previous_threshold = self.trainer.grad_norm_threshold
        if self.config.grad_norm_threshold > 0:
            self.trainer.grad_norm_threshold = self.config.grad_norm_threshold
        self.take_snapshot()
        return self

    def detach(self) -> None:
        """Free the trainer's recovery slot; safe to call twice."""
        if self.trainer.watchdog is not self:
            return
        self.trainer.watchdog = None
        self.trainer.grad_norm_threshold = self._previous_threshold

    def __enter__(self) -> "DivergenceWatchdog":
        return self.attach()

    def __exit__(self, *exc_info) -> None:
        self.detach()

    # -- snapshotting --------------------------------------------------

    def take_snapshot(self) -> None:
        """Capture the trainer's recoverable state as the last-good point."""
        trainer = self.trainer
        optimizer = trainer.optimizer
        self._snapshot = {
            "iteration": trainer.state.iteration,
            "params": {k: v.copy() for k, v in trainer.model.parameters().items()},
            "adam_m": {k: v.copy() for k, v in optimizer._m.items()},
            "adam_v": {k: v.copy() for k, v in optimizer._v.items()},
            "adam_steps": optimizer.step_count,
            "occupancies": [
                (grid.density_ema.copy(), grid.mask.copy())
                for grid in trainer.occupancies
            ],
        }
        if self.snapshot_dir is not None:
            from ..nerf import checkpoint

            os.makedirs(self.snapshot_dir, exist_ok=True)
            checkpoint.save_model(
                trainer.model, os.path.join(self.snapshot_dir, SNAPSHOT_NAME)
            )

    def rollback(self) -> int:
        """Restore the last snapshot; returns the restored iteration.

        Parameter restoration is *in place* (the optimizer and the model
        alias the same arrays; rebinding them would silently detach the
        optimizer's state from the model).  With a ``snapshot_dir``, the
        parameters are read back through :mod:`repro.nerf.checkpoint` —
        the durable artifact is the source of truth it claims to be.
        """
        if self._snapshot is None:
            raise RuntimeError("no snapshot to roll back to")
        trainer = self.trainer
        snap = self._snapshot
        saved_params = snap["params"]
        if self.snapshot_dir is not None:
            from ..nerf import checkpoint

            restored = checkpoint.load_model(
                os.path.join(self.snapshot_dir, SNAPSHOT_NAME)
            )
            saved_params = restored.parameters()
        live = trainer.model.parameters()
        for name, value in saved_params.items():
            live[name][...] = value
        optimizer = trainer.optimizer
        for name, value in snap["adam_m"].items():
            optimizer._m[name][...] = value
        for name, value in snap["adam_v"].items():
            optimizer._v[name][...] = value
        optimizer.step_count = snap["adam_steps"]
        for grid, (ema, mask) in zip(trainer.occupancies, snap["occupancies"]):
            grid.density_ema[...] = ema
            grid.mask[...] = mask
        return snap["iteration"]

    # -- called by the trainer ----------------------------------------

    def after_step(self) -> None:
        """Periodic snapshot, after each finite step."""
        if self.trainer.state.iteration % self.config.snapshot_interval == 0:
            self.take_snapshot()

    def recover(self, event) -> None:
        """Recover from a divergence event, or give up after the budget."""
        if self.rollbacks >= self.config.max_rollbacks:
            raise DivergenceError(event)
        restored = self.rollback()
        optimizer = self.trainer.optimizer
        optimizer.set_lr(optimizer.lr * self.config.lr_backoff)
        self.rollbacks += 1
        self.events.append(
            {
                "iteration": event.iteration,
                "reason": event.reason,
                "restored_iteration": restored,
                "lr_after": optimizer.lr,
            }
        )
        tel = telemetry.get_session()
        if tel.enabled:
            tel.metrics.counter("robustness.watchdog.rollbacks").inc()
            tel.metrics.gauge("robustness.watchdog.lr").set(optimizer.lr)
            tel.metrics.gauge("robustness.watchdog.restored_iteration").set(
                float(restored)
            )
