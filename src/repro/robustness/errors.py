"""Structured divergence reporting shared by the trainer and the watchdog.

This module is imported from the ``repro.nerf`` hot paths, so it must
stay dependency-free (stdlib only): the trainer raises
:class:`DivergenceError` when a training step goes non-finite and no
watchdog recovers it, and :class:`DivergenceEvent` is the payload both
the exception and the watchdog's ``recover`` receive.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class DivergenceEvent:
    """One detected training anomaly.

    ``reason`` is one of:

    * ``"non_finite_loss"`` — the batch loss came out NaN/inf, or a
      parameter already was non-finite or, on a field that trains
      through a float32 snapshot, beyond float32 range (the forward is
      then not run, and ``detail`` names the parameter); the optimizer
      step was *skipped*, so the step itself poisoned nothing.
    * ``"gradient_explosion"`` — the gradient norm exceeded the
      configured threshold (or went non-finite); the step was skipped.
    * ``"degenerate_batch"`` — ray marching produced zero samples (all
      empty space); the step was skipped.  Benign, but surfaced so a
      long run of them can be diagnosed instead of silently recorded
      as NaN losses.
    """

    iteration: int
    reason: str
    loss: float = float("nan")
    grad_norm: float = None
    detail: str = ""

    def describe(self) -> str:
        """Human-readable one-liner for logs and exception messages."""
        parts = [f"iteration {self.iteration}: {self.reason}"]
        if self.loss == self.loss:  # finite or inf, not NaN
            parts.append(f"loss={self.loss!r}")
        if self.grad_norm is not None:
            parts.append(f"grad_norm={self.grad_norm!r}")
        if self.detail:
            parts.append(self.detail)
        return ", ".join(parts)


class DivergenceError(RuntimeError):
    """A training step diverged and no watchdog recovered it.

    Raised by :meth:`repro.nerf.trainer.Trainer.train_step` when the loss
    or gradients go non-finite and the trainer has no
    :class:`repro.robustness.watchdog.DivergenceWatchdog` attached, or
    its watchdog has spent its rollback budget.  The offending step never
    reaches the optimizer, so the model the caller holds is still the
    last good one.
    """

    def __init__(self, event: DivergenceEvent):
        super().__init__(event.describe())
        self.event = event


class FaultConfigError(ValueError):
    """A :class:`repro.robustness.faults.FaultPlan` failed validation."""


@dataclass
class FaultLog:
    """Accumulated record of the faults a plan actually fired.

    Injection sites append human-readable entries; the runner's
    degradation report prints them so a fault run documents itself.
    """

    entries: list = field(default_factory=list)

    def record(self, site: str, description: str) -> None:
        """Append one fired-fault entry."""
        self.entries.append({"site": site, "description": description})

    def __len__(self) -> int:
        return len(self.entries)
