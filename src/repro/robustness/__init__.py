"""Fault injection, graceful degradation, and training recovery.

The robustness subsystem makes the reproduction survive the faults a
real multi-chiplet accelerator ships with: SRAM soft errors in the
weight stores, dead chiplets and degraded inter-chip links, corrupted
workload traces, and diverging training runs.  It has three halves:

* **injection** (:mod:`repro.robustness.faults`,
  :mod:`repro.robustness.injection`) — deterministic, seedable fault
  models behind a :class:`FaultPlan`; activated process-globally so the
  simulator/trainer layers stay fault-model agnostic;
* **degradation** (:mod:`repro.robustness.degradation`) — dead-chip
  expert remapping and the clamp-and-flag scrubbers, plus the
  degradation report the ``--faults`` runner prints;
* **recovery** (:mod:`repro.robustness.watchdog`) — the divergence
  watchdog that rolls training back to the last good snapshot and backs
  the learning rate off.

:mod:`repro.robustness.backoff` is the retry-pacing primitive
(jittered exponential backoff under a deadline budget) the fleet
controller paces its RPC retries with.

With no plan active (or an empty plan), every instrumented code path is
bit-identical to the un-instrumented repo: :func:`get_active` is the
single gate, and it returns ``None`` for both cases.
"""

from .backoff import BackoffPolicy
from .degradation import format_degradation, plan_remap
from .errors import DivergenceError, DivergenceEvent, FaultConfigError, FaultLog
from .faults import (
    ChipletFaultConfig,
    FaultPlan,
    FleetFaultConfig,
    SramFaultConfig,
    TraceFaultConfig,
    WatchdogConfig,
    activate,
    deactivate,
    get_active,
    get_log,
    plan_scope,
)
from .injection import (
    flip_fp16_bits,
    flip_quantized_bits,
    inject_model_faults,
    inject_trace_faults,
    scrub_colors,
    scrub_trace,
)
from .watchdog import DivergenceWatchdog

__all__ = [
    "BackoffPolicy",
    "ChipletFaultConfig",
    "DivergenceError",
    "DivergenceEvent",
    "DivergenceWatchdog",
    "FaultConfigError",
    "FaultLog",
    "FaultPlan",
    "FleetFaultConfig",
    "SramFaultConfig",
    "TraceFaultConfig",
    "WatchdogConfig",
    "activate",
    "deactivate",
    "flip_fp16_bits",
    "flip_quantized_bits",
    "format_degradation",
    "get_active",
    "get_log",
    "inject_model_faults",
    "inject_trace_faults",
    "plan_remap",
    "plan_scope",
    "scrub_colors",
    "scrub_trace",
]
