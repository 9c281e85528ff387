"""Fault plans: deterministic, seedable fault-injection configuration.

A :class:`FaultPlan` bundles every fault model the robustness subsystem
knows how to inject — SRAM soft errors in the model's weight stores,
dead chiplets and degraded inter-chip links in the multi-chip simulator,
corrupted workload-trace entries, and worker churn in the render fleet
(crashes, stalls, slow-degrades, dropped replies) — plus the training
watchdog's recovery policy.  Plans are frozen dataclasses with a canonical JSON
form, so a degradation curve is reproducible from a checked-in
``plan.json`` artifact (``fusion3d-experiments run NAME --faults
plan.json``).

Determinism: every injection site derives its generator from
:meth:`FaultPlan.rng` with a site-specific salt, so two runs of the same
plan flip the same bits in the same entries regardless of experiment
order or process count.

Activation mirrors :mod:`repro.parallel.cache`: a process-global plan is
installed with :func:`activate` / :func:`plan_scope`, and the
instrumented layers consult :func:`get_active`, which returns ``None``
both when no plan is installed *and* when the installed plan is empty.
That single gate is what makes the "faults disabled == bit-identical"
guarantee structural: an empty plan is indistinguishable from no plan at
every injection site.
"""

from __future__ import annotations

import json
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import FaultConfigError, FaultLog


@dataclass(frozen=True)
class SramFaultConfig:
    """SRAM soft-error model: bit flips in the on-chip weight stores.

    Hash-table entries live in the fp16 feature SRAM, so their flips are
    applied in the IEEE-754 half-precision bit pattern; MLP weights are
    stored INT8 (the paper's mixed-precision datapath), so their flips
    are applied to the fixed-point code words of
    :func:`repro.nerf.quantization.quantize_int8_fixed`.
    """

    #: Bit flips to inject into hash-table entries (fp16 bit pattern).
    hash_table_bit_flips: int = 0
    #: Bit flips to inject into MLP weights (INT8 fixed-point codes).
    mlp_bit_flips: int = 0
    #: Fixed-point step of the INT8 weight store (Q3.4 by default).
    quant_step: float = 1.0 / 16.0

    def __post_init__(self):
        if self.hash_table_bit_flips < 0 or self.mlp_bit_flips < 0:
            raise FaultConfigError("bit-flip counts must be non-negative")
        if self.quant_step <= 0:
            raise FaultConfigError("quant_step must be positive")

    @property
    def is_empty(self) -> bool:
        """True when this config injects nothing."""
        return self.hash_table_bit_flips == 0 and self.mlp_bit_flips == 0


@dataclass(frozen=True)
class ChipletFaultConfig:
    """Dead chiplets and degraded inter-chip links.

    ``policy`` selects the graceful-degradation response of
    :class:`repro.sim.multichip.MultiChipSystem`:

    * ``"remap"`` — a dead chip's MoE expert is rescheduled onto the
      least-loaded surviving chip (latency cost, no quality cost);
    * ``"drop"`` — the dead chip's expert is simply lost from the fused
      render (quality cost, no latency cost).
    """

    #: Indices of chips that are dead (empty = all healthy).
    dead_chips: tuple = ()
    #: Multiplier on surviving chip-link bandwidth (1.0 = undegraded).
    link_bandwidth_factor: float = 1.0
    #: ``"remap"`` or ``"drop"`` (see class docstring).
    policy: str = "remap"

    def __post_init__(self):
        dead = tuple(int(c) for c in self.dead_chips)
        if len(set(dead)) != len(dead):
            raise FaultConfigError("dead_chips must be unique")
        if any(c < 0 for c in dead):
            raise FaultConfigError("dead_chips must be non-negative indices")
        object.__setattr__(self, "dead_chips", dead)
        if not 0.0 < self.link_bandwidth_factor <= 1.0:
            raise FaultConfigError("link_bandwidth_factor must be in (0, 1]")
        if self.policy not in ("remap", "drop"):
            raise FaultConfigError(f"unknown degradation policy {self.policy!r}")

    @property
    def is_empty(self) -> bool:
        """True when no chiplet or link fault is configured."""
        return not self.dead_chips and self.link_bandwidth_factor == 1.0


@dataclass(frozen=True)
class TraceFaultConfig:
    """Corruption of workload-trace entries.

    ``mode="nan"`` poisons a fraction of pair durations with NaN (the
    clamp-and-flag path must scrub them); ``mode="spike"`` multiplies
    them by ``spike_factor`` (the scheduler must absorb the latency).
    """

    #: Fraction of pair-duration entries to corrupt, in [0, 1].
    corrupt_fraction: float = 0.0
    #: ``"nan"`` or ``"spike"``.
    mode: str = "nan"
    #: Duration multiplier for ``"spike"`` corruption.
    spike_factor: float = 64.0

    def __post_init__(self):
        if not 0.0 <= self.corrupt_fraction <= 1.0:
            raise FaultConfigError("corrupt_fraction must be in [0, 1]")
        if self.mode not in ("nan", "spike"):
            raise FaultConfigError(f"unknown trace corruption mode {self.mode!r}")
        if self.spike_factor <= 0:
            raise FaultConfigError("spike_factor must be positive")

    @property
    def is_empty(self) -> bool:
        """True when no trace corruption is configured."""
        return self.corrupt_fraction == 0.0


@dataclass(frozen=True)
class FleetFaultConfig:
    """Worker-level churn injected into the render fleet.

    These are the fault sites of :mod:`repro.fleet`: a worker can crash
    (permanently dead — triggers shard rebalance), stall (stops
    responding for a window, then recovers), or slow-degrade (service
    times inflate by a factor from some instant on).  Independently, a
    fraction of RPC replies can be dropped — the worker does the work
    but the controller never hears back, exercising the retry/hedge
    path.  All times are virtual fleet-clock seconds; all draws derive
    from :meth:`FaultPlan.rng`, so a churn scenario replays bit-exactly.
    """

    #: ``(worker_index, at_s)`` pairs: worker dies at ``at_s``.
    crashes: tuple = ()
    #: ``(worker_index, at_s, duration_s)``: worker goes silent for a window.
    stalls: tuple = ()
    #: ``(worker_index, at_s, factor)``: service time scales by ``factor``.
    slowdowns: tuple = ()
    #: Fraction of RPC replies silently dropped, in [0, 1].
    drop_reply_fraction: float = 0.0

    def __post_init__(self):
        crashes = tuple(
            (int(w), float(t)) for w, t in (tuple(e) for e in self.crashes)
        )
        stalls = tuple(
            (int(w), float(t), float(d))
            for w, t, d in (tuple(e) for e in self.stalls)
        )
        slowdowns = tuple(
            (int(w), float(t), float(f))
            for w, t, f in (tuple(e) for e in self.slowdowns)
        )
        if any(w < 0 or t < 0 for w, t in crashes):
            raise FaultConfigError("crashes need worker >= 0 and at_s >= 0")
        if len({w for w, _ in crashes}) != len(crashes):
            raise FaultConfigError("at most one crash per worker")
        if any(w < 0 or t < 0 or d <= 0 for w, t, d in stalls):
            raise FaultConfigError(
                "stalls need worker >= 0, at_s >= 0 and duration_s > 0"
            )
        if any(w < 0 or t < 0 or f < 1.0 for w, t, f in slowdowns):
            raise FaultConfigError(
                "slowdowns need worker >= 0, at_s >= 0 and factor >= 1"
            )
        object.__setattr__(self, "crashes", crashes)
        object.__setattr__(self, "stalls", stalls)
        object.__setattr__(self, "slowdowns", slowdowns)
        if not 0.0 <= self.drop_reply_fraction <= 1.0:
            raise FaultConfigError("drop_reply_fraction must be in [0, 1]")

    @property
    def is_empty(self) -> bool:
        """True when no fleet churn is configured."""
        return (
            not self.crashes
            and not self.stalls
            and not self.slowdowns
            and self.drop_reply_fraction == 0.0
        )


@dataclass(frozen=True)
class WatchdogConfig:
    """Recovery policy of the training divergence watchdog.

    This is *recovery* configuration, not an injection, so it does not
    count toward a plan's emptiness — an otherwise-empty plan carrying a
    watchdog config still leaves every numerical result bit-identical.
    """

    #: Take a parameter snapshot every this many finite iterations.
    snapshot_interval: int = 25
    #: Learning-rate multiplier applied at each rollback.
    lr_backoff: float = 0.5
    #: Gradient-norm divergence threshold (0 = loss-based detection only).
    grad_norm_threshold: float = 0.0
    #: Rollbacks allowed before the watchdog gives up and re-raises.
    max_rollbacks: int = 8

    def __post_init__(self):
        if self.snapshot_interval < 1:
            raise FaultConfigError("snapshot_interval must be >= 1")
        if not 0.0 < self.lr_backoff <= 1.0:
            raise FaultConfigError("lr_backoff must be in (0, 1]")
        if self.grad_norm_threshold < 0:
            raise FaultConfigError("grad_norm_threshold must be non-negative")
        if self.max_rollbacks < 0:
            raise FaultConfigError("max_rollbacks must be non-negative")


_SECTION_TYPES = {
    "sram": SramFaultConfig,
    "chiplets": ChipletFaultConfig,
    "trace": TraceFaultConfig,
    "fleet": FleetFaultConfig,
    "watchdog": WatchdogConfig,
}


@dataclass(frozen=True)
class FaultPlan:
    """One composable fault-injection configuration (see module doc)."""

    seed: int = 0
    sram: SramFaultConfig = field(default_factory=SramFaultConfig)
    chiplets: ChipletFaultConfig = field(default_factory=ChipletFaultConfig)
    trace: TraceFaultConfig = field(default_factory=TraceFaultConfig)
    fleet: FleetFaultConfig = field(default_factory=FleetFaultConfig)
    watchdog: WatchdogConfig = field(default_factory=WatchdogConfig)

    @property
    def is_empty(self) -> bool:
        """True when the plan injects no fault at all.

        The watchdog section is recovery policy, not an injection, so it
        is deliberately excluded: see :class:`WatchdogConfig`.
        """
        return (
            self.sram.is_empty
            and self.chiplets.is_empty
            and self.trace.is_empty
            and self.fleet.is_empty
        )

    def rng(self, site: str) -> np.random.Generator:
        """Deterministic per-site generator: seed + CRC32 of ``site``.

        Two runs of the same plan hand the same stream to the same
        injection site, independent of experiment order.
        """
        return np.random.default_rng(
            np.random.SeedSequence([self.seed, zlib.crc32(site.encode("utf-8"))])
        )

    # -- serialization -------------------------------------------------

    def to_dict(self) -> dict:
        """Plain-dict form (the JSON schema of ``--faults`` plan files)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from a (possibly partial) plain dict.

        Missing sections take their defaults; unknown keys raise
        :class:`~repro.robustness.errors.FaultConfigError` so a typo in a
        plan file cannot silently disable a fault.
        """
        if not isinstance(data, dict):
            raise FaultConfigError("fault plan must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise FaultConfigError(f"unknown fault-plan keys {sorted(unknown)}")
        kwargs = {}
        if "seed" in data:
            kwargs["seed"] = int(data["seed"])
        for name, section_cls in _SECTION_TYPES.items():
            if name not in data:
                continue
            section = data[name]
            if not isinstance(section, dict):
                raise FaultConfigError(f"fault-plan section {name!r} must be an object")
            section_known = {f.name for f in fields(section_cls)}
            section_unknown = set(section) - section_known
            if section_unknown:
                raise FaultConfigError(
                    f"unknown keys {sorted(section_unknown)} in fault-plan "
                    f"section {name!r}"
                )
            try:
                kwargs[name] = section_cls(**section)
            except TypeError as exc:
                raise FaultConfigError(f"bad fault-plan section {name!r}: {exc}")
        return cls(**kwargs)

    def to_json(self) -> str:
        """Canonical JSON encoding of the plan."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        """Parse a plan from its JSON encoding."""
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultConfigError(f"fault plan is not valid JSON: {exc}")
        return cls.from_dict(data)

    @classmethod
    def from_file(cls, path) -> "FaultPlan":
        """Load a plan from a ``--faults`` JSON file."""
        with open(path, "r") as fh:
            return cls.from_json(fh.read())


# ----------------------------------------------------------------------
# process-global activation (mirrors repro.parallel.cache)

_active_plan = None
_active_log = None


def activate(plan: FaultPlan) -> None:
    """Install ``plan`` as this process's active fault plan."""
    global _active_plan, _active_log
    if plan is not None and not isinstance(plan, FaultPlan):
        raise FaultConfigError("activate() expects a FaultPlan or None")
    _active_plan = plan
    _active_log = FaultLog() if plan is not None else None


def deactivate() -> None:
    """Remove the active fault plan (faults off — the default)."""
    global _active_plan, _active_log
    _active_plan = None
    _active_log = None


def get_active() -> FaultPlan:
    """The active *non-empty* plan, or ``None``.

    Returns ``None`` for an activated empty plan too: this is the single
    gate every injection site consults, so "empty plan" and "no plan"
    are the same code path by construction — the structural half of the
    bit-identity guarantee.
    """
    if _active_plan is None or _active_plan.is_empty:
        return None
    return _active_plan


def get_log() -> FaultLog:
    """The active plan's fault log, or ``None`` when no plan is active."""
    return _active_log


@contextmanager
def plan_scope(plan: FaultPlan):
    """Scoped activation: installs ``plan``, restores the previous one.

    Yields the plan, so sweeps can nest scopes to vary one knob at a
    time without clobbering an outer ``--faults`` activation.
    """
    global _active_plan, _active_log
    previous_plan, previous_log = _active_plan, _active_log
    activate(plan)
    try:
        yield plan
    finally:
        _active_plan, _active_log = previous_plan, previous_log
