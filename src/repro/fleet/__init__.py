"""Fault-tolerant distributed render fleet.

Scales the single-board serving plane (:mod:`repro.serve`) out to N
simulated render workers while keeping its client surface: scenes are
sharded across workers by consistent hashing with replication, MoE
experts are placed one-per-worker the way
:class:`~repro.sim.multichip.MultiChipSystem` places them one-per-chip,
and the controller survives worker churn — crashes, stalls,
slow-degrades, dropped replies — through heartbeats, per-RPC deadlines,
hedged dispatch, budgeted backoff retries, and greedy-LPT rebalance on
death.  Three modules:

* :mod:`repro.fleet.placement` — the consistent-hash ring and the
  scene/expert placement policies;
* :mod:`repro.fleet.workers` — the simulated worker: a serial board
  plus the fault surface the chaos plan drives;
* :mod:`repro.fleet.controller` — the controller's event handlers and
  fleet report panel on the serve layer's event core
  (:class:`~repro.serve.service.ServingCore`), where requests are
  accounted exactly once on its
  :class:`~repro.serve.ledger.RequestLedger`.

The whole fleet is a seeded discrete-event simulation on a virtual
clock, so chaos scenarios (kill 1 of N mid-run) replay bit-exactly,
and a replica-served frame is bit-identical to a primary-served one.
"""

from .controller import (
    FAILED_NO_WORKER,
    FAILED_RPC_EXPIRED,
    FleetConfig,
    FleetController,
)
from .placement import (
    HashRing,
    place_experts,
    rebalance_experts,
    stable_hash,
)
from .workers import (
    DEAD,
    HEALTHY,
    SLOW,
    FleetWorker,
    workers_from_fault_config,
)

__all__ = [
    "DEAD",
    "FAILED_NO_WORKER",
    "FAILED_RPC_EXPIRED",
    "FleetConfig",
    "FleetController",
    "FleetWorker",
    "HEALTHY",
    "HashRing",
    "SLOW",
    "place_experts",
    "rebalance_experts",
    "stable_hash",
    "workers_from_fault_config",
]
