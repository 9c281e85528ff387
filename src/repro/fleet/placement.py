"""Scene and expert placement across the render fleet.

Two placement policies, mirroring the two levels the paper scales at:

* **scenes** ride a consistent-hash ring with virtual nodes
  (:class:`HashRing`): each scene hashes to a primary worker plus
  ``replication - 1`` replicas (its *preference list*, the next distinct
  workers clockwise).  When a worker dies, only the scenes it carried
  move — the defining property of consistent hashing, and the reason
  fleet churn does not reshuffle every placement;
* **MoE experts** are placed one-per-worker exactly as
  :class:`~repro.sim.multichip.MultiChipSystem` places them one-per-chip
  (expert *i* on worker *i*), and on worker death are remapped onto the
  least-loaded survivors by the same greedy-LPT policy the chip level
  uses — :func:`repro.robustness.degradation.plan_remap` is called
  directly, not reimplemented.

All hashing is CRC32-based, so placement is deterministic across
processes and Python hash-randomization settings.
"""

from __future__ import annotations

import zlib

from ..robustness.degradation import plan_remap


def stable_hash(key: str) -> int:
    """Deterministic 32-bit hash of a string key (CRC32).

    ``hash()`` is salted per process (``PYTHONHASHSEED``), which would
    make placement differ run to run; CRC32 is stable everywhere.
    """
    return zlib.crc32(key.encode("utf-8")) & 0xFFFFFFFF


class HashRing:
    """Consistent-hash ring over worker indices, with virtual nodes.

    Each worker contributes ``vnodes`` points on the ring; a key's
    preference list is the first ``n`` *distinct* workers clockwise from
    the key's own point.  Removing a worker removes only its points, so
    keys that did not map to it keep their placement.
    """

    def __init__(self, workers, vnodes: int = 32):
        if vnodes < 1:
            raise ValueError("vnodes must be positive")
        self.vnodes = vnodes
        self._workers = set()
        self._points = []  # sorted [(point, worker), ...]
        for worker in workers:
            self.add(int(worker))

    @property
    def workers(self) -> list:
        """Live worker indices, ascending."""
        return sorted(self._workers)

    def __len__(self) -> int:
        return len(self._workers)

    def __contains__(self, worker: int) -> bool:
        return int(worker) in self._workers

    def add(self, worker: int) -> None:
        """Add a worker's virtual nodes to the ring (idempotent)."""
        worker = int(worker)
        if worker in self._workers:
            return
        self._workers.add(worker)
        for v in range(self.vnodes):
            self._points.append((stable_hash(f"worker-{worker}/vnode-{v}"), worker))
        self._points.sort()

    def remove(self, worker: int) -> None:
        """Remove a worker (e.g. declared dead); its keys move, others stay."""
        worker = int(worker)
        if worker not in self._workers:
            return
        self._workers.discard(worker)
        self._points = [(p, w) for p, w in self._points if w != worker]

    def preference(self, key: str, n: int) -> list:
        """First ``n`` distinct workers clockwise from ``key``'s point.

        Entry 0 is the key's primary; the rest are its replicas in
        takeover order.  Returns fewer than ``n`` workers when the ring
        holds fewer.
        """
        if not self._points:
            return []
        point = stable_hash(key)
        # Binary search for the first ring point at or after the key.
        lo, hi = 0, len(self._points)
        while lo < hi:
            mid = (lo + hi) // 2
            if self._points[mid][0] < point:
                lo = mid + 1
            else:
                hi = mid
        preference = []
        for i in range(len(self._points)):
            worker = self._points[(lo + i) % len(self._points)][1]
            if worker not in preference:
                preference.append(worker)
                if len(preference) >= n:
                    break
        return preference


def place_experts(n_workers: int) -> dict:
    """Initial MoE expert assignment: expert *i* on worker *i*.

    The identity mapping :class:`~repro.sim.multichip.MultiChipSystem`
    uses for healthy boards, lifted one level up.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be positive")
    return {worker: [worker] for worker in range(n_workers)}


def rebalance_experts(n_workers: int, dead_workers, loads) -> dict:
    """Remap every expert onto the surviving workers (greedy LPT).

    Thin wrapper over :func:`repro.robustness.degradation.plan_remap`
    with workers in place of chips: each survivor keeps its own expert,
    dead workers' experts go to the least-loaded survivor, heaviest
    first.  ``loads[i]`` is expert *i*'s observed load proxy.
    """
    return plan_remap(n_workers, dead_workers, loads)
