"""Jittered exponential backoff with a deadline budget.

A retry loop under churn wants three properties: delays that grow
geometrically (so a persistently failing dependency is not hammered),
jitter (so independent retriers do not synchronize into retry storms),
and a hard budget (so retrying never outlives the caller's deadline).
:class:`BackoffPolicy` packages them once; the fleet controller
(:mod:`repro.fleet`) paces its per-RPC retries with it.

Determinism: jitter draws come from a caller-supplied seeded
:class:`numpy.random.Generator`, so a retry schedule is reproducible
bit-for-bit from the seed — the property the fleet's chaos experiments
rely on.  With ``rng=None`` the nominal (un-jittered) delay is used.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class BackoffPolicy:
    """Retry schedule: capped exponential delays with symmetric jitter.

    The *k*-th retry (k = 1 for the first) nominally waits
    ``base_s * multiplier**(k - 1)`` seconds, capped at ``max_delay_s``;
    jitter scales that by a uniform draw from
    ``[1 - jitter, 1 + jitter]`` (mean-preserving).  ``max_retries``
    bounds how many retries :meth:`allows` permits; a ``deadline
    budget`` passed to :meth:`delay_s` additionally clips any delay to
    the time remaining.
    """

    #: Nominal delay of the first retry, seconds (0 = retry immediately).
    base_s: float = 0.05
    #: Geometric growth factor per retry.
    multiplier: float = 2.0
    #: Hard cap on one nominal delay, seconds.
    max_delay_s: float = 2.0
    #: Symmetric jitter fraction in [0, 1): delay scales by a uniform
    #: draw from ``[1 - jitter, 1 + jitter]``.
    jitter: float = 0.5
    #: Retries allowed after the initial attempt (0 = never retry).
    max_retries: int = 3

    def __post_init__(self):
        if self.base_s < 0:
            raise ValueError("base_s must be non-negative")
        if self.multiplier < 1.0:
            raise ValueError("multiplier must be >= 1")
        if self.max_delay_s < 0:
            raise ValueError("max_delay_s must be non-negative")
        if not 0.0 <= self.jitter < 1.0:
            raise ValueError("jitter must be in [0, 1)")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")

    def allows(self, retry: int) -> bool:
        """Whether retry number ``retry`` (1-based) is within budget."""
        if retry < 1:
            raise ValueError("retry numbers are 1-based")
        return retry <= self.max_retries

    def nominal_delay_s(self, retry: int) -> float:
        """Un-jittered delay of retry ``retry`` (1-based), capped."""
        if retry < 1:
            raise ValueError("retry numbers are 1-based")
        return min(
            self.base_s * self.multiplier ** (retry - 1), self.max_delay_s
        )

    def delay_s(self, retry: int, rng=None, budget_s: float = None) -> float:
        """Actual delay before retry ``retry``: jittered and budget-clipped.

        ``rng`` is a :class:`numpy.random.Generator` for the jitter draw
        (``None`` = no jitter, nominal delay).  ``budget_s`` is the time
        remaining until the caller's deadline; the returned delay never
        exceeds it (and is 0 when the budget is already spent — whether
        retrying at all still makes sense is :meth:`within_budget`'s
        question, not this one's).
        """
        delay = self.nominal_delay_s(retry)
        if rng is not None and self.jitter > 0.0 and delay > 0.0:
            span = 2.0 * self.jitter
            delay *= (1.0 - self.jitter) + span * float(rng.random())
        if budget_s is not None:
            delay = min(delay, max(budget_s, 0.0))
        return delay

    def within_budget(self, retry: int, budget_s: float = None) -> bool:
        """Whether retry ``retry`` is allowed *and* has budget left.

        A retry with zero or negative remaining ``budget_s`` is pointless
        — the work it schedules would land past the deadline — so it is
        refused even when :meth:`allows` would permit it.
        """
        if not self.allows(retry):
            return False
        return budget_s is None or budget_s > 0.0

