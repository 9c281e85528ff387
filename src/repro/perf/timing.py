"""Wall-clock timing primitives for the benchmark harness.

Every measurement here is *paired*: a reference implementation and its
optimized replacement are timed back to back in the same process, and
the recorded figure of merit is the speedup ratio.  Ratios transfer
across machines (both sides see the same CPU, cache state, and NumPy
build), which is what lets CI gate on a baseline recorded elsewhere —
absolute milliseconds are kept in the payload for human eyes only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass


def time_callable(fn, repeats: int = 5, warmup: int = 1) -> float:
    """Best-of-``repeats`` wall time of ``fn()`` in seconds.

    Best (not mean) is the standard noise-robust estimator for
    single-process CPU microbenchmarks: scheduling hiccups only ever add
    time, so the minimum is the closest observation to the true cost.
    ``warmup`` un-timed calls absorb lazy imports and allocator warmup.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    for _ in range(warmup):
        fn()
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best


@dataclass
class PairedTiming:
    """One reference-vs-optimized measurement."""

    ref_s: float
    opt_s: float

    @property
    def speedup(self) -> float:
        """Reference time over optimized time (>1 means faster)."""
        if self.opt_s <= 0.0:
            return float("inf")
        return self.ref_s / self.opt_s

    def as_record(self) -> dict:
        """JSON-ready ``{ref_ms, opt_ms, speedup}`` record."""
        return {
            "ref_ms": round(self.ref_s * 1e3, 4),
            "opt_ms": round(self.opt_s * 1e3, 4),
            "speedup": round(self.speedup, 3),
        }


#: Wall time (seconds) that :func:`time_pair` spreads its pairs over.
PAIR_WINDOW_S = 1.0


def time_pair(ref_fn, opt_fn, repeats: int = 5, warmup: int = 1) -> PairedTiming:
    """Time ``ref_fn`` and ``opt_fn`` interleaved (same process/state).

    Repeats alternate ref/opt rather than running each side's block
    back to back, so a transient noise window (scheduler preemption,
    frequency scaling, a neighboring process) lands on both sides of
    the pair instead of skewing one — the best-of estimator then keeps
    the ratio stable even on busy machines.

    At least ``repeats`` pairs run, and pairs keep running until
    :data:`PAIR_WINDOW_S` has passed since the first timed one started:
    the pairs then span a fixed wall-time window, so a slowdown shorter
    than the window cannot touch every pair.
    """
    if repeats < 1:
        raise ValueError("repeats must be positive")
    for _ in range(warmup):
        ref_fn()
    for _ in range(warmup):
        opt_fn()
    best_ref = best_opt = float("inf")
    done = 0
    deadline = time.perf_counter() + PAIR_WINDOW_S
    while done < repeats or time.perf_counter() < deadline:
        done += 1
        start = time.perf_counter()
        ref_fn()
        best_ref = min(best_ref, time.perf_counter() - start)
        start = time.perf_counter()
        opt_fn()
        best_opt = min(best_opt, time.perf_counter() - start)
    return PairedTiming(ref_s=best_ref, opt_s=best_opt)
