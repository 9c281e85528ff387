"""Process-wide metrics: counters, gauges, and log-scale histograms.

The :class:`MetricsRegistry` is a thread-safe name -> instrument map.
Instruments are create-on-first-use (``registry.counter("trainer.rays")``)
so call sites never coordinate; asking for an existing name with a
different instrument type is an error rather than silent aliasing.

Histograms bucket observations on a geometric grid (default four buckets
per octave, ~9% relative width), the standard trick for latency-style
distributions whose range spans many orders of magnitude: memory stays
bounded while p50/p95/p99 come back within one bucket width of the truth.

Like the rest of :mod:`repro.telemetry`, this module is stdlib-only.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque


class Counter:
    """Monotonically increasing value (accepts float increments: cycles,
    bytes, and simulated quantities are not integers)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add a non-negative ``amount``."""
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The running total."""
        return self._value


class Gauge:
    """Last-write-wins scalar (loss, utilization, rates)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (either sign) to the value."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The last value set."""
        return self._value


class Histogram:
    """Log-scale histogram with approximate percentiles.

    Bucket *i* covers ``[min_bound * growth**i, min_bound * growth**(i+1))``;
    non-positive observations land in a dedicated underflow bucket.
    Percentiles report the geometric midpoint of the covering bucket,
    clamped to the exact observed min/max.
    """

    __slots__ = ("name", "growth", "min_bound", "_counts", "_lock",
                 "count", "sum", "min", "max")

    def __init__(self, name: str, growth: float = 2.0 ** 0.25,
                 min_bound: float = 1e-9):
        if growth <= 1.0:
            raise ValueError("growth must exceed 1")
        self.name = name
        self.growth = growth
        self.min_bound = min_bound
        self._counts = {}
        self._lock = threading.Lock()
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def _bucket(self, value: float) -> int:
        if value < self.min_bound:
            return -1
        return int(math.log(value / self.min_bound) / math.log(self.growth))

    def observe(self, value: float, n: int = 1) -> None:
        """Record ``value``; ``n`` collapses repeated identical samples
        (e.g. a pre-binned per-ray count distribution) into one call.

        Non-finite observations are rejected: a NaN or infinity would
        poison every percentile downstream, so it fails loudly at the
        recording site instead.
        """
        value = float(value)
        if not math.isfinite(value):
            raise ValueError(
                f"histogram {self.name!r} observed non-finite value {value!r}"
            )
        idx = self._bucket(value)
        with self._lock:
            self._counts[idx] = self._counts.get(idx, 0) + n
            self.count += n
            self.sum += value * n
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value

    @property
    def mean(self) -> float:
        """Mean of the observed values (0 when empty)."""
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (``q`` in [0, 100]).

        Edge cases are always defined, never NaN: an empty histogram
        reports ``0.0`` (matching :meth:`summary`'s zero-filled form),
        a single observation — or any population of identical values —
        reports that exact value for every ``q``, and ``q`` of exactly 0
        or 100 report the observed min/max rather than a bucket estimate.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        with self._lock:
            if self.count == 0:
                return 0.0
            if self.min == self.max:
                return self.min  # single sample / identical population
            if q == 0.0:
                return self.min
            if q == 100.0:
                return self.max
            target = q / 100.0 * self.count
            seen = 0
            for idx in sorted(self._counts):
                seen += self._counts[idx]
                if seen >= target:
                    if idx < 0:
                        # Underflow bucket covers (-inf, min_bound): clamp
                        # zero into the observed range so an all-negative
                        # population never reports a value it did not see.
                        return min(max(0.0, self.min), self.max)
                    lower = self.min_bound * self.growth ** idx
                    upper = lower * self.growth
                    estimate = math.sqrt(lower * upper)
                    return min(max(estimate, self.min), self.max)
            return self.max

    def summary(self) -> dict:
        """count/sum/mean/min/max plus p50/p95/p99."""
        if self.count == 0:
            return {"count": 0, "sum": 0.0, "mean": 0.0, "min": 0.0,
                    "max": 0.0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
        }


class MetricsRegistry:
    """Thread-safe, create-on-first-use instrument registry."""

    def __init__(self):
        self._instruments = {}
        self._lock = threading.Lock()

    def _get(self, name: str, cls, *args):
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = cls(name, *args)
            elif not isinstance(instrument, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not {cls.__name__}"
                )
            return instrument

    def counter(self, name: str) -> Counter:
        """The counter named ``name``, created on first use."""
        return self._get(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge named ``name``, created on first use."""
        return self._get(name, Gauge)

    def histogram(self, name: str, **kwargs) -> Histogram:
        """The histogram named ``name``, created on first use."""
        with self._lock:
            instrument = self._instruments.get(name)
            if instrument is None:
                instrument = self._instruments[name] = Histogram(name, **kwargs)
            elif not isinstance(instrument, Histogram):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{type(instrument).__name__}, not Histogram"
                )
            return instrument

    def names(self) -> list:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def snapshot(self) -> dict:
        """Point-in-time dump: ``{"counters": ..., "gauges": ...,
        "histograms": ...}``, all plain JSON-serializable values."""
        with self._lock:
            instruments = dict(self._instruments)
        out = {"counters": {}, "gauges": {}, "histograms": {}}
        for name, instrument in sorted(instruments.items()):
            if isinstance(instrument, Counter):
                out["counters"][name] = instrument.value
            elif isinstance(instrument, Gauge):
                out["gauges"][name] = instrument.value
            else:
                out["histograms"][name] = instrument.summary()
        return out

    def clear(self) -> None:
        """Forget every registered metric."""
        with self._lock:
            self._instruments.clear()


class SnapshotPublisher:
    """Periodic metrics-snapshot ring buffer feeding the live ops plane.

    Instrumented loops (the serve dispatch loop, the trainer step) call
    :meth:`maybe_publish` with their own clock — the serve subsystem
    passes its *virtual* service clock, the trainer passes nothing and
    gets wall time — and the publisher samples the registry at most once
    per ``interval_s``, keeping the last ``capacity`` snapshots.  Each
    snapshot is the registry's plain-JSON :meth:`MetricsRegistry.snapshot`
    dict plus a ``"t_s"`` timestamp, which is exactly what the dashboard
    (:mod:`repro.obs.dashboard`) differentiates into rates.

    The publisher only ever *reads* instruments, so attaching one cannot
    change any recorded value, and it lives behind
    ``TelemetrySession.publisher`` (default ``None``) so the disabled
    telemetry path never touches it.
    """

    def __init__(self, registry, interval_s: float = 1.0, capacity: int = 256):
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.registry = registry
        self.interval_s = interval_s
        self.capacity = capacity
        self._ring = deque(maxlen=capacity)
        self._last_t = None
        self._lock = threading.Lock()

    def maybe_publish(self, now_s: float = None):
        """Publish a snapshot if ``interval_s`` has elapsed since the last.

        ``now_s`` is the caller's clock (virtual seconds for the serving
        stack); ``None`` falls back to ``time.monotonic()``.  Returns the
        new snapshot dict, or ``None`` when the interval has not elapsed.
        """
        now_s = time.monotonic() if now_s is None else float(now_s)
        with self._lock:
            if self._last_t is not None and now_s - self._last_t < self.interval_s:
                return None
        return self.publish(now_s)

    def publish(self, now_s: float = None) -> dict:
        """Unconditionally sample the registry and append to the ring."""
        now_s = time.monotonic() if now_s is None else float(now_s)
        snapshot = self.registry.snapshot()
        snapshot["t_s"] = now_s
        with self._lock:
            self._ring.append(snapshot)
            self._last_t = now_s
        return snapshot

    def history(self) -> list:
        """All retained snapshots, oldest first."""
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def clear(self) -> None:
        """Drop all retained snapshots and reset the interval timer."""
        with self._lock:
            self._ring.clear()
            self._last_t = None


class _NullInstrument:
    """Accepts every instrument method as a no-op."""

    __slots__ = ()
    name = "null"
    value = 0.0
    count = 0
    sum = 0.0
    mean = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float, n: int = 1) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {}


_NULL_INSTRUMENT = _NullInstrument()


class NullMetricsRegistry:
    """Zero-overhead registry: every lookup is the same null instrument."""

    def counter(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def histogram(self, name: str, **kwargs) -> _NullInstrument:
        """The shared no-op instrument."""
        return _NULL_INSTRUMENT

    def names(self) -> list:
        """No names: nothing is recorded."""
        return []

    def snapshot(self) -> dict:
        """An empty snapshot."""
        return {"counters": {}, "gauges": {}, "histograms": {}}

    def clear(self) -> None:
        """Nothing to clear."""
        pass


#: Process-wide no-op registry used whenever telemetry is disabled.
NULL_METRICS = NullMetricsRegistry()
