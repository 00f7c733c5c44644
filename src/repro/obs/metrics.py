"""The metrics registry: counters, gauges and latency histograms in one place.

Before this module every subsystem grew its own counter dataclass —
``ServeCounters``, ``FabricCounters``, the coordinator's ``FaultCounters``,
``CacheCounters`` — each with a private ``snapshot()`` and no single place to
ask "what is this process doing?".  Those dataclasses stay (they are
picklable operational state, persisted in checkpoints and plan stores); the
registry *unifies their read side*: subsystems register their snapshot
callables as **providers**, first-class latency distributions live in
registry :class:`Histogram` instruments (backed by the same reservoir
sampler the SLO trackers use,
:class:`~repro.harness.metrics.StreamingPercentiles`), and one
:meth:`MetricsRegistry.snapshot` renders the whole stack.

Determinism: histograms draw reservoir replacements from private seeded
generators (seeded by a stable digest of the instrument name), so metrics
collection never touches any RNG the optimizer or executor depends on.  The
clock is injectable for the same reason tests want it everywhere else.

Per-worker merging: registries and their instruments are picklable
(providers — arbitrary callables — are dropped on pickle) and
:meth:`MetricsRegistry.merge` folds a worker's registry into the
scheduler's: counters add, gauges last-write-wins, histograms merge their
reservoirs via :meth:`StreamingPercentiles.merge`.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.utils.seeding import stable_digest

__all__ = ["Counter", "Gauge", "Histogram", "MetricsRegistry"]


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def __getstate__(self):
        return self.value

    def __setstate__(self, state) -> None:
        self.value = state


class Gauge:
    """A point-in-time value (queue depth, in-flight executions)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def __getstate__(self):
        return self.value

    def __setstate__(self, state) -> None:
        self.value = state


class Histogram:
    """A latency distribution over a bounded reservoir."""

    __slots__ = ("reservoir",)

    def __init__(self, capacity: int = 512, seed: int = 0) -> None:
        # Imported lazily: the scheduler (repro.harness.runner) imports this
        # module, and repro.harness's package init imports the scheduler — a
        # top-level import here would close that cycle mid-initialization.
        from repro.harness.metrics import StreamingPercentiles

        self.reservoir = StreamingPercentiles(capacity, seed=seed)

    def observe(self, value: float) -> None:
        self.reservoir.add(value)

    @property
    def count(self) -> int:
        return len(self.reservoir)

    def percentile(self, q: float) -> float:
        return self.reservoir.percentile(q)

    def merge(self, other: "Histogram") -> None:
        self.reservoir.merge(other.reservoir)

    def snapshot(self) -> dict:
        return self.reservoir.snapshot()

    def __getstate__(self):
        return self.reservoir

    def __setstate__(self, state) -> None:
        self.reservoir = state


class _Timer:
    """Context manager feeding an elapsed duration into a histogram."""

    __slots__ = ("_histogram", "_clock", "_start")

    def __init__(self, histogram: Histogram, clock: Callable[[], float]) -> None:
        self._histogram = histogram
        self._clock = clock

    def __enter__(self) -> "_Timer":
        self._start = self._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._histogram.observe(self._clock() - self._start)


class MetricsRegistry:
    """Get-or-create instruments plus pluggable subsystem providers.

    Instruments are identified by name; asking twice returns the same
    object, so subsystems can share a registry without coordination.
    Providers are zero-argument callables returning a JSON-ish dict — the
    existing ``snapshot()``/``summary()`` methods of the per-subsystem
    counter objects plug in unchanged, which is how the serve, coordinator,
    fault-injection and execution-cache counters all surface through one
    :meth:`snapshot`.
    """

    def __init__(self, clock: Callable[[], float] | None = None, seed: int = 0) -> None:
        self._clock = clock or time.perf_counter
        self.seed = seed
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._providers: dict[str, Callable[[], dict]] = {}

    # ------------------------------------------------------------------ instruments
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter()
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge()
        return instrument

    def histogram(self, name: str, capacity: int = 512) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                capacity, seed=stable_digest("metrics", self.seed, name)
            )
        return instrument

    def timer(self, name: str, capacity: int = 512) -> _Timer:
        """``with registry.timer("serve.maintenance"): ...``"""
        return _Timer(self.histogram(name, capacity), self._clock)

    # ------------------------------------------------------------------ providers
    def register_provider(self, name: str, provider: Callable[[], dict]) -> None:
        """Attach a subsystem's snapshot callable under ``name``.

        Last registration wins, so re-wiring after a resume is harmless.
        """
        self._providers[name] = provider

    # ------------------------------------------------------------------ reading
    def snapshot(self) -> dict:
        """Everything: instruments plus every provider's current snapshot.

        A provider that raises reports its error string instead of killing
        the whole snapshot — telemetry must never take the server down.
        """
        providers = {}
        for name, provider in sorted(self._providers.items()):
            try:
                providers[name] = provider()
            except Exception as exc:  # noqa: BLE001 - surfaced, not fatal
                providers[name] = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.snapshot() for name, h in sorted(self._histograms.items())},
            "providers": providers,
        }

    # ------------------------------------------------------------------ merging
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold a (worker's) registry into this one.

        Counters add, gauges take the other side's latest value, histograms
        merge reservoirs.  Providers are process-local and do not transfer.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).set(gauge.value)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = histogram
            else:
                mine.merge(histogram)

    # ------------------------------------------------------------------ pickling
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_providers"] = {}
        try:
            import pickle

            pickle.dumps(state["_clock"])
        except Exception:
            state["_clock"] = None
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)
        if self._clock is None:
            self._clock = time.perf_counter
