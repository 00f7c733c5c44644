"""Benchmark-owned instrumentation: layers are measured from outside only.

Nothing here reaches into ``src/``: a layer is timed by wrapping calls to its
public functions in spans of a benchmark-owned :class:`repro.obs.Tracer`, or by
a forwarding wrapper handed to the product where it expects its own object
(:class:`TimedBackend` for an execution backend, :class:`ServeProxy` for a
``PlanServer``).  Untraced passes use ``NULL_TRACER`` and the unwrapped
server, so end-to-end numbers never pay for the spans.
"""

from __future__ import annotations

import statistics
import time
from concurrent.futures import Future

import numpy as np

from repro.exec import submit_request_batch

#: Seconds :class:`ReferenceKernel` takes on the sandbox in a calm phase.
REFERENCE_S = 0.035


class ReferenceKernel:
    """A fixed piece of work that tells how fast the machine is right now.

    The sandbox's speed drifts by up to 1.6x over minutes and by +-10% from
    second to second (README, "Calibrated seconds"), the same for every
    process on it.  The kernel does the kinds of work the program does
    (bytecode, dict updates, array streaming, sorting, small factorizations)
    in about equal parts and shares no code with it, so a change to the
    program cannot move it.
    """

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 1000, 100_000)
        self._values = rng.random(1_000_000)
        square = rng.random((200, 200))
        self._spd = square @ square.T + 200 * np.eye(200)
        self._work()  # fault the pages and the lazy numpy paths in, once

    def _work(self) -> None:
        total = 0
        for i in range(100_000):
            total += i * i
        counts: dict[int, int] = {}
        for i in range(20_000):
            counts[i % 1000] = counts.get(i % 1000, 0) + 1
        for _ in range(4):
            (self._values * self._values + self._values).sum()
        np.argsort(self._keys, kind="stable")
        np.unique(self._keys)
        for _ in range(30):
            np.linalg.cholesky(self._spd)

    def slowdown(self, repeats: int = 2) -> float:
        """Mean kernel time over ``repeats`` runs, as a multiple of ``REFERENCE_S``."""
        started = time.perf_counter()
        for _ in range(repeats):
            self._work()
        return (time.perf_counter() - started) / repeats / REFERENCE_S


def percentile(values, share: float) -> float:
    """Nearest-rank percentile of ``values`` (0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, int(share * len(ordered)))])


def span_durations_ms(records, name: str) -> list[float]:
    return [record.duration * 1e3 for record in records if record.name == name]


def inflight_profile(intervals, start: float, end: float) -> tuple[float, float]:
    """``(mean requests in flight, share of [start, end] with none in flight)``.

    ``intervals`` are ``(submitted, done)`` pairs; parts outside the window
    are clipped.  A sweep over the sorted edges integrates the in-flight
    count, so overlapping requests are counted once per request and the idle
    share is exactly the time no interval covers.
    """
    window = end - start
    if window <= 0:
        return 0.0, 0.0
    edges = []
    for submitted, done in intervals:
        submitted, done = max(submitted, start), min(done, end)
        if done > submitted:
            edges.append((submitted, 1))
            edges.append((done, -1))
    edges.sort()
    area = idle = 0.0
    level, cursor = 0, start
    for at, step in edges:
        if level == 0:
            idle += at - cursor
        area += level * (at - cursor)
        level, cursor = level + step, at
    idle += end - cursor
    return area / window, idle / window


class TimedBackend:
    """Forwards an execution backend, stamping submit and future-done times.

    ``inner`` is the attribute name :func:`repro.exec.backend_health` walks,
    so the wrapped stack still reports its health through the session.
    """

    def __init__(self, inner, clock=time.perf_counter) -> None:
        self.inner = inner
        self._clock = clock
        #: ``[submitted, done or None, failed]`` per request, in submit order.
        self.requests: list[list] = []
        #: Requests per ``submit``/``submit_batch`` call.
        self.batch_sizes: list[int] = []
        self.close_s = 0.0

    def capacity(self) -> int:
        return self.inner.capacity()

    def healthy(self) -> bool:
        return self.inner.healthy()

    def close(self) -> None:
        started = self._clock()
        self.inner.close()
        self.close_s += self._clock() - started

    def _track(self, futures: "list[Future]", submitted: float) -> "list[Future]":
        self.batch_sizes.append(len(futures))
        for future in futures:
            entry = [submitted, None, False]
            self.requests.append(entry)

            def stamp(done: Future, entry=entry) -> None:
                entry[1] = self._clock()
                entry[2] = done.cancelled() or done.exception() is not None

            future.add_done_callback(stamp)
        return futures

    def submit(self, request) -> Future:
        submitted = self._clock()
        return self._track([self.inner.submit(request)], submitted)[0]

    def submit_batch(self, requests) -> "list[Future]":
        submitted = self._clock()
        # The product's own helper: one grouped submission when the inner
        # backend has a batch path, per-request otherwise.
        return self._track(submit_request_batch(self.inner, list(requests)), submitted)

    def metrics(self, start: float, end: float) -> dict[str, float]:
        """The ``exec.*`` ledger over the window ``[start, end]``."""
        settled = [(s, d) for s, d, _ in self.requests if d is not None]
        latencies = [(d - s) * 1e3 for s, d in settled]
        inflight_mean, idle_share = inflight_profile(settled, start, end)
        return {
            "exec.requests": len(self.requests),
            "exec.batches": len(self.batch_sizes),
            "exec.batch_size_mean": statistics.fmean(self.batch_sizes) if self.batch_sizes else 0.0,
            "exec.request_ms_p50": percentile(latencies, 0.5),
            "exec.request_ms_p90": percentile(latencies, 0.9),
            "exec.inflight_mean": inflight_mean,
            "exec.idle_share": idle_share,
            "exec.failed": sum(1 for _, d, failed in self.requests if failed or d is None),
            "exec.close_s": self.close_s,
        }


class _Forwarding:
    """Attribute reads and writes go to the wrapped object."""

    def __init__(self, target) -> None:
        object.__setattr__(self, "_target", target)

    def __getattr__(self, name: str):
        return getattr(self._target, name)

    def __setattr__(self, name: str, value) -> None:
        setattr(self._target, name, value)


class _TimedDatabase(_Forwarding):
    """The server's live database, with client executions in a span."""

    def __init__(self, database, tracer, parent) -> None:
        super().__init__(database)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_parent", parent)

    def execute(self, query, plan=None, timeout=None):
        with self._tracer.span(
            "serve.client_execute", category="serve", parent=self._parent, query=query.name
        ):
            return self._target.execute(query, plan, timeout=timeout)


class ServeProxy(_Forwarding):
    """A ``PlanServer`` stand-in for ``drive_stream`` that times each call.

    ``drive_stream`` reads ``server.tracer`` (the product's own, left as it
    is), ``server.database`` and five methods; each method call becomes one
    span that carries the arrival index, so the spans of one arrival can be
    joined.  Everything else forwards untouched, which is why the stream's
    trace is identical with and without the proxy.
    """

    _SPANS = {
        "serve": "serve.serve",
        "report": "serve.report",
        "run_maintenance": "serve.maintenance",
        "checkpoint": "serve.checkpoint",
        "update_database": "serve.update_database",
    }

    def __init__(self, server, tracer, parent=None) -> None:
        super().__init__(server)
        object.__setattr__(self, "_tracer", tracer)
        object.__setattr__(self, "_parent", parent)
        object.__setattr__(self, "_arrival", -1)

    @property
    def database(self):
        return _TimedDatabase(self._target.database, self._tracer, self._parent)

    def __getattr__(self, name: str):
        attribute = getattr(self._target, name)
        span_name = self._SPANS.get(name)
        if span_name is None:
            return attribute

        def timed(*args, **kwargs):
            if name == "serve":
                object.__setattr__(self, "_arrival", self._arrival + 1)
            with self._tracer.span(
                span_name, category="serve", parent=self._parent, arrival=self._arrival
            ):
                return attribute(*args, **kwargs)

        return timed
