"""The long-lived plan server: microsecond fast path + background maintenance.

The offline/online split of the paper's Figure 2, made operational.  A
:class:`PlanServer` answers a query stream:

* **Fast path** — a known fingerprint resolves to its stored plan with one
  dictionary lookup (the fingerprint is computed once per ``Query`` object:
  :func:`~repro.db.plan_cache.query_fingerprint`).  No optimizer, no planner,
  no executor is invoked; the serve itself costs microseconds, which is what
  lets the store amortize thousands of offline plan executions over millions
  of serves.
* **Miss path** — an unknown fingerprint falls back to the default planner
  *once*, and the produced plan is promoted into the store immediately: the
  second arrival of any query is already a store hit.  The admission policy
  (:mod:`repro.serve.admission`) then decides whether the fingerprint's
  popularity earns it real optimization budget.
* **Telemetry** — clients report the latency each served plan actually
  achieved (:meth:`PlanServer.report`).  Observations feed per-entry rolling
  windows and a reservoir-sampled SLO tracker
  (:class:`~repro.harness.metrics.StreamingPercentiles`); when a window's
  median diverges from the store's recorded latency by more than
  ``drift_factor`` — the stale-plan signal of :mod:`repro.workloads.drift` —
  the entry is flagged for re-optimization.
* **Maintenance** — :meth:`PlanServer.run_maintenance` drains the admission
  policy's triage list: each task builds the configured technique from the
  registry, drives it through the standard ask/tell protocol with plan
  executions routed through an :mod:`repro.exec` backend
  (:class:`~repro.core.config.ExecutionServiceConfig`), warm-starting
  regressed entries from the stored observation history via
  :func:`repro.core.reoptimize.warm_start_plans`, and folds the finished run
  back into the store.

Everything the server decides from — store entries, admission counters, SLO
reservoirs, arrival counts — persists through :meth:`PlanServer.checkpoint`
and :meth:`PlanServer.resume`, so a server killed mid-stream continues the
remaining arrivals bit-for-bit.  A checkpoint costs what changed: the serve
path's three state transitions (``_apply_hit`` / ``_apply_miss`` /
``_apply_report``) are journalled as they run, a checkpoint appends the
journal to the store file as one small record, and only what has no record
kind — a finished maintenance task, another database — rewrites the
snapshot.  ``resume`` loads the snapshot and runs the same three transitions
over the appended records.  :mod:`repro.serve.store` describes the file.
"""

from __future__ import annotations

import copy
import inspect
import pickle
import struct
from dataclasses import dataclass, field, replace
from typing import NamedTuple

from repro.core.config import ExecutionServiceConfig
from repro.core.protocol import BudgetSpec, drive
from repro.core.registry import TechniqueContext, get_technique
from repro.core.reoptimize import warm_start_plans
from repro.db.engine import Database
from repro.db.plan_cache import query_fingerprint
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.exec import (
    ExecutionBackend,
    ExecutionRequest,
    backend_health,
    backend_submit,
    make_backend,
)
from repro.harness.metrics import StreamingPercentiles
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import NULL_TRACER
from repro.plans.jointree import JoinTree
from repro.serve.admission import AdmissionConfig, AdmissionPolicy, AdmissionTask
from repro.serve.store import PlanStore, StoreEntry, StoreFormatError, StoreJournal

if False:  # pragma: no cover - typing only
    from repro.core.optimizer import SchemaModel
    from repro.workloads.base import Workload

# The operations a checkpoint appends to the store file (the payload of a tail
# record is a run of these, in the order they happened).  An entry is named
# by its ordinal in the store, a first-sight miss carries its ``(query,
# plan)``, and outcome-cache entries ride as exported
# (:meth:`~repro.db.plan_cache.ExecutionCache.export_outcomes`): a fast-path
# serve is 5 bytes, a report 14.
_OP_HIT, _OP_MISS, _OP_REPORT, _OP_OUTCOMES = 1, 2, 3, 4
_HIT = struct.Struct("<BI")  # kind, entry ordinal
_REPORT = struct.Struct("<BIBd")  # kind, entry ordinal, flags, latency
_BLOB = struct.Struct("<BI")  # kind (miss | outcomes), length of the pickle behind it
_FROM_STORE, _TIMED_OUT = 1, 2  # report flags
_NO_ENTRY = 0xFFFFFFFF  # a report whose fingerprint the store does not hold


class _HitRecords(dict):
    """Each entry ordinal's encoded hit operation, packed on first use.

    The encoding never changes, so a fast-path serve appends bytes it packed
    before.  Lives on the server beside its journal and is never persisted.
    """

    __slots__ = ()

    def __missing__(self, ordinal: int) -> bytes:
        record = self[ordinal] = _HIT.pack(_OP_HIT, ordinal)
        return record


def _blob(kind: int, value: object) -> bytes:
    data = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return _BLOB.pack(kind, len(data)) + data


#: Timeout of server-side warm-start seed executions (matches the generous
#: first-execution timeout the Bao baseline uses).
WARM_START_TIMEOUT = 600.0


def data_signature(database: Database) -> tuple:
    """Cheap deterministic identity of a database's *data* snapshot.

    Outcome-cache event logs replay recorded charges verbatim; replaying logs
    recorded on one snapshot against another would report the old snapshot's
    latencies.  The store therefore tags its exported logs with this
    signature — per-table row counts plus the executor's noise seeding — and
    :meth:`PlanServer.resume` only primes a database whose signature matches.
    """
    rows = tuple(sorted((name, rel.num_rows) for name, rel in database.relations.items()))
    return (rows, database.executor.noise_sigma, database.executor.seed)


@dataclass(frozen=True)
class ServeConfig:
    """Knobs of the serving layer."""

    #: Registry technique driven by background maintenance ("bao" by default:
    #: no schema model needed and a naturally bounded search space).
    technique: str = "bao"
    #: Latency SLO observed executions are judged against (``inf`` disables
    #: SLO-based admission pressure).
    slo_latency: float = float("inf")
    #: Window-median / recorded-latency ratio that flags an entry as drifted.
    drift_factor: float = 1.5
    #: Observations a window needs before the drift detector may fire.
    drift_min_observations: int = 2
    #: Per-entry rolling window length (observations since last optimization).
    observation_window: int = 32
    #: Fastest distinct history plans seeded into a warm-started
    #: re-optimization (plus the incumbent plan itself).
    warm_start_history: int = 4
    #: Budget of one background optimization task (techniques flagged
    #: ``ignores_execution_cap`` drop the count axis, as in the harness).
    budget: BudgetSpec = field(default_factory=BudgetSpec)
    #: Where maintenance plan executions run; ``None`` = inline.
    exec_config: ExecutionServiceConfig | None = None
    #: Admission policy knobs.
    admission: AdmissionConfig = field(default_factory=AdmissionConfig)
    #: Reservoir size of the SLO percentile trackers.
    slo_reservoir: int = 512
    seed: int = 0

    def __post_init__(self) -> None:
        if self.drift_factor < 1.0:
            raise OptimizationError("drift_factor must be at least 1")
        if self.drift_min_observations < 1:
            raise OptimizationError("drift_min_observations must be at least 1")
        if self.observation_window < 1:
            raise OptimizationError("observation_window must be at least 1")
        if self.warm_start_history < 0:
            raise OptimizationError("warm_start_history must be non-negative")
        if self.slo_latency <= 0:
            raise OptimizationError("slo_latency must be positive")


class ServeDecision(NamedTuple):
    """What the server answered one arrival with.

    An immutable record built once per arrival, so a named tuple: it costs a
    quarter of a frozen dataclass to build, which on the fast path is a
    sizeable share of the serve.
    """

    query: Query
    plan: JoinTree
    #: ``"store"`` (fast path) or ``"default"`` (first-sight planner fallback).
    source: str
    fingerprint: tuple


_tuple_new = tuple.__new__


@dataclass
class ServeCounters:
    """Cumulative serving statistics (picklable; persisted with the store)."""

    arrivals: int = 0
    fast_path: int = 0
    misses: int = 0
    #: Default-planner invocations — incremented on the miss path only; the
    #: fast path never plans, optimizes or executes anything.
    planner_calls: int = 0
    reports: int = 0
    slo_violations: int = 0
    drift_flags: int = 0
    optimizations: int = 0
    maintenance_executions: int = 0

    @property
    def fast_path_rate(self) -> float:
        return self.fast_path / self.arrivals if self.arrivals else 0.0

    def snapshot(self) -> dict:
        return {
            "arrivals": self.arrivals,
            "fast_path": self.fast_path,
            "misses": self.misses,
            "planner_calls": self.planner_calls,
            "fast_path_rate": self.fast_path_rate,
            "reports": self.reports,
            "slo_violations": self.slo_violations,
            "drift_flags": self.drift_flags,
            "optimizations": self.optimizations,
            "maintenance_executions": self.maintenance_executions,
        }


@dataclass(frozen=True)
class MaintenanceRecord:
    """One finished background optimization task."""

    query_name: str
    reason: str
    technique: str
    executions: int
    best_latency: float
    #: Whether the run's best plan replaced the incumbent in the store.
    adopted: bool
    warm_started: bool
    #: Arrival index the maintenance cycle ran at (stamped by the serve
    #: loop; -1 when maintenance was invoked outside a stream).
    arrival_index: int = -1


class PlanServer:
    """Serves plans for a query stream out of a persistent store.

    Parameters
    ----------
    database:
        The live database clients execute against.  Swapped wholesale on
        data drift via :meth:`update_database`.
    store / admission:
        Persistent state; fresh instances by default.  Pass the objects a
        previous session persisted to continue its stream (or use
        :meth:`resume`, which wires all of it from one file).
    config:
        Serving knobs (:class:`ServeConfig`).
    workload / schema_model:
        Optional context for techniques that need them (BayesQO's schema
        model; workload-aware factories).
    tracer / metrics:
        Telemetry sinks (:mod:`repro.obs`).  Defaults — a no-op tracer and a
        private registry — keep the fast path at its untraced cost; with a
        real tracer every arrival, admission verdict, re-optimization and
        store upsert emits a span, linked into per-fingerprint causal chains
        via ``follows`` attributes.
    """

    def __init__(
        self,
        database: Database,
        *,
        store: PlanStore | None = None,
        admission: AdmissionPolicy | None = None,
        config: ServeConfig | None = None,
        workload: "Workload | None" = None,
        schema_model: "SchemaModel | None" = None,
        tracer=None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config or ServeConfig()
        self.database = database
        self.workload = workload
        self.schema_model = schema_model
        self.store = store or PlanStore(observation_window=self.config.observation_window)
        self.admission = admission or AdmissionPolicy(config=self.config.admission)
        self.counters = ServeCounters()
        #: SLO tracking: latency percentiles over everything served from the
        #: store vs everything served from the default planner.
        self.slo_store = StreamingPercentiles(self.config.slo_reservoir, seed=self.config.seed)
        self.slo_default = StreamingPercentiles(
            self.config.slo_reservoir, seed=self.config.seed + 1
        )
        self._backend: ExecutionBackend | None = None
        # The store file this server last wrote a snapshot to, with the
        # database (and the stamp of its outcome cache) that snapshot saw;
        # `None` until the first checkpoint, so a server that never
        # checkpoints records nothing.
        self._journal: StoreJournal | None = None
        self._journal_database: Database | None = None
        self._journal_stamp = 0
        self._hit_records = _HitRecords()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        # Last chain event per store entry (by ordinal: an int key costs the
        # traced fast path no hash call), as ``(span_id, is_arrival)`` — the
        # `follows` causal link that stitches arrival -> admission ->
        # re-optimization -> upsert -> next serve into one chain.  The
        # is_arrival flag is what lets the fast path skip recording repeat
        # arrivals.  Ephemeral observability state, not persisted.
        self._follow: dict = {}
        # Lambdas re-read the attributes live: resume() swaps counter
        # objects wholesale after construction.  Providers are dropped on
        # pickle, so the closures never reach a checkpoint.
        self.metrics.register_provider("serve", lambda: self.counters.snapshot())
        self.metrics.register_provider("admission", lambda: self.admission.summary())
        self.metrics.register_provider("backend_health", self.health_report)

    # ------------------------------------------------------------------ serving
    def serve(self, query: Query) -> ServeDecision:
        """Answer one arrival.

        Fast path: fingerprint -> stored plan, one dict lookup, no sort and
        no tuple built for a ``Query`` object seen before.  Miss path:
        default planner once, plan promoted into the store so every repeat
        arrival of this fingerprint is a fast-path serve.
        """
        # Hot path: telemetry records only *causally novel* arrivals — the
        # first serve of a fingerprint, and the first after each admission /
        # re-optimization / upsert event.  A repeat arrival whose last chain
        # event is already an arrival adds no causal information, so the
        # enabled steady state costs one dict probe, no span construction.
        tracer = self.tracer
        journal = self._journal
        # The store's dict directly, and the decision through `tuple.__new__`
        # as the named tuple's own `_make` does: `PlanStore.get` and the
        # generated `__new__` would each be one more Python frame per arrival.
        entry = self.store.entries.get(query_fingerprint(query))
        if entry is not None and entry.best_plan is not None:
            source = "store"
            self._apply_hit(entry)
            if journal is not None:
                journal.record(self._hit_records[entry.ordinal])
        else:
            source = "default"
            plan = self.database.plan(query)
            entry = self._apply_miss(query, plan)
            if journal is not None:
                journal.record(_blob(_OP_MISS, (query, plan)))
        if tracer.enabled:
            last = self._follow.get(entry.ordinal)
            if last is None or not last[1]:
                self._note_serve(tracer, query, source, entry.ordinal, last)
        return _tuple_new(ServeDecision, (query, entry.best_plan, source, entry.fingerprint))

    def _note_serve(self, tracer, query: Query, source: str, ordinal: int, last) -> None:
        """Record one causally novel arrival, chained to the last chain event."""
        record = tracer.instant(
            "serve.arrival",
            category="serve",
            query=query.name,
            source=source,
            follows=None if last is None else last[0],
        )
        self._follow[ordinal] = (record.span_id, True)

    def report(self, decision: ServeDecision, latency: float, timed_out: bool = False) -> None:
        """Client telemetry: the served plan ran in ``latency`` seconds.

        Feeds the per-entry drift window, the SLO reservoirs and the
        admission policy's violation counters; flags the entry for
        re-optimization when the window median exceeds ``drift_factor`` times
        the store's recorded latency.
        """
        latency = float(latency)
        entry = self.store.get_fingerprint(decision.fingerprint)
        from_store = decision.source == "store"
        self._apply_report(entry, from_store, latency, timed_out)
        if entry is not None:
            self.metrics.histogram(f"serve.latency.{decision.source}").observe(latency)
        journal = self._journal
        if journal is not None:
            ordinal = _NO_ENTRY if entry is None else entry.ordinal
            flags = (_FROM_STORE if from_store else 0) | (_TIMED_OUT if timed_out else 0)
            journal.record(_REPORT.pack(_OP_REPORT, ordinal, flags, latency))

    # The three state transitions of the serve path.  The live path calls
    # them and journals what it called them with; `_replay` calls them with
    # what the journal holds.  Everything a resumed server must agree on with
    # the one that was killed changes here and nowhere else on this path.
    def _apply_hit(self, entry: StoreEntry) -> None:
        self.counters.arrivals += 1
        entry.serves += 1
        self.counters.fast_path += 1
        self.admission.note_arrival(entry.fingerprint, entry.optimized)

    def _apply_miss(self, query: Query, plan: JoinTree) -> StoreEntry:
        self.counters.arrivals += 1
        entry = self.store.ensure(query)
        self.counters.misses += 1
        self.counters.planner_calls += 1
        entry.best_plan = plan
        entry.source = "default"
        self.admission.note_arrival(entry.fingerprint, entry.optimized)
        return entry

    def _apply_report(
        self, entry: StoreEntry | None, from_store: bool, latency: float, timed_out: bool
    ) -> None:
        self.counters.reports += 1
        if entry is None:
            return
        (self.slo_store if from_store else self.slo_default).add(latency)
        slo_violated = timed_out or latency > self.config.slo_latency
        if slo_violated:
            self.counters.slo_violations += 1
        self.admission.note_latency(entry.fingerprint, slo_violated)
        # A timed-out report's latency is its timeout, a lower bound on what
        # the plan takes now: it enters the drift window like any other, so a
        # stored plan that times out on drifted data is flagged.
        entry.observe(latency)
        if entry.recorded_latency == float("inf"):
            # First observation of a freshly promoted default plan: it *is*
            # the drift baseline until optimization replaces it (a lower
            # bound is not a baseline).
            if not timed_out:
                entry.recorded_latency = latency
            return
        median = entry.observed_median()
        if (
            median is not None
            and len(entry.observed) >= self.config.drift_min_observations
            and median > self.config.drift_factor * entry.recorded_latency
        ):
            self.admission.flag_regression(entry.fingerprint, median / entry.recorded_latency)
            self.counters.drift_flags += 1

    # ------------------------------------------------------------------ drift
    def update_database(self, database: Database) -> None:
        """Swap the live database (a drift event).

        Stored plans and recorded latencies deliberately stay: they are the
        *record* the drift detector compares fresh observations against.  The
        maintenance backend is rebuilt lazily against the new data.
        """
        self.database = database
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    # ------------------------------------------------------------------ maintenance
    def _known_queries(self) -> list[Query]:
        if self.workload is not None:
            return list(self.workload.queries)
        return [entry.query for entry in self.store.entries.values()]

    def backend(self) -> ExecutionBackend:
        """The maintenance execution backend, built lazily from the config."""
        if self._backend is None:
            config = self.config.exec_config or ExecutionServiceConfig()
            self._backend = make_backend(
                config, self.database, self._known_queries(), tracer=self.tracer
            )
        return self._backend

    def close(self) -> None:
        """Release the maintenance backend's pools.  Idempotent."""
        if self._backend is not None:
            self._backend.close()
            self._backend = None

    def __enter__(self) -> "PlanServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _technique_context(self) -> TechniqueContext:
        return TechniqueContext(
            database=self.database,
            workload=self.workload,
            schema_model=self.schema_model,
            seed=self.config.seed,
        )

    @staticmethod
    def _detached_optimizer_state(optimizer) -> object:
        """A picklable snapshot of a finished optimizer, detached from its
        live context — the database/workload/schema-model references would
        drag full relation arrays into every store pickle, and they are stale
        after drift anyway (re-optimization always rebuilds against the
        current database)."""
        clone = copy.copy(optimizer)
        for attr in ("database", "workload", "schema_model"):
            if hasattr(clone, attr):
                setattr(clone, attr, None)
        if hasattr(clone, "tracer"):
            # Live tracer buffers must never ride into store pickles.
            clone.tracer = NULL_TRACER
        return clone

    @staticmethod
    def _supports_initial_plans(optimizer) -> bool:
        try:
            return "initial_plans" in inspect.signature(optimizer.start).parameters
        except (TypeError, ValueError):
            return False

    def run_maintenance(self, limit: int | None = None) -> list[MaintenanceRecord]:
        """Drain the admission triage list: optimize what earned budget.

        "Background" is architectural, not concurrent: maintenance runs
        between serves (never *on* the serve path) and its plan executions go
        through the configured :mod:`repro.exec` backend, which is where real
        concurrency lives.  Returns one record per finished task.
        """
        records = []
        tracer = self.tracer
        with tracer.span("serve.maintenance", category="serve") as mspan:
            for task in self.admission.triage(limit):
                entry = self.store.get_fingerprint(task.fingerprint)
                if entry is None:
                    continue
                follows = None
                if tracer.enabled:
                    # The admission verdict follows the fingerprint's last
                    # arrival; the re-optimization span follows the verdict.
                    last = self._follow.get(entry.ordinal)
                    verdict = tracer.instant(
                        "serve.admission",
                        category="serve",
                        parent=mspan,
                        query=entry.query.name,
                        reason=task.reason,
                        score=task.score,
                        follows=None if last is None else last[0],
                    )
                    self._follow[entry.ordinal] = (verdict.span_id, False)
                    follows = verdict.span_id
                records.append(
                    self._optimize_entry(entry, task, parent=mspan, follows=follows)
                )
            mspan.annotate(tasks=len(records))
        if records:
            self.store.sync_cache(self.database)
            # A finished task rewrote an entry (history, optimizer state,
            # plan): no operation kind describes that, the next checkpoint
            # writes a snapshot.
            self._journal = None
        return records

    def _optimize_entry(
        self,
        entry: StoreEntry,
        task: AdmissionTask,
        parent=None,
        follows: "int | None" = None,
    ) -> MaintenanceRecord:
        tracer = self.tracer
        reopt_start = tracer.now() if tracer.enabled else 0.0
        spec = get_technique(self.config.technique)
        optimizer = spec.factory(self._technique_context())
        if hasattr(optimizer, "tracer"):
            optimizer.tracer = tracer
        budget = self.config.budget
        if spec.ignores_execution_cap:
            budget = replace(budget, max_executions=None)
        query = entry.query
        backend = self.backend()
        # The re-optimization recipe of Section 5.5, fed from the *stored*
        # history instead of a live session: the incumbent plan and its
        # fastest runners-up anchor the search in what past optimization
        # discovered, re-measured against the current (possibly drifted)
        # data.  Optimizers whose ``start`` takes ``initial_plans`` (BayesQO)
        # fold the seeds into their model; for the rest the server executes
        # the seeds itself and merges them into the run's trace.
        warm_started = False
        seeds: list = []
        if entry.optimized and entry.best_plan is not None:
            seeds = warm_start_plans(
                self.database,
                query,
                entry.best_plan,
                history=entry.fastest_history_plans(self.config.warm_start_history),
                include_bao=False,
            )
            warm_started = bool(seeds)
        start_kwargs: dict = {}
        inline_seeds = seeds
        if seeds and self._supports_initial_plans(optimizer):
            start_kwargs["initial_plans"] = warm_start_plans(
                self.database,
                query,
                entry.best_plan,
                history=entry.fastest_history_plans(self.config.warm_start_history),
            )
            inline_seeds = []
        seed_records: list[tuple] = []
        for plan, label in inline_seeds:
            request = ExecutionRequest(query=query, plan=plan, timeout=WARM_START_TIMEOUT)
            outcome = backend.submit(request).result()
            self.counters.maintenance_executions += 1
            seed_records.append((plan, outcome.latency, outcome.timed_out, outcome.timeout, label))

        submit_to_backend = backend_submit(backend)

        def submit(state, proposals):
            self.counters.maintenance_executions += len(proposals)
            return submit_to_backend(state, proposals)

        state = optimizer.start(query, budget=budget, **start_kwargs)
        drive(optimizer, [state], submit, tracer=tracer)
        result = optimizer.finish(state)
        for plan, latency, censored, timeout, label in seed_records:
            result.record(plan, latency, censored, timeout, source=label)
        entry.record_run(result.trace, technique=spec.name)
        entry.optimizer = self._detached_optimizer_state(optimizer)
        best = result.best_latency_or(float("inf"))
        # The incumbent's worth *on the current data* is what fresh
        # observations say, not the (possibly pre-drift) recorded latency.
        median = entry.observed_median()
        incumbent = median if median is not None else entry.recorded_latency
        adopted = best < incumbent
        if adopted:
            entry.best_plan = result.best_plan
            entry.recorded_latency = best
        elif median is not None:
            # Keep the incumbent but refresh its drift baseline to the
            # current data, so the detector re-arms at post-drift reality.
            entry.recorded_latency = median
        entry.optimized = True
        entry.observed.clear()
        self.admission.note_optimized(entry.fingerprint)
        self.counters.optimizations += 1
        if tracer.enabled:
            # The span is recorded after the fact (one ring append instead of
            # re-indenting the task under a context manager); inner bo/exec
            # spans therefore sit beside it, while the chain links — reopt
            # follows the admission verdict, the upsert nests under the reopt
            # and becomes what the fingerprint's next serve follows — are
            # what the causal reconstruction walks.
            rspan = tracer.record(
                "serve.reoptimize",
                reopt_start,
                category="serve",
                parent=parent,
                query=query.name,
                reason=task.reason,
                technique=spec.name,
                executions=result.num_executions,
                adopted=adopted,
                follows=follows,
            )
            upsert = tracer.instant(
                "store.upsert",
                category="serve",
                parent=rspan,
                query=query.name,
                adopted=adopted,
                best_latency=best,
            )
            self._follow[entry.ordinal] = (upsert.span_id, False)
        return MaintenanceRecord(
            query_name=query.name,
            reason=task.reason,
            technique=spec.name,
            executions=result.num_executions,
            best_latency=best,
            adopted=adopted,
            warm_started=warm_started,
        )

    # ------------------------------------------------------------------ persistence
    def checkpoint(self, path: str) -> None:
        """Make everything the server decides from durable at ``path``.

        When this returns, :meth:`resume` on ``path`` rebuilds exactly this
        server state: the bytes have been handed to the operating system (not
        fsynced — a power loss is not what this protects against) and none
        wait in a buffer of this process.  What it costs depends on what
        happened since the previous checkpoint to the same path:

        * serves, reports and newly executed plans only — one small record
          appended to the file, O(what happened) however large the store;
        * anything else — this server's first checkpoint to ``path``
          (whatever the path held before is replaced), a maintenance cycle
          that finished a task, another database, operations that piled up
          unrecorded because nobody checkpointed, or a tail that would
          outgrow the snapshot it follows — the whole store, written
          atomically as a new snapshot (:meth:`PlanStore.save`).

        :mod:`repro.serve.store` describes the file.
        """
        journal = self._journal
        cache = getattr(self.database, "execution_cache", None)
        if journal is not None and journal.path == path and self._journal_database is self.database:
            outcomes = b""
            if cache is not None and cache.stamp != self._journal_stamp:
                outcomes = _blob(_OP_OUTCOMES, cache.export_outcomes(since=self._journal_stamp))
            if journal.commit(outcomes):
                if cache is not None:
                    self._journal_stamp = cache.stamp
                return
        self.store.sync_cache(self.database)
        self.store.server_state = {
            "admission": self.admission,
            "counters": self.counters,
            "slo_store": self.slo_store,
            "slo_default": self.slo_default,
            "data_signature": data_signature(self.database),
            "config": self.config,
        }
        self._journal = StoreJournal(self.store, path)
        self._journal_database = self.database
        self._journal_stamp = cache.stamp if cache is not None else 0

    def _replay(self, tail: bytes, entries: list[StoreEntry]) -> None:
        """Apply one tail record: the operations between two checkpoints, in
        the order they happened, through the transitions the live path ran.
        ``entries`` is the store's entries by ordinal, extended here."""
        offset = 0
        try:
            while offset < len(tail):
                kind = tail[offset]
                if kind == _OP_HIT:
                    _, ordinal = _HIT.unpack_from(tail, offset)
                    offset += _HIT.size
                    self._apply_hit(entries[ordinal])
                elif kind == _OP_REPORT:
                    _, ordinal, flags, latency = _REPORT.unpack_from(tail, offset)
                    offset += _REPORT.size
                    entry = None if ordinal == _NO_ENTRY else entries[ordinal]
                    self._apply_report(
                        entry, bool(flags & _FROM_STORE), latency, bool(flags & _TIMED_OUT)
                    )
                elif kind in (_OP_MISS, _OP_OUTCOMES):
                    _, length = _BLOB.unpack_from(tail, offset)
                    offset += _BLOB.size + length
                    if offset > len(tail):
                        raise IndexError(f"a {length}-byte pickle runs past the record")
                    value = pickle.loads(tail[offset - length : offset])
                    if kind == _OP_OUTCOMES:
                        self.store.cache_events.extend(value)
                    else:
                        entry = self._apply_miss(*value)
                        if entry.ordinal == len(entries):
                            entries.append(entry)
                else:
                    raise StoreFormatError(f"unknown operation kind {kind} at byte {offset}")
        except (struct.error, IndexError) as exc:
            raise StoreFormatError(
                f"tail record does not decode at byte {offset}: {type(exc).__name__}: {exc}"
            ) from exc

    @classmethod
    def resume(
        cls,
        path: str,
        database: Database,
        *,
        config: ServeConfig | None = None,
        workload: "Workload | None" = None,
        schema_model: "SchemaModel | None" = None,
    ) -> "PlanServer":
        """Rebuild the server that last checkpointed to ``path``.

        Snapshot, then replay: entries, admission counters, SLO reservoirs
        (values, counts and RNG state) and serve counters come from the
        file's snapshot, and the tail records behind it are applied through
        :meth:`_apply_hit` / :meth:`_apply_miss` / :meth:`_apply_report` —
        the code the live path ran, so the result is the checkpointed server
        bit for bit.  Replay runs under the :class:`ServeConfig` the snapshot
        recorded (the SLO and drift verdicts in the tail were reached under
        it); ``config`` is in force from then on, and defaults to the
        recorded one.  ``database``'s execution cache is primed from the
        stored outcome logs when (and only when) the data signature matches —
        event logs recorded on a different snapshot would replay the wrong
        latencies.

        The resumed server's first checkpoint writes a snapshot, also to the
        path it came from.
        """
        store = PlanStore.load(path)
        if store is None:
            raise OptimizationError(f"no plan store at {path!r}")
        state = store.server_state
        server = cls(
            database,
            store=store,
            config=state.get("config", config),
            workload=workload,
            schema_model=schema_model,
        )
        if "admission" in state:
            server.admission = state["admission"]
        if "counters" in state:
            server.counters = state["counters"]
        if "slo_store" in state:
            server.slo_store = state["slo_store"]
        if "slo_default" in state:
            server.slo_default = state["slo_default"]
        tail, store.tail = store.tail, []
        entries = list(store.entries.values())
        for record in tail:
            server._replay(record, entries)
        if config is not None:
            server.config = config
        if state.get("data_signature") == data_signature(database):
            store.prime(database)
        return server

    # ------------------------------------------------------------------ reporting
    def health_report(self) -> dict:
        """Execution-infrastructure health behind the serve layer.

        The same layer walk the harness session reports
        (:func:`repro.exec.backend_health`) plus the live database's
        execution-cache counters — previously gathered during maintenance
        but absent from every serve snapshot.  Empty sections are simply
        missing keys: a server that never ran maintenance has no backend.
        """
        report = backend_health(self._backend)
        cache = getattr(self.database, "execution_cache", None)
        if cache is not None:
            report["execution_cache"] = cache.counters.snapshot()
        return report

    def summary(self) -> dict:
        return {
            "counters": self.counters.snapshot(),
            "store": self.store.summary(),
            "admission": self.admission.summary(),
            "slo_store": self.slo_store.snapshot(),
            "slo_default": self.slo_default.snapshot(),
            "health": self.health_report(),
        }
