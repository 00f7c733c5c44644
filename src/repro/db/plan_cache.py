"""Workload-wide execution memoization: outcome replay + subplan reuse.

The offline tuner executes hundreds of candidate plans per query, and
trust-region proposals are *local edits* — consecutive plans share most of
their join subtrees, and the optimizer frequently revisits plans it has
already executed.  This module makes both the repeated and the overlapping
case cheap while keeping results bit-for-bit identical to scratch execution:

* **Outcome cache** — one entry per ``(query, plan)`` fingerprint holding the
  ordered *charge-event log* of an execution (every cost the executor charged,
  plus node-completion markers).  Replaying the log through a fresh
  ``_ExecutionState`` repeats the exact float additions in the exact order,
  so the replayed latency, timeout behaviour, node count and cost breakdown
  are identical to re-executing the plan — for *any* timeout the entry can
  serve.  A completed log serves every timeout (the accumulated simulated
  time exceeds the timeout at precisely the same charge it would have on a
  real run); a log censored at ``T`` serves any timeout ``<= T`` and is
  upgraded when a later run observes further.

* **Subplan memo** — a bounded LRU over join-subtree fingerprints caching
  each subtree's intermediate (written, or a blow-up join's pairs kept
  deferred) *and* the event-log segment that produced it.  A new plan only
  pays for the join nodes it does not share with previously executed plans
  of the same query; shared subtrees replay their recorded charges (never
  recompute them) and reuse the intermediate arrays directly.  Entries are
  charged by the byte size of their retained position arrays and evicted
  least-recently-used under ``max_bytes``.

Both caches key queries by *content* (tables, join predicates, filters), not
by name, so two Query objects describing the same query share entries and
two same-named queries with different filters never collide.  The cache is a
plain data container — replay itself lives in :mod:`repro.db.executor`,
which owns the timeout semantics.

Caches are deliberately **not pickled** with the database
(:meth:`~repro.db.engine.Database.__getstate__` ships only constructor
inputs): every :class:`~repro.exec.process_pool.ProcessPoolBackend` worker
rebuilds its replica with a fresh, private cache and warms it alongside
``Database.warmup``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.executor import _Intermediate
    from repro.db.query import Query
    from repro.plans.jointree import JoinTree

#: One entry of a charge-event log: ``(category, cost)`` for an
#: ``_ExecutionState.charge`` call, or ``(NODE_EVENT, 0.0)`` marking a
#: completed operator (``nodes_executed`` increment).  Replay consumes the
#: log in order, so the accumulated simulated time goes through the exact
#: same sequence of float additions as the recording run.
Event = tuple[str, float]

#: Event category marking an operator completion rather than a cost charge.
NODE_EVENT = "__node__"

#: Event category marking the executor's materialization work cap firing
#: (the cost field carries the offending row count).  The cap aborts the
#: execution regardless of how much simulated time has accumulated, so it
#: must be an explicit event for replay to censor at the same point.
CAP_EVENT = "__cap__"

#: Default budget for materialized subplan intermediates (bytes).
DEFAULT_CACHE_BYTES = 256 * 1024 * 1024


@dataclass(frozen=True)
class ExecutionCacheConfig:
    """Knobs of the execution-memoization layer.

    ``enabled`` turns the whole layer off (scratch execution, zero overhead);
    ``max_bytes`` bounds the subplan memo's materialized intermediates (the
    outcome cache stores only event logs — a few hundred bytes per plan —
    and is not byte-bounded).  ``max_entry_bytes`` (default: an eighth of
    the budget) keeps any single intermediate from monopolizing it: bad
    join orders materialize intermediates up to the executor's work cap —
    hundreds of MB that would evict dozens of small, frequently shared
    subtrees, cost allocator churn to retain, and rarely get reused (their
    *exact* revisits are already free through the outcome cache, which
    stores only the charge log).  Oversize is decided from the row count
    before the position arrays are written, so an intermediate that is
    stored events-only is never materialized for the memo's sake; one that
    fits is charged its arrays' bytes and written, unless those would weigh
    more than what keeping it deferred pins (a blow-up join).
    """

    enabled: bool = True
    max_bytes: int = DEFAULT_CACHE_BYTES
    #: Per-entry cap on a memoized intermediate; ``None`` derives
    #: ``max_bytes // 8``.
    max_entry_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        if self.max_entry_bytes is not None and self.max_entry_bytes < 0:
            raise ValueError("max_entry_bytes must be non-negative")

    @property
    def entry_limit(self) -> int:
        return (
            self.max_entry_bytes
            if self.max_entry_bytes is not None
            else self.max_bytes // 8
        )


@dataclass(frozen=True)
class CacheStats:
    """Per-execution cache observability, attached to every ExecutionResult.

    ``outcome_hit`` — the whole execution was replayed from the outcome
    cache; ``subplan_hits``/``subplan_misses`` — join-subtree memo activity
    during a scratch execution (zero on an outcome replay); ``bytes_cached``
    — the subplan memo's footprint after this execution.
    """

    outcome_hit: bool = False
    subplan_hits: int = 0
    subplan_misses: int = 0
    bytes_cached: int = 0
    #: The execution ran inside a plan batch (``Executor.run_batch``); its
    #: ``subplan_hits`` then count shared-subtree savings against the batch's
    #: dedup cache (ephemeral when persistent caching is off).
    batched: bool = False


@dataclass
class CacheCounters:
    """Cumulative counters of one :class:`ExecutionCache` instance."""

    outcome_hits: int = 0
    outcome_misses: int = 0
    subplan_hits: int = 0
    subplan_misses: int = 0
    evictions: int = 0

    def snapshot(self) -> dict:
        return {
            "outcome_hits": self.outcome_hits,
            "outcome_misses": self.outcome_misses,
            "subplan_hits": self.subplan_hits,
            "subplan_misses": self.subplan_misses,
            "evictions": self.evictions,
        }


# ------------------------------------------------------------------ fingerprints
class Fingerprint(tuple):
    """A query fingerprint: the plain ``(tables, joins, filters)`` tuple with
    its hash computed once.

    Hashing the nested tuple walks every element (~0.5 us for a six-table
    query), and a store hit used to pay that once per dictionary it probed.
    A ``Fingerprint`` is equal to the plain tuple and hashes like it, so the
    two are interchangeable as keys in either direction: keys written before
    this class existed still match.  The cached hash is salted by the
    current process's ``PYTHONHASHSEED`` and must never leave it, so
    pickling and copying go through :meth:`__reduce__`, which ships the
    content only; whoever loads it computes the hash afresh.
    """

    def __new__(cls, parts: Iterable) -> "Fingerprint":
        self = super().__new__(cls, parts)
        self._hash = tuple.__hash__(self)
        return self

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (Fingerprint, (tuple(self),))


def query_fingerprint(query: "Query") -> Fingerprint:
    """Content-based identity of a query: tables, join predicates, filters.

    Deliberately ignores ``query.name``: ad-hoc Query objects describing the
    same query share cache entries, and reused names with different filters
    never collide.  Filter values may be lists (``in`` predicates); they are
    rendered to strings so the fingerprint stays hashable.

    Computed once per ``Query`` object and kept on it (``Query._fingerprint``):
    the three sorts below cost ~8 us for a six-table query, which is most of a
    store lookup and twice per execution.  The memo cannot go stale because a
    ``Query`` stores its content fields as tuples.  It is a
    :class:`Fingerprint`, whose hash is computed in the current process and
    never persisted: a pickled ``Query`` carries the content and the process
    that loads it hashes it again.  A query unpickled from before the memo
    existed computes it on first use, and one whose memo is a plain tuple
    (pickled before :class:`Fingerprint` existed) has it wrapped once.
    """
    fingerprint = query._fingerprint
    if fingerprint.__class__ is Fingerprint:
        return fingerprint
    if fingerprint is None:
        tables = tuple(sorted((ref.alias, ref.table) for ref in query.table_refs))
        joins = tuple(
            sorted(
                min(
                    (p.left_alias, p.left_column, p.right_alias, p.right_column),
                    (p.right_alias, p.right_column, p.left_alias, p.left_column),
                )
                for p in query.join_predicates
            )
        )
        filters = tuple(
            sorted((f.alias, f.column, f.op, repr(f.value)) for f in query.filters)
        )
        fingerprint = (tables, joins, filters)
    fingerprint = query._fingerprint = Fingerprint(fingerprint)
    return fingerprint


def plan_fingerprint(query: "Query", plan: "JoinTree") -> tuple:
    """Identity of one ``(query, plan)`` execution: query content + the
    plan's canonical rendering (structure + operators; children not
    commuted, matching the latency-noise seed)."""
    return (query_fingerprint(query), plan.canonical())


# ------------------------------------------------------------------ entries
@dataclass
class OutcomeEntry:
    """The replayable record of one plan execution.

    ``completed`` — the recording run charged every operator (it may still
    have been censored by the *post-noise* latency check; the log itself is
    complete, so it serves any timeout).  ``work_capped`` — the run hit the
    executor's materialization cap, which fires deterministically at the same
    node for every timeout, so the entry serves any finite timeout.
    Otherwise the log is truncated at the charge that exceeded
    ``observed_to`` and can only serve timeouts ``<= observed_to``.
    """

    events: list[Event]
    completed: bool
    observed_to: float | None
    output_rows: int | None
    work_capped: bool = False

    def serves(self, timeout: float | None) -> bool:
        """Whether replaying this entry reproduces execution under ``timeout``.

        A completed log always does.  A work-capped log serves any timeout
        (without one, a real run raises ExecutionError instead — that path
        re-executes).  A censored-at-T log serves any timeout ``<= T``: the
        accumulated time exceeds the smaller timeout at (or before) the
        charge where the recording run aborted.
        """
        if self.completed:
            return True
        if timeout is None:
            return False
        if self.work_capped:
            return True
        return self.observed_to is not None and timeout <= self.observed_to


@dataclass
class SubplanEntry:
    """One memoized subtree: its intermediate and the charges that built it.

    ``intermediate`` is ``None`` for *events-only* entries — subtrees whose
    materialized arrays exceeded the per-entry byte cap.  Their charge log is
    still enough to serve the common catastrophic case: when replaying the
    recorded charges from the current accumulated time would already exceed
    the execution's timeout, the executor censors without materializing
    anything (the arrays would have been thrown away at the abort anyway).
    When the charges would *not* exceed the timeout, the subtree is
    re-executed for real — the arrays are genuinely needed then.
    """

    intermediate: "_Intermediate | None"
    events: list[Event]
    nbytes: int


def intermediate_nbytes(intermediate: "_Intermediate") -> int:
    """Memory charged for a cached intermediate: its retained position arrays
    (a still-deferred one reports the size its array will have)."""
    return sum(positions.nbytes for positions in intermediate.positions.values())


def _events_nbytes(events: list[Event]) -> int:
    """LRU accounting for an events-only entry (small, but never free)."""
    return 64 + 48 * len(events)


# ------------------------------------------------------------------ the cache
class ExecutionCache:
    """The workload-wide execution memo: outcome cache + subplan LRU.

    One instance serves every query executed through its
    :class:`~repro.db.executor.Executor`; the executor owns replay, this
    class owns storage, eviction and accounting.  Not thread-safe by design:
    each execution actor (the inline executor, each process-pool worker)
    holds its own instance.
    """

    def __init__(self, config: ExecutionCacheConfig | None = None) -> None:
        self.config = config or ExecutionCacheConfig()
        self.counters = CacheCounters()
        self._outcomes: dict[tuple, OutcomeEntry] = {}
        #: Monotone count of outcomes stored (never reset): what a checkpoint
        #: remembers to later ask for "stored since" — see
        #: :meth:`export_outcomes`.
        self.stamp = 0
        # Insertion order doubles as recency order (moved on every hit).
        self._subplans: dict[tuple, SubplanEntry] = {}
        self._subplan_bytes = 0

    # ------------------------------------------------------------------ outcome side
    def lookup_outcome(self, key: tuple, timeout: float | None) -> OutcomeEntry | None:
        """The entry for ``key`` if it can serve ``timeout``, else ``None``."""
        entry = self._outcomes.get(key)
        if entry is not None and entry.serves(timeout):
            self.counters.outcome_hits += 1
            return entry
        self.counters.outcome_misses += 1
        return None

    def store_outcome(
        self,
        key: tuple,
        events: list[Event],
        completed: bool,
        observed_to: float | None,
        output_rows: int | None,
        work_capped: bool = False,
    ) -> None:
        """Record an execution, keeping the most informative entry per key.

        A completed log beats any censored one; a work-capped log beats a
        time-censored one (it serves every finite timeout); among
        time-censored logs the one observed to the larger timeout wins.
        """
        existing = self._outcomes.get(key)
        if existing is not None:
            if not completed:
                if existing.completed or (existing.work_capped and not work_capped):
                    return
                if not work_capped and (
                    observed_to is None
                    or (existing.observed_to is not None and existing.observed_to >= observed_to)
                ):
                    return
            # A replaced entry moves to the dict's end, so the dict's order is
            # the order of stores and the newest ``n`` stores are its last
            # ``n`` items (``export_outcomes(since=...)``).  ``pop`` so that two
            # threads sharing a Database cannot both delete the key.
            self._outcomes.pop(key, None)
        self._outcomes[key] = OutcomeEntry(
            events=events,
            completed=completed,
            observed_to=observed_to,
            output_rows=output_rows,
            work_capped=work_capped,
        )
        self.stamp += 1

    def export_outcomes(self, since: int = 0) -> list[tuple]:
        """The outcome cache as plain picklable tuples (for checkpoints).

        Only the outcome side travels: it is the part that carries replayable
        execution *results*.  The subplan memo is a pure performance
        structure rebuilt naturally as execution resumes, and its
        intermediates can be large.

        ``since`` is a value :attr:`stamp` had earlier: every entry stored
        after that moment is exported (and, when a key was stored twice since,
        as many older ones — harmless to an importer that upserts), at a cost
        proportional to their number rather than to the size of the cache.
        """
        items = self._outcomes.items()
        newer = self.stamp - since
        if newer < len(items):
            items = reversed(list(islice(reversed(items), newer)))
        return [
            (
                key,
                list(entry.events),
                entry.completed,
                entry.observed_to,
                entry.output_rows,
                entry.work_capped,
            )
            for key, entry in items
        ]

    def import_outcomes(self, payload: Iterable[tuple]) -> int:
        """Restore entries exported by :meth:`export_outcomes`.

        Goes through :meth:`store_outcome`, so restoring into a cache that
        already holds fresher entries keeps the most informative one — the
        import is an upsert, not a blind overwrite.  Returns the number of
        entries offered.
        """
        count = 0
        for key, events, completed, observed_to, output_rows, work_capped in payload:
            self.store_outcome(
                tuple(key),
                list(events),
                completed,
                observed_to,
                output_rows,
                work_capped=work_capped,
            )
            count += 1
        return count

    # ------------------------------------------------------------------ subplan side
    def get_subplan(self, key: tuple) -> SubplanEntry | None:
        """The entry for ``key``, recency-refreshed; does **not** count stats.

        The executor decides whether the entry is actually *usable* (an
        events-only entry only serves executions it can censor), so hit/miss
        accounting lives with the caller — see :meth:`count_subplan_hit` /
        :meth:`count_subplan_miss`.
        """
        # Refresh recency: re-insertion moves the key to the dict's end (one
        # pop, so two threads sharing a Database cannot both delete the key).
        entry = self._subplans.pop(key, None)
        if entry is not None:
            self._subplans[key] = entry
        return entry

    def count_subplan_hit(self) -> None:
        self.counters.subplan_hits += 1

    def count_subplan_miss(self) -> None:
        self.counters.subplan_misses += 1

    def put_subplan(self, key: tuple, intermediate: "_Intermediate", events: list[Event]) -> None:
        array_bytes = intermediate_nbytes(intermediate)
        if array_bytes > min(self.config.entry_limit, self.config.max_bytes):
            # Oversized: retaining the arrays would evict many small shared
            # entries (and bloat the allocator); keep the charge log only.
            stored: "_Intermediate | None" = None
            nbytes = _events_nbytes(events)
        else:
            stored = intermediate
            # Kept deferred only when its arrays would weigh more than what
            # the deferral pins (pair set, intermediate index, sources): a
            # blow-up join.  Its first reader writes them then — maybe a
            # later execution, or two threads at once, both writing equal
            # arrays (the relation caches' benign race) — and a parent
            # counting its build side never does.  Otherwise the gathers end
            # here.
            pinned = stored.deferral_nbytes()
            if pinned is None or array_bytes <= pinned:
                for alias in stored.positions:
                    stored.positions[alias]
            # Charged its arrays either way: the larger of the two when it is
            # kept deferred (a reader may still write them), all it holds
            # once written.  The event log is charged too, so even zero-byte
            # intermediates (empty or fully pruned position sets) are never
            # free.
            nbytes = array_bytes + _events_nbytes(events)
        if nbytes > self.config.max_bytes:
            return
        old = self._subplans.pop(key, None)
        if old is not None:
            self._subplan_bytes -= old.nbytes
        self._subplans[key] = SubplanEntry(stored, events, nbytes)
        self._subplan_bytes += nbytes
        # Evict oldest-first until under budget.  The just-inserted entry sits
        # at the recency end and fits on its own (guarded above), so it is
        # never the eviction victim.
        while self._subplan_bytes > self.config.max_bytes:
            evicted_key = next(iter(self._subplans))
            self._subplan_bytes -= self._subplans.pop(evicted_key).nbytes
            self.counters.evictions += 1

    # ------------------------------------------------------------------ accounting
    @property
    def subplan_bytes(self) -> int:
        return self._subplan_bytes

    @property
    def num_outcomes(self) -> int:
        return len(self._outcomes)

    @property
    def num_subplans(self) -> int:
        return len(self._subplans)

    def subplan_keys(self) -> Iterable[tuple]:
        """Current subplan keys, oldest first (exposed for tests)."""
        return tuple(self._subplans)

    def clear(self) -> None:
        self._outcomes.clear()
        self._subplans.clear()
        self._subplan_bytes = 0
