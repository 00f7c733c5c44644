"""Physical plan execution with simulated latency and timeout support.

The executor really runs each join tree against the in-memory relations —
filters are evaluated, hash matches are computed, intermediate results are
materialized — so the cardinalities that drive the reported latency are the
*true* ones for the chosen join order.  Latency itself is *simulated*: it is
the cost model of :mod:`repro.db.cost` evaluated on the observed input and
output sizes of every operator, expressed in simulated seconds.  This keeps
wall-clock cost tiny (the whole benchmark suite runs on a laptop) while
preserving the property the paper depends on: plan latency spans orders of
magnitude across join orders, and bad plans must be cut short by timeouts.

Timeouts are enforced *during* execution: before and after each operator the
accumulated simulated time is compared against the timeout, and execution
aborts with a right-censored result as soon as it is exceeded.

Execution is memoized through an optional :class:`~repro.db.plan_cache.ExecutionCache`:
an identical ``(query, plan)`` pair replays its recorded charge-event log
instead of re-executing (timeout-aware — see
:class:`~repro.db.plan_cache.OutcomeEntry`), and within a scratch execution
every join subtree already seen for the same query replays its recorded
charges and reuses its materialized intermediate.  Replay repeats the exact
float additions of the recording run in the exact order, so latencies,
censoring, node counts and cost breakdowns are bit-for-bit identical with the
cache on or off.

Scans and joins are built from the columnar kernels of
:mod:`repro.db.kernels`: per-relation predicate-bitmap and selection caches,
one counting join index for every build side (cached per relation for a
scanned one), and one match on every predicate of a join: shared columns
filter one side's rows, the rest form one composite key.  The nested-loop
evaluator in ``tests/oracles/reference_executor.py`` is the independent
check of what they produce and charge.

Joins materialize on read.  A join knows its output *count* from the match
counts; the pair set keeps its right index unexpanded and the join records,
per retained alias, which side of the pair set and which child positions it
gathers from (:class:`_Positions`).  The arrays are written by the first
``positions[alias]`` read — a parent's probe or predicate columns
(``_values_for``), ``_scan_join_index``, the parent's own gather, or the
subplan memo storing the intermediate — so a root join (nothing retained), a
side no later predicate references and a join whose parent is censored on its
pre-charge allocate nothing.  A parent joining on one predicate whose build
side is a blow-up join (more pairs than the gathered side's source has rows)
does not read its positions either: it counts its join index from the source
rows, each weighted by how often it occurs in the pairs
(``_counted_join_index``), and gathers the build keys from the source's only
once the count shows the join stays under the work cap — so a capped join
over a 2.6 M-row build side reads ~10^5 rows, and no root join writes its
build side's positions.  The memo writes what it stores, except a join
output whose arrays would weigh more than what keeping it deferred pins (see
:meth:`ExecutionCache.put_subplan`): that one is written by its first reader
in a later execution, if any.
Charges cannot move: every charge, work-cap check, node count and event is
issued from ``match.total`` / ``n_left * n_right`` before any pair is
expanded, exactly where it was when outputs were written eagerly.

A batch of sibling plans for one query can be executed in one pass via
:meth:`Executor.run_batch` (see :class:`BatchExecutor`): shared join subtrees
— keyed by the same canonical subtree keys the subplan memo uses — execute
exactly once per batch, and every plan's result is reconstructed by replaying
its own charge-event stream, so per-plan timeouts, censoring and work-cap
aborts behave exactly as in sequential execution.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.db import kernels
from repro.db.catalog import Schema
from repro.db.cost import CostParams, DEFAULT_COST_PARAMS, index_scan_cost, join_cost, seq_scan_cost
from repro.db.plan_cache import (
    CAP_EVENT,
    NODE_EVENT,
    CacheStats,
    Event,
    ExecutionCache,
    ExecutionCacheConfig,
    plan_fingerprint,
    query_fingerprint,
)
from repro.db.query import Query
from repro.db.relation import Relation
from repro.exceptions import ExecutionError
from repro.plans.jointree import JoinTree
from repro.utils.seeding import stable_digest

#: Hard cap on the number of rows the executor will materialize for a single
#: intermediate result.  Plans that exceed it without a timeout are treated as
#: timed out at the accumulated simulated time (documented substitution for
#: "this plan would run for days").
MAX_MATERIALIZED_ROWS = 15_000_000

#: Row positions are ``intp`` (``flatnonzero``/``arange`` and gathers of them),
#: so the size of a deferred gather is known before it is written.
_POSITION_ITEMSIZE = np.dtype(np.intp).itemsize


@dataclass
class ExecutionResult:
    """Outcome of executing one plan.

    ``latency`` is the simulated latency in seconds.  For timed-out executions
    it equals the timeout that was applied (the plan ran *at least* this long),
    i.e. a right-censored observation.
    """

    latency: float
    timed_out: bool
    output_rows: int | None = None
    nodes_executed: int = 0
    timeout: float | None = None
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Cache observability for this execution (``None`` when caching is off).
    cache: CacheStats | None = None

    @property
    def censored(self) -> bool:
        """Alias for :attr:`timed_out` using the BO terminology."""
        return self.timed_out


@dataclass
class _Gather:
    """One retained alias of a join output that nobody has read yet.

    ``pairs`` is the join's pair set and ``left`` the side the alias comes
    from, ``source`` that child's positions (possibly deferred themselves)
    over its ``source_rows`` rows, and ``nbytes`` the size the array will
    have, so the memo can account for — and refuse — an intermediate without
    writing it.
    """

    pairs: "kernels.PairSet"
    left: bool
    source: "dict[str, np.ndarray]"
    source_rows: int
    nbytes: int

    def gather(self, values: np.ndarray) -> np.ndarray:
        """``values`` (one per source row) at each pair of this side."""
        if self.left:
            return self.pairs.gather_left(values)
        return self.pairs.gather_right(values)


class _Positions(dict):
    """``alias -> row positions`` of a join output, gathered on first read.

    Only ``positions[alias]`` forces a gather (and replaces the
    :class:`_Gather` by its array); iteration and ``values()`` see the raw
    entries, which lets :func:`~repro.db.plan_cache.intermediate_nbytes` size
    an intermediate without materializing it.  Two threads reading one alias
    of a memo entry may both gather it and both store equal arrays: the
    relation caches' benign race.
    """

    def __getitem__(self, alias: str) -> np.ndarray:
        value = super().__getitem__(alias)
        if isinstance(value, _Gather):
            value = self[alias] = value.gather(value.source[alias])
        return value


def _pair_set_nbytes(pairs: "kernels.PairSet") -> int:
    """Bytes a pair set holds for its gathers: its factorized left side, its
    match and the build side's join index (keys not gathered yet excluded)."""
    arrays = [pairs.left_rows, pairs.run_counts]
    if pairs.match is not None:
        index = pairs.match.index
        arrays += [pairs.match.lo, pairs.match.counts, index.counts_table, index.starts_table,
                   index.rows, vars(index).get("keys"), vars(index).get("source_keys")]
    return sum(array.nbytes for array in arrays if array is not None)


@dataclass
class _Intermediate:
    """An intermediate result.

    ``positions`` maps each *retained* alias to the base-table row position of
    every intermediate row.  Aliases whose columns can no longer influence the
    rest of the plan (no pending join predicate references them) are pruned to
    keep memory proportional to the join columns still needed; ``covered``
    remembers every alias the intermediate logically contains.  A join's
    output holds :class:`_Positions`, each deferred until read; the subplan
    memo writes what it stores unless the deferral is the lighter form
    (:meth:`deferral_nbytes`).

    ``scan`` tags base-table scans with ``(table, selection key)`` so joins
    against them reuse the relation's cached join index instead of building
    one per join.
    """

    positions: dict[str, np.ndarray]
    covered: set[str]
    count: int
    scan: tuple | None = None

    @property
    def aliases(self) -> set[str]:
        return self.covered

    @property
    def num_rows(self) -> int:
        return self.count

    def deferral_nbytes(self) -> int | None:
        """What keeping this join output deferred pins, if it is a blow-up join.

        For each deferred alias, what its gather will read: the pair set, its
        build side's join index and the source positions (a deferred source
        at the size it will have), each counted once.  ``None`` when no
        deferred alias has more rows than its source: its arrays weigh about
        what its sources do, and keeping it deferred gains nothing.
        """
        gathers = [value for value in dict.values(self.positions) if isinstance(value, _Gather)]
        if not any(gather.pairs.count > gather.source_rows for gather in gathers):
            return None
        pairs = {id(gather.pairs): gather.pairs for gather in gathers}
        sources = {id(gather.source): gather.source for gather in gathers}
        return sum(map(_pair_set_nbytes, pairs.values())) + sum(
            value.nbytes for source in sources.values() for value in dict.values(source)
        )


class _Timeout(Exception):
    """Internal signal: simulated time exceeded the timeout."""


class Executor:
    """Executes join trees against a set of relations.

    Parameters
    ----------
    schema:
        Catalog (used for index lookups).
    relations:
        The stored data, one relation per table.
    cost_params:
        Operator cost constants shared with the default optimizer.
    noise_sigma:
        Standard deviation of multiplicative log-normal latency noise.  Noise
        is deterministic per plan (seeded from the plan's canonical string) so
        repeated executions of the same plan observe the same latency.
    seed:
        Base seed for the latency noise.
    cache:
        Optional :class:`~repro.db.plan_cache.ExecutionCache`.  When set,
        repeated ``(query, plan)`` executions replay their recorded charge
        log and overlapping plans of the same query reuse memoized subtree
        intermediates — results are bit-for-bit identical either way.
    """

    def __init__(
        self,
        schema: Schema,
        relations: dict[str, Relation],
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        noise_sigma: float = 0.0,
        seed: int = 0,
        cache: ExecutionCache | None = None,
    ) -> None:
        self.schema = schema
        self.relations = relations
        self.cost_params = cost_params
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.cache = cache

    # ------------------------------------------------------------------ public API
    def execute(
        self, query: Query, plan: JoinTree, timeout: float | None = None
    ) -> ExecutionResult:
        """Execute ``plan`` for ``query``; abort with a censored result after ``timeout``."""
        plan.validate_for_query(query)
        if self.cache is None:
            return self._execute_scratch(query, plan, timeout, None, None, None)
        outcome_key = plan_fingerprint(query, plan)
        entry = self.cache.lookup_outcome(outcome_key, timeout)
        if entry is not None:
            return self._replay_outcome(plan, entry, timeout, self.cache)
        return self._execute_scratch(
            query, plan, timeout, query_fingerprint(query), outcome_key, self.cache
        )

    def run_batch(
        self,
        query: Query,
        plans: Sequence[JoinTree],
        timeouts: "Sequence[float | None] | float | None" = None,
    ) -> list[ExecutionResult]:
        """Execute a batch of sibling plans in one pass over shared subtrees.

        Results are bit-for-bit identical to calling :meth:`execute` once per
        plan, in order — including per-plan timeout censoring and work-cap
        aborts.  See :class:`BatchExecutor`.
        """
        return BatchExecutor(self).run(query, plans, timeouts)

    def _execute_scratch(
        self,
        query: Query,
        plan: JoinTree,
        timeout: float | None,
        query_key: tuple | None,
        outcome_key: tuple | None,
        cache: ExecutionCache | None,
    ) -> ExecutionResult:
        """Execute for real, recording the charge log when caching is on.

        ``cache`` is passed explicitly (rather than read from ``self``) so a
        batch execution can thread its own ephemeral per-batch cache through
        without mutating executor state shared across threads.
        """
        caching = cache is not None and query_key is not None
        state = _ExecutionState(timeout=timeout, events=[] if caching else None)
        subplan_hits_before = cache.counters.subplan_hits if caching else 0
        subplan_misses_before = cache.counters.subplan_misses if caching else 0
        try:
            intermediate = self._execute_node(query, plan, state, cache, query_key, is_root=True)
        except _Timeout:
            assert timeout is not None
            if caching:
                cache.store_outcome(
                    outcome_key, state.events, completed=False,
                    observed_to=timeout, output_rows=None,
                    work_capped=bool(state.events) and state.events[-1][0] == CAP_EVENT,
                )
            return ExecutionResult(
                latency=timeout,
                timed_out=True,
                output_rows=None,
                nodes_executed=state.nodes_executed,
                timeout=timeout,
                breakdown=dict(state.breakdown),
                cache=self._scratch_stats(
                    cache if caching else None, subplan_hits_before, subplan_misses_before
                ),
            )
        if caching:
            cache.store_outcome(
                outcome_key, state.events, completed=True,
                observed_to=None, output_rows=intermediate.num_rows,
            )
        stats = self._scratch_stats(
            cache if caching else None, subplan_hits_before, subplan_misses_before
        )
        latency = self._apply_noise(plan, state.simulated_time)
        if timeout is not None and latency > timeout:
            return ExecutionResult(
                latency=timeout,
                timed_out=True,
                output_rows=None,
                nodes_executed=state.nodes_executed,
                timeout=timeout,
                breakdown=dict(state.breakdown),
                cache=stats,
            )
        return ExecutionResult(
            latency=latency,
            timed_out=False,
            output_rows=intermediate.num_rows,
            nodes_executed=state.nodes_executed,
            timeout=timeout,
            breakdown=dict(state.breakdown),
            cache=stats,
        )

    def _scratch_stats(
        self, cache: ExecutionCache | None, hits_before: int, misses_before: int
    ) -> CacheStats | None:
        if cache is None:
            return None
        return CacheStats(
            outcome_hit=False,
            subplan_hits=cache.counters.subplan_hits - hits_before,
            subplan_misses=cache.counters.subplan_misses - misses_before,
            bytes_cached=cache.subplan_bytes,
        )

    def _replay_outcome(
        self, plan: JoinTree, entry, timeout: float | None, cache: ExecutionCache
    ) -> ExecutionResult:
        """Re-produce an execution from its recorded charge log.

        The replay feeds the log through a fresh :class:`_ExecutionState`
        under the *requested* timeout, so censoring happens at exactly the
        charge where a real run would have aborted, and the accumulated
        simulated time goes through the identical sequence of additions.
        """
        state = _ExecutionState(timeout=timeout)
        stats = CacheStats(outcome_hit=True, bytes_cached=cache.subplan_bytes)
        try:
            state.replay(entry.events)
        except _Timeout:
            assert timeout is not None
            return ExecutionResult(
                latency=timeout,
                timed_out=True,
                output_rows=None,
                nodes_executed=state.nodes_executed,
                timeout=timeout,
                breakdown=dict(state.breakdown),
                cache=stats,
            )
        # The log replayed to completion; OutcomeEntry.serves guarantees this
        # only happens for completed recordings.
        latency = self._apply_noise(plan, state.simulated_time)
        if timeout is not None and latency > timeout:
            return ExecutionResult(
                latency=timeout,
                timed_out=True,
                output_rows=None,
                nodes_executed=state.nodes_executed,
                timeout=timeout,
                breakdown=dict(state.breakdown),
                cache=stats,
            )
        return ExecutionResult(
            latency=latency,
            timed_out=False,
            output_rows=entry.output_rows,
            nodes_executed=state.nodes_executed,
            timeout=timeout,
            breakdown=dict(state.breakdown),
            cache=stats,
        )

    def true_latency(self, query: Query, plan: JoinTree) -> float:
        """Latency of ``plan`` with no timeout (raises if the plan exceeds the work cap)."""
        result = self.execute(query, plan, timeout=None)
        if result.timed_out:
            raise ExecutionError(
                f"plan for query {query.name!r} exceeded the executor work cap; "
                "execute it with a timeout instead"
            )
        return result.latency

    # ------------------------------------------------------------------ node execution
    def _execute_node(
        self,
        query: Query,
        node: JoinTree,
        state: "_ExecutionState",
        cache: ExecutionCache | None,
        query_key: tuple | None = None,
        is_root: bool = False,
    ) -> _Intermediate:
        if query_key is None or cache is None:
            if node.is_leaf:
                return self._execute_scan(query, node.alias, state)  # type: ignore[arg-type]
            left = self._execute_node(query, node.left, state, cache)  # type: ignore[arg-type]
            right = self._execute_node(query, node.right, state, cache)  # type: ignore[arg-type]
            return self._execute_join(query, node, left, right, state)
        # The plan root is deliberately not memoized: a root subtree can only
        # match the identical (query, plan) pair, and a *completed* root is
        # exactly what the outcome cache stores — a root entry would
        # duplicate that log and never be hit.
        if is_root:
            if node.is_leaf:
                return self._execute_scan(query, node.alias, state)  # type: ignore[arg-type]
            left = self._execute_node(query, node.left, state, cache, query_key)  # type: ignore[arg-type]
            right = self._execute_node(query, node.right, state, cache, query_key)  # type: ignore[arg-type]
            return self._execute_join(query, node, left, right, state)
        # Memoized path: a subtree already executed for this query replays its
        # recorded charges (identical floats, identical timeout behaviour) and
        # returns the cached intermediate without touching the relations.
        subplan_key = (query_key, node.canonical())
        entry = cache.get_subplan(subplan_key)
        if entry is not None:
            if entry.intermediate is not None:
                cache.count_subplan_hit()
                state.replay(entry.events)
                return entry.intermediate
            if state.would_timeout(entry.events):
                # Events-only entry (intermediate was over the byte cap), but
                # its recorded charges alone blow the timeout from here: the
                # replay censors before any array would have been needed.
                cache.count_subplan_hit()
                state.replay(entry.events)
                raise AssertionError("events-only replay must censor")  # pragma: no cover
            # The charges fit under this timeout, so the arrays are genuinely
            # needed: fall through and execute the subtree for real.
        cache.count_subplan_miss()
        start = state.mark()
        if node.is_leaf:
            intermediate = self._execute_scan(query, node.alias, state)  # type: ignore[arg-type]
        else:
            left = self._execute_node(query, node.left, state, cache, query_key)  # type: ignore[arg-type]
            right = self._execute_node(query, node.right, state, cache, query_key)  # type: ignore[arg-type]
            intermediate = self._execute_join(query, node, left, right, state)
        # Only fully executed subtrees are cached: a _Timeout propagating
        # through here skips the put (its completed children were already
        # cached bottom-up).
        cache.put_subplan(subplan_key, intermediate, state.events_since(start))
        return intermediate

    def _execute_scan(self, query: Query, alias: str, state: "_ExecutionState") -> _Intermediate:
        table = query.table_of(alias)
        relation = self.relations[table]
        filters = query.filters_for(alias)
        positions, select_key = relation.select_cached(
            (flt.column, flt.op, flt.value) for flt in filters
        )
        indexed = any(self.schema.has_index(table, flt.column) for flt in filters)
        if indexed:
            cost = index_scan_cost(relation.num_rows, len(positions), self.cost_params)
        else:
            cost = seq_scan_cost(relation.num_rows, self.cost_params)
        state.charge("scan", cost)
        state.count_node()
        return _Intermediate(
            {alias: positions}, covered={alias}, count=len(positions), scan=(table, select_key)
        )

    def _execute_join(
        self,
        query: Query,
        node: JoinTree,
        left: _Intermediate,
        right: _Intermediate,
        state: "_ExecutionState",
    ) -> _Intermediate:
        predicates = query.predicates_between(left.aliases, right.aliases)
        n_left, n_right = left.num_rows, right.num_rows
        inner_indexed, inner_table_rows = self._inner_index_info(query, node, predicates)
        # Charge the input-dependent part of the cost before doing the work so
        # that catastrophic operators (cross joins, misplaced nested loops) hit
        # the timeout without being materialized.
        pre_cost = join_cost(
            node.op,  # type: ignore[arg-type]
            n_left,
            n_right,
            0.0,
            inner_indexed=inner_indexed,
            inner_table_rows=inner_table_rows,
            params=self.cost_params,
        )
        state.charge("join", pre_cost)
        if predicates:
            pairs = self._match(query, left, right, predicates, state)
        else:
            pairs = self._cross_join(n_left, n_right, state)
        state.count_node()
        covered = left.covered | right.covered
        needed = self._needed_aliases(query, covered)
        # Record where each retained alias gathers from; whoever reads it
        # first writes the array (see the module docstring).
        nbytes = pairs.count * _POSITION_ITEMSIZE
        positions = _Positions()
        for side, is_left in ((left, True), (right, False)):
            for alias in side.positions:
                if alias in needed:
                    positions[alias] = _Gather(pairs, is_left, side.positions, side.count, nbytes)
        return _Intermediate(positions, covered=covered, count=pairs.count)

    def _needed_aliases(self, query: Query, covered: set[str]) -> set[str]:
        """Aliases inside ``covered`` still referenced by a join predicate to outside it."""
        needed: set[str] = set()
        for predicate in query.join_predicates:
            left_alias, right_alias = predicate.aliases()
            if left_alias in covered and right_alias not in covered:
                needed.add(left_alias)
            elif right_alias in covered and left_alias not in covered:
                needed.add(right_alias)
        return needed

    # ------------------------------------------------------------------ matching
    def _values_for(self, query: Query, side: _Intermediate, alias: str, column: str) -> np.ndarray:
        relation = self.relations[query.table_of(alias)]
        return relation.take(side.positions[alias], column)

    @staticmethod
    def _orient(predicate, left: _Intermediate) -> tuple[str, str, str, str]:
        """Orient one join predicate as (left alias, left column, right alias, right column)."""
        if predicate.left_alias in left.aliases:
            return (predicate.left_alias, predicate.left_column,
                    predicate.right_alias, predicate.right_column)
        return (predicate.right_alias, predicate.right_column,
                predicate.left_alias, predicate.left_column)

    def _match(
        self,
        query: Query,
        left: _Intermediate,
        right: _Intermediate,
        predicates: list,
        state: "_ExecutionState",
    ) -> "kernels.PairSet":
        """Equi-match on every predicate at once, charged per first-predicate match.

        The build side is counted into a join index — once per (filter set,
        column) for a scanned relation, once per join for an intermediate —
        and the output is charged from the first predicate's match total
        before any pair is expanded.  More predicates are matched with it over
        rows, never pairs (:func:`kernels.match_all`); the left side of the
        pair set stays factorized so position gathers run as sequential
        repeats (late materialization).  Pair order: see the determinism
        contract in :mod:`repro.db.kernels`.
        """
        oriented = [self._orient(predicate, left) for predicate in predicates]
        left_alias, left_column, right_alias, right_column = oriented[0]
        left_keys = self._values_for(query, left, left_alias, left_column)
        index = self._scan_join_index(query, right, right_alias, right_column)
        counted = False
        if index is None and len(oriented) == 1:
            # Several predicates: match_all reads the keys anyway, so gather them.
            index = self._counted_join_index(query, right, right_alias, right_column)
            counted = index is not None
        if index is None:
            # An intermediate build side: the same index, private to this join.
            right_keys = self._values_for(query, right, right_alias, right_column)
            index = kernels.build_join_index(right_keys)
        match = kernels.probe_join_index(index, left_keys)
        # Check the output size and charge its cost *before* materializing it,
        # so catastrophic joins hit the timeout without allocating huge arrays.
        self._check_materialization(match.total, state)
        state.charge("join", self.cost_params.output_row * match.total)
        if counted:
            # The count decided the cap.  A join that completes gathers its
            # build keys now, as it would have without a count: counting
            # past them as well cut plan execution on opt_exec_bound to about
            # the BO overhead Fig. 9's shape check compares it with
            # (``make bench-shape``).
            index.keys
        if len(oriented) > 1 and match.total:
            # Each (alias, column) gathered once; index.keys is the first right one.
            pairs = [(predicate[:2], predicate[2:]) for predicate in oriented]
            columns = ({pairs[0][0]: left_keys}, {pairs[0][1]: index.keys})
            for pair in pairs[1:]:
                for side, side_columns, key in zip((left, right), columns, pair):
                    if key not in side_columns:
                        side_columns[key] = self._values_for(query, side, *key)
            match = kernels.match_all(*columns, pairs)
        return kernels.expand_pairs(match)

    def _scan_join_index(
        self, query: Query, side: _Intermediate, alias: str, column: str
    ) -> "kernels.JoinIndex | None":
        """The cached join index for a base-table-scan side, if any."""
        if side.scan is None:
            return None
        table, select_key = side.scan
        return self.relations[table].join_index(select_key, side.positions[alias], column)

    def _counted_join_index(
        self, query: Query, side: _Intermediate, alias: str, column: str
    ) -> "kernels.JoinIndex | None":
        """The join index of a build side not gathered yet, counted from its sources.

        Only for a blow-up join's output (more pairs than the source has rows:
        gathering writes more than counting reads).  Each source row's key is
        counted as often as the row occurs in the pair set, so the index is
        ``build_join_index`` over the gathered keys, bit for bit; the keys
        are gathered from the source's once the join is known to complete.
        ``None``: gather as usual.
        """
        deferred = dict.get(side.positions, alias)
        if not isinstance(deferred, _Gather) or deferred.pairs.count <= deferred.source_rows:
            return None
        source_keys = self.relations[query.table_of(alias)].take(deferred.source[alias], column)
        return kernels.count_join_index(deferred.pairs, deferred.left, source_keys)

    def _cross_join(
        self, n_left: int, n_right: int, state: "_ExecutionState"
    ) -> "kernels.PairSet":
        output = n_left * n_right
        self._check_materialization(output, state)
        state.charge("join", self.cost_params.output_row * output)
        return kernels.PairSet(output, cross=(n_left, n_right))

    def _check_materialization(self, rows: int, state: "_ExecutionState") -> None:
        if rows <= MAX_MATERIALIZED_ROWS:
            return
        # Charge the output cost analytically; this will normally blow past the
        # timeout.  Without a timeout we still refuse to materialize.
        state.charge("join", self.cost_params.output_row * rows)
        state.work_cap(rows)

    def _inner_index_info(self, query: Query, node: JoinTree, predicates: list) -> tuple[bool, float]:
        right = node.right
        if right is None or not right.is_leaf or not predicates:
            return False, 0.0
        alias = right.alias
        table = query.table_of(alias)  # type: ignore[arg-type]
        table_rows = float(self.relations[table].num_rows)
        for predicate in predicates:
            column = None
            if predicate.left_alias == alias:
                column = predicate.left_column
            elif predicate.right_alias == alias:
                column = predicate.right_column
            if column is not None and self.schema.has_index(table, column):
                return True, table_rows
        return False, table_rows

    # ------------------------------------------------------------------ noise
    def _apply_noise(self, plan: JoinTree, latency: float) -> float:
        if self.noise_sigma <= 0.0:
            return latency
        digest = stable_digest(self.seed, plan.canonical(), bits=32)
        rng = np.random.default_rng(digest)
        return float(latency * math.exp(rng.normal(0.0, self.noise_sigma)))


class BatchExecutor:
    """One-pass execution of sibling plans for a single query.

    The batch path reuses the machinery PR 5 proved bit-for-bit safe: an
    **ephemeral per-batch** :class:`~repro.db.plan_cache.ExecutionCache`
    deduplicates shared join subtrees across the batch (canonical subtree
    keys), executes each distinct subtree exactly once, and reconstructs
    every plan's result by replaying its own charge-event stream.  Replay
    runs under each plan's *own* timeout, so censoring and work-cap aborts
    trigger per plan even when the shared subtree completed for a sibling
    (a censored sibling's partially-executed subtrees are simply not cached
    — only completed segments replay).  Duplicate plans inside one batch
    dedup through the ephemeral outcome cache under the same
    timeout-serving rules as the persistent one.

    When the executor already has a persistent cache, that cache *is* the
    dedup structure (and additionally persists across batches), so the batch
    reduces to sequential execution against it.

    The per-result :class:`~repro.db.plan_cache.CacheStats` report the
    shared-subtree savings (``subplan_hits`` against the batch cache) and
    are flagged ``batched=True``.
    """

    def __init__(self, executor: Executor) -> None:
        self.executor = executor

    def run(
        self,
        query: Query,
        plans: Sequence[JoinTree],
        timeouts: "Sequence[float | None] | float | None" = None,
    ) -> list[ExecutionResult]:
        plans = list(plans)
        if timeouts is None or isinstance(timeouts, (int, float)):
            timeouts = [timeouts] * len(plans)
        else:
            timeouts = list(timeouts)
            if len(timeouts) != len(plans):
                raise ExecutionError(
                    f"run_batch got {len(plans)} plans but {len(timeouts)} timeouts"
                )
        executor = self.executor
        if executor.cache is not None:
            results = [
                executor.execute(query, plan, timeout)
                for plan, timeout in zip(plans, timeouts)
            ]
            return [self._mark_batched(result) for result in results]
        batch_cache = ExecutionCache(ExecutionCacheConfig())
        query_key = query_fingerprint(query)
        results = []
        for plan, timeout in zip(plans, timeouts):
            plan.validate_for_query(query)
            outcome_key = plan_fingerprint(query, plan)
            entry = batch_cache.lookup_outcome(outcome_key, timeout)
            if entry is not None:
                result = executor._replay_outcome(plan, entry, timeout, batch_cache)
            else:
                result = executor._execute_scratch(
                    query, plan, timeout, query_key, outcome_key, batch_cache
                )
            results.append(self._mark_batched(result))
        return results

    @staticmethod
    def _mark_batched(result: ExecutionResult) -> ExecutionResult:
        if result.cache is not None:
            result.cache = dataclasses.replace(result.cache, batched=True)
        return result


@dataclass
class _ExecutionState:
    timeout: float | None
    simulated_time: float = 0.0
    nodes_executed: int = 0
    breakdown: dict[str, float] = field(default_factory=dict)
    #: Charge-event log (recording is on when the executor has a cache).
    #: The event is appended *before* the timeout check so a censored log
    #: ends with the violating charge and replays to the same abort point.
    events: list[Event] | None = None

    def charge(self, category: str, cost: float) -> None:
        if self.events is not None:
            self.events.append((category, cost))
        self.simulated_time += cost
        self.breakdown[category] = self.breakdown.get(category, 0.0) + cost
        if self.timeout is not None and self.simulated_time > self.timeout:
            raise _Timeout

    def count_node(self) -> None:
        if self.events is not None:
            self.events.append((NODE_EVENT, 0.0))
        self.nodes_executed += 1

    def work_cap(self, rows: float) -> None:
        """Abort: an intermediate exceeded the materialization work cap.

        Unlike a timeout, the cap fires regardless of accumulated simulated
        time, so it must leave its own event in the log for replay to abort
        at the same point.
        """
        if self.events is not None:
            self.events.append((CAP_EVENT, float(rows)))
        if self.timeout is not None:
            raise _Timeout
        raise ExecutionError(
            f"intermediate result of {int(rows)} rows exceeds the executor work cap; "
            "execute this plan with a timeout"
        )

    def mark(self) -> int:
        """Current position in the event log (start of a subtree segment)."""
        return len(self.events) if self.events is not None else 0

    def events_since(self, start: int) -> list[Event]:
        return self.events[start:] if self.events is not None else []

    def replay(self, events: list[Event]) -> None:
        """Re-apply a recorded event segment through this state.

        Replayed events are themselves re-recorded (when recording is on), so
        a parent subtree's segment — and the whole plan's outcome log —
        contains its memoized children's charges too.
        """
        for category, cost in events:
            if category == NODE_EVENT:
                self.count_node()
            elif category == CAP_EVENT:
                self.work_cap(cost)
            else:
                self.charge(category, cost)

    def would_timeout(self, events: list[Event]) -> bool:
        """Whether replaying ``events`` from here would abort this execution.

        A dry run of :meth:`replay`'s accumulation — the same float additions
        in the same order against a local accumulator — with no side effects,
        so the caller can decide whether an events-only cache entry suffices.
        """
        if self.timeout is None:
            return False
        simulated = self.simulated_time
        for category, cost in events:
            if category == NODE_EVENT:
                continue
            if category == CAP_EVENT:
                return True
            simulated += cost
            if simulated > self.timeout:
                return True
        return False
