"""The :class:`Database` facade: schema + data + statistics + planner + executor.

This is the substrate object every higher layer works against.  It exposes the
four capabilities the paper's system model assumes of the DBMS:

1. a default optimizer that produces reasonable (not optimal) plans,
2. execution against a read snapshot,
3. acceptance of physical plans / hints that fix join orders and operators,
4. PK-FK equijoin queries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.db.catalog import Schema
from repro.db.cost import CostParams, DEFAULT_COST_PARAMS
from repro.db.executor import ExecutionResult, Executor
from repro.db.optimizer import PlanOptimizer
from repro.db.plan_cache import ExecutionCache, ExecutionCacheConfig
from repro.db.query import Query
from repro.db.relation import Relation
from repro.db.statistics import TableStats, analyze_all
from repro.exceptions import CatalogError
from repro.plans.hints import DEFAULT_HINT_SET, HintSet
from repro.plans.jointree import JoinTree


@dataclass
class DatabaseInfo:
    """Summary information about a database instance (used by Table 1)."""

    name: str
    num_tables: int
    total_rows: int
    size_bytes: int


class Database:
    """An in-memory analytical database instance.

    Parameters
    ----------
    schema:
        Catalog describing the tables, foreign keys and indexes.
    relations:
        Stored data, one :class:`~repro.db.relation.Relation` per table.
    cost_params:
        Operator cost constants shared by the planner and the executor.
    noise_sigma:
        Log-normal execution latency noise (0 disables noise).
    seed:
        Seed for the latency noise.
    exec_cache:
        The execution-memoization layer (see :mod:`repro.db.plan_cache`):
        ``True`` (the default) enables it with default limits, ``False``
        disables it, or pass an :class:`ExecutionCacheConfig` for explicit
        limits.  Caching never changes results — repeated and overlapping
        plan executions just stop paying for work already done.
    """

    def __init__(
        self,
        schema: Schema,
        relations: dict[str, Relation],
        cost_params: CostParams = DEFAULT_COST_PARAMS,
        noise_sigma: float = 0.0,
        seed: int = 0,
        exec_cache: ExecutionCacheConfig | bool = True,
    ) -> None:
        missing = [name for name in schema.table_names if name not in relations]
        if missing:
            raise CatalogError(f"missing relations for tables: {missing}")
        self.schema = schema
        self.relations = relations
        self.cost_params = cost_params
        self.exec_cache_config = self._normalize_cache_config(exec_cache)
        self.stats: dict[str, TableStats] = analyze_all(relations)
        self.optimizer = PlanOptimizer(schema, self.stats, cost_params)
        self.executor = Executor(
            schema,
            relations,
            cost_params,
            noise_sigma=noise_sigma,
            seed=seed,
            cache=self._build_cache(self.exec_cache_config),
        )

    @staticmethod
    def _normalize_cache_config(exec_cache: ExecutionCacheConfig | bool) -> ExecutionCacheConfig:
        if exec_cache is True:
            return ExecutionCacheConfig()
        if exec_cache is False:
            return ExecutionCacheConfig(enabled=False)
        return exec_cache

    @staticmethod
    def _build_cache(config: ExecutionCacheConfig) -> ExecutionCache | None:
        return ExecutionCache(config) if config.enabled else None

    # ------------------------------------------------------------------ execution cache
    @property
    def execution_cache(self) -> ExecutionCache | None:
        """The executor's memoization layer (``None`` when disabled)."""
        return self.executor.cache

    def with_execution_cache(self, config: ExecutionCacheConfig | bool) -> "Database":
        """A snapshot of this database carrying ``config`` as its cache setup.

        Shares the same immutable relations; returns ``self`` unchanged when
        the normalized config already matches.  This is how
        :class:`~repro.core.config.ExecutionServiceConfig` overrides are
        applied without mutating the caller's database (see
        :func:`repro.exec.apply_cache_overrides`).
        """
        config = self._normalize_cache_config(config)
        if config == self.exec_cache_config:
            return self
        return Database(
            self.schema,
            self.relations,
            self.cost_params,
            noise_sigma=self.executor.noise_sigma,
            seed=self.executor.seed,
            exec_cache=config,
        )

    def set_execution_cache(self, config: ExecutionCacheConfig | bool) -> None:
        """Reconfigure the memoization layer of *this* database in place.

        Reconfiguring to the *same* config is a no-op, so warm cache state
        survives repeated calls.  The execution service never calls this on
        a user's database — it derives a snapshot via
        :meth:`with_execution_cache` instead.
        """
        config = self._normalize_cache_config(config)
        if config == self.exec_cache_config:
            return
        self.exec_cache_config = config
        self.executor.cache = self._build_cache(config)

    # ------------------------------------------------------------------ planning
    def plan(self, query: Query, hint_set: HintSet = DEFAULT_HINT_SET) -> JoinTree:
        """Default-optimizer plan for ``query`` under ``hint_set``."""
        return self.plan_hint_sets(query, [hint_set])[0]

    def plan_hint_sets(self, query: Query, hint_sets: Sequence[HintSet]) -> list[JoinTree]:
        """Default-optimizer plans for ``query`` under each of ``hint_sets``, in one pass."""
        query.validate_against(self.schema)
        return self.optimizer.plan_hint_sets(query, hint_sets)

    def estimated_cost(self, query: Query, plan: JoinTree) -> float:
        """Planner cost estimate for an arbitrary plan (uses estimated cardinalities)."""
        return self.optimizer.estimated_cost(query, plan)

    # ------------------------------------------------------------------ execution
    def execute(
        self, query: Query, plan: JoinTree | None = None, timeout: float | None = None
    ) -> ExecutionResult:
        """Execute ``plan`` (or the default plan) against the read snapshot."""
        if plan is None:
            plan = self.plan(query)
        return self.executor.execute(query, plan, timeout=timeout)

    def execute_batch(
        self, query: Query, plans: list[JoinTree], timeouts=None
    ) -> list[ExecutionResult]:
        """Execute sibling plans for one query in one pass over shared subtrees.

        ``timeouts`` is a per-plan list (or one value applied to all).  The
        results are bit-for-bit identical to calling :meth:`execute` once per
        plan in order — including per-plan censoring and work-cap aborts; the
        batch only dedups shared join-subtree work (see
        :class:`~repro.db.executor.BatchExecutor`).
        """
        return self.executor.run_batch(query, plans, timeouts)

    def default_latency(self, query: Query) -> float:
        """Latency of the default-optimizer plan."""
        return self.execute(query).latency

    # ------------------------------------------------------------------ serialization
    def __getstate__(self) -> dict:
        """Pickle only the constructor inputs.

        Statistics, the planner and the executor are all deterministic
        functions of (schema, relations, cost params, noise, seed); rebuilding
        them on unpickle keeps the payload small and guarantees a worker
        process reconstructs exactly the replica ``__init__`` would have built.
        This is what lets a :class:`~repro.exec.ProcessPoolBackend` under a
        non-``fork`` start method (and every fabric node) receive one
        database and hold it warm across plan executions.
        """
        return {
            "schema": self.schema,
            "relations": self.relations,
            "cost_params": self.cost_params,
            "noise_sigma": self.executor.noise_sigma,
            "seed": self.executor.seed,
            "exec_cache": self.exec_cache_config,
        }

    def __setstate__(self, state: dict) -> None:
        # Older state dicts may lack "exec_cache" (rebuilt with the default)
        # or carry keys of since-removed options (ignored).
        self.__init__(
            state["schema"],
            state["relations"],
            state["cost_params"],
            noise_sigma=state["noise_sigma"],
            seed=state["seed"],
            exec_cache=state.get("exec_cache", True),
        )

    #: Timeout used when warmup pre-executes default plans to prime the
    #: execution cache (the technique's own initial timeout, so pathological
    #: defaults cost a bounded amount of simulated work).
    WARMUP_TIMEOUT = 600.0

    def warmup(self, queries: list[Query]) -> None:
        """Plan each query once so a freshly built replica is ready to serve.

        Planning runs the cardinality estimator and join-order search end to
        end, touching the statistics and relation pages a replica needs hot;
        the process pool calls this once before serving — in the coordinator
        when its workers are forked from it, in each worker otherwise — so
        the first real plan execution pays no cold-start penalty.  When the execution cache is
        enabled, warmup additionally executes each query's default plan once
        (bounded by :attr:`WARMUP_TIMEOUT`), priming the subplan memo with
        the base-table scans and default join subtrees — the fragments
        optimizer proposals most often share.  Queries whose planning or
        warm execution fails are skipped — the error will surface (with
        context) when the query is actually executed.
        """
        for query in queries:
            try:
                plan = self.plan(query)
                if self.execution_cache is not None:
                    self.executor.execute(query, plan, timeout=self.WARMUP_TIMEOUT)
            except Exception:  # noqa: BLE001 - warmup is best-effort by design
                continue

    # ------------------------------------------------------------------ snapshots / drift
    def snapshot(self) -> "Database":
        """A read snapshot sharing the same immutable relations.

        The executor never mutates relations, so sharing is safe; the snapshot
        exists to model the paper's "execute against a read snapshot" rule and
        to give drift simulations an object to derive from.
        """
        return Database(
            self.schema,
            dict(self.relations),
            self.cost_params,
            noise_sigma=self.executor.noise_sigma,
            seed=self.executor.seed,
            exec_cache=self.exec_cache_config,
        )

    def with_relations(self, relations: dict[str, Relation]) -> "Database":
        """A new database over different data (used by the drift simulation)."""
        return Database(
            self.schema,
            relations,
            self.cost_params,
            noise_sigma=self.executor.noise_sigma,
            seed=self.executor.seed,
            exec_cache=self.exec_cache_config,
        )

    # ------------------------------------------------------------------ metadata
    def info(self, name: str | None = None) -> DatabaseInfo:
        """Size summary used for Table 1."""
        total_rows = sum(rel.num_rows for rel in self.relations.values())
        size_bytes = sum(
            rel.num_rows * len(rel.column_names) * np.dtype(np.int64).itemsize
            for rel in self.relations.values()
        )
        return DatabaseInfo(
            name=name or self.schema.name,
            num_tables=len(self.schema),
            total_rows=total_rows,
            size_bytes=size_bytes,
        )

    def table_rows(self, table: str) -> int:
        return self.relations[table].num_rows
