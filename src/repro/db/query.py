"""Query objects: table references, join predicates and filters.

BayesQO only needs to know which table aliases a query joins, which join
predicates connect them, and which filters restrict the base tables — the
plan string language deliberately does not encode predicates (paper
Section 4.1).  A :class:`Query` captures exactly that, plus a SQL-like
rendering used for display, examples and the PlanLM conditioning text.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.db.catalog import Schema, alias_table
from repro.exceptions import QueryError


@dataclass(frozen=True)
class TableRef:
    """One aliased occurrence of a base table in a query."""

    alias: str
    table: str

    def __post_init__(self) -> None:
        if not self.alias or not self.table:
            raise QueryError("table reference needs both an alias and a table name")


@dataclass(frozen=True)
class JoinPredicate:
    """An equijoin predicate ``left_alias.left_column = right_alias.right_column``."""

    left_alias: str
    left_column: str
    right_alias: str
    right_column: str

    def aliases(self) -> tuple[str, str]:
        return (self.left_alias, self.right_alias)

    def reversed(self) -> "JoinPredicate":
        return JoinPredicate(self.right_alias, self.right_column, self.left_alias, self.left_column)

    def connects(self, left_side: set[str], right_side: set[str]) -> bool:
        """True if this predicate joins one alias from each of the two sets."""
        return (self.left_alias in left_side and self.right_alias in right_side) or (
            self.left_alias in right_side and self.right_alias in left_side
        )


@dataclass(frozen=True)
class FilterPredicate:
    """A single-table filter ``alias.column op value``."""

    alias: str
    column: str
    op: str
    value: object

    def render(self) -> str:
        if self.op == "in":
            values = ", ".join(str(v) for v in self.value)  # type: ignore[union-attr]
            return f"{self.alias}.{self.column} IN ({values})"
        return f"{self.alias}.{self.column} {self.op} {self.value}"


@dataclass
class Query:
    """A select-project-join query over aliased tables.

    Parameters
    ----------
    name:
        Workload-unique identifier, e.g. ``"JOB_17a"``.
    table_refs:
        The aliased tables joined by the query.
    join_predicates:
        Equijoin predicates between aliases.
    filters:
        Base-table filter predicates.
    template:
        Optional template identifier (used by CEB/Stack-style workloads and
        by the LLM template-generalization experiment).

    The three content fields accept any iterable and are stored as tuples: a
    ``Query`` is a value, fixed once built (derive a variant with
    :func:`dataclasses.replace`, which builds a new object).  That is what
    lets :func:`repro.db.plan_cache.query_fingerprint` compute the content
    fingerprint once per object and keep it in ``_fingerprint`` — a memo that
    rides pickles and takes no part in ``==`` or ``repr``.  The memo carries a
    hash computed in the current process; that hash is never persisted (a
    pickle holds the content, and the loading process hashes it again).
    """

    name: str
    table_refs: tuple[TableRef, ...]
    join_predicates: tuple[JoinPredicate, ...]
    filters: tuple[FilterPredicate, ...] = ()
    template: str | None = None
    _fingerprint: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.table_refs = tuple(self.table_refs)
        self.join_predicates = tuple(self.join_predicates)
        self.filters = tuple(self.filters)
        aliases = [ref.alias for ref in self.table_refs]
        if len(aliases) != len(set(aliases)):
            raise QueryError(f"query {self.name!r} has duplicate aliases")
        alias_set = set(aliases)
        for predicate in self.join_predicates:
            for alias in predicate.aliases():
                if alias not in alias_set:
                    raise QueryError(
                        f"query {self.name!r}: join predicate references unknown alias {alias!r}"
                    )
        for flt in self.filters:
            if flt.alias not in alias_set:
                raise QueryError(
                    f"query {self.name!r}: filter references unknown alias {flt.alias!r}"
                )

    # ------------------------------------------------------------------ accessors
    @property
    def aliases(self) -> list[str]:
        return [ref.alias for ref in self.table_refs]

    @property
    def num_tables(self) -> int:
        return len(self.table_refs)

    @property
    def num_joins(self) -> int:
        return len(self.join_predicates)

    def table_of(self, alias: str) -> str:
        for ref in self.table_refs:
            if ref.alias == alias:
                return ref.table
        raise QueryError(f"query {self.name!r} has no alias {alias!r}")

    def filters_for(self, alias: str) -> list[FilterPredicate]:
        return [flt for flt in self.filters if flt.alias == alias]

    def predicates_between(self, left_side: set[str], right_side: set[str]) -> list[JoinPredicate]:
        """Join predicates connecting the two alias sets (used by the executor)."""
        return [p for p in self.join_predicates if p.connects(left_side, right_side)]

    # ------------------------------------------------------------------ connectivity
    def is_connected(self) -> bool:
        """True if the join predicates connect every alias (no mandatory cross join).

        A graph search over the aliases, with one edge per predicate.
        """
        neighbours: dict[str, set[str]] = {alias: set() for alias in self.aliases}
        for predicate in self.join_predicates:
            neighbours.setdefault(predicate.left_alias, set()).add(predicate.right_alias)
            neighbours.setdefault(predicate.right_alias, set()).add(predicate.left_alias)
        if not neighbours:
            return True
        start = next(iter(neighbours))
        reached, frontier = {start}, [start]
        while frontier:
            for alias in neighbours[frontier.pop()] - reached:
                reached.add(alias)
                frontier.append(alias)
        return len(reached) == len(neighbours)

    def validate_against(self, schema: Schema) -> None:
        """Check that every referenced table/column exists in ``schema``."""
        for ref in self.table_refs:
            schema.table(ref.table)
        for predicate in self.join_predicates:
            schema.table(self.table_of(predicate.left_alias)).column(predicate.left_column)
            schema.table(self.table_of(predicate.right_alias)).column(predicate.right_column)
        for flt in self.filters:
            schema.table(self.table_of(flt.alias)).column(flt.column)

    # ------------------------------------------------------------------ rendering
    def sql(self) -> str:
        """A SQL-like textual rendering of the query (display / LLM prompt only)."""
        from_clause = ", ".join(f"{ref.table} AS {sql_alias(ref.alias)}" for ref in self.table_refs)
        conditions = [
            f"{sql_alias(p.left_alias)}.{p.left_column} = {sql_alias(p.right_alias)}.{p.right_column}"
            for p in self.join_predicates
        ]
        conditions.extend(
            flt.render().replace(flt.alias, sql_alias(flt.alias), 1) for flt in self.filters
        )
        where_clause = " AND ".join(conditions) if conditions else "TRUE"
        return f"SELECT COUNT(*) FROM {from_clause} WHERE {where_clause}"

    def signature(self) -> tuple[str, ...]:
        """Canonical, order-independent signature of the joined tables (for the plan cache)."""
        return tuple(sorted(f"{ref.alias}:{ref.table}" for ref in self.table_refs))


def sql_alias(alias: str) -> str:
    """Render an internal ``table#n`` alias as a SQL-friendly identifier."""
    return alias.replace("#", "_")


def queries_by_template(queries: Iterable[Query]) -> dict[str, list[Query]]:
    """Group queries by their template id (queries without a template get their own group)."""
    grouped: dict[str, list[Query]] = {}
    for query in queries:
        key = query.template or query.name
        grouped.setdefault(key, []).append(query)
    return grouped


def alias_base_tables(query: Query) -> dict[str, str]:
    """Map each alias of ``query`` to its base table (consistency helper)."""
    mapping = {ref.alias: ref.table for ref in query.table_refs}
    for alias, table in mapping.items():
        derived = alias_table(alias)
        if "#" in alias and derived != table:
            raise QueryError(
                f"alias {alias!r} encodes table {derived!r} but is declared for {table!r}"
            )
    return mapping
