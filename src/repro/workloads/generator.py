"""Random query generation from a schema's alias-k reference graph.

Two consumers rely on this module:

* the **VAE training-data sampler** (paper Section 4.2) draws ~many random
  PK-FK equijoin queries per schema by selecting random connected subgraphs of
  the alias-k reference graph, and
* the **workload builders** use the same machinery to materialize JOB-, CEB-,
  Stack- and DSB-like query sets with controlled join counts, templates and
  filter literals drawn from the actual data.

A :class:`QueryTemplate` holds what every query over one alias set shares:
the table refs, the join predicates in graph-walk order and one check
against the schema.  The Stack, CEB and DSB builders make one per template;
JOB and :class:`RandomQuerySampler` one per query, since each of their
queries joins an alias set of its own.  An instance draws only its filters,
through a :class:`FilterSampler` that lists each table's candidates once.
The builder call (or ``sample`` call) owns its templates and its sampler;
nothing is kept at module level, so every build does the same work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import AliasGraph, Schema, alias_table
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.db.relation import Relation
from repro.db.statistics import sorted_quantile
from repro.exceptions import QueryError


@dataclass
class FilterSpec:
    """Which columns of a table are eligible for filters and how to filter them.

    ``eq_columns`` receive equality (or small ``in``-list) predicates with
    literals sampled from the stored data; ``range_columns`` receive one-sided
    range predicates anchored at data quantiles.
    """

    eq_columns: list[str] = field(default_factory=list)
    range_columns: list[str] = field(default_factory=list)


def sample_connected_aliases(
    graph: AliasGraph, size: int, rng: np.random.Generator
) -> list[str]:
    """Sample a random connected set of ``size`` nodes from ``graph``.

    Uses randomized breadth-first expansion from a random seed node.  Raises
    :class:`QueryError` if the graph has no connected subgraph of that size
    reachable from the sampled seed after a bounded number of restarts.
    """
    if size < 1:
        raise QueryError("subgraph size must be at least 1")
    nodes = list(graph)
    if not nodes:
        raise QueryError("cannot sample from an empty graph")
    for _ in range(50):
        start = nodes[rng.integers(0, len(nodes))]
        selected = [start]
        frontier = set(graph[start])
        while len(selected) < size and frontier:
            candidates = sorted(frontier)
            pick = candidates[rng.integers(0, len(candidates))]
            selected.append(pick)
            frontier.discard(pick)
            frontier.update(set(graph[pick]) - set(selected))
        if len(selected) == size:
            return selected
    raise QueryError(f"could not sample a connected subgraph of size {size}")


@dataclass(frozen=True)
class QueryTemplate:
    """The join structure every query of one template shares.

    ``table_refs`` are the aliases in the order given with their base
    tables, ``join_predicates`` one per edge of the alias-k graph between
    them in the graph walk's order, and ``name`` the template id its queries
    carry.  Built and validated against the schema once; an instance draws
    only its filters.
    """

    table_refs: tuple[TableRef, ...]
    join_predicates: tuple[JoinPredicate, ...]
    name: str | None = None

    @classmethod
    def from_aliases(
        cls,
        schema: Schema,
        alias_graph: AliasGraph,
        aliases: list[str],
        name: str | None = None,
    ) -> "QueryTemplate":
        """The template joining ``aliases`` with a predicate for every present edge."""
        alias_set = set(aliases)
        table_refs = tuple(TableRef(alias, alias_table(alias)) for alias in aliases)
        join_predicates: list[JoinPredicate] = []
        # Each edge once, from its end that comes first in node order: that end
        # is the predicate's left side, and the walk fixes the predicates' order.
        visited: set[str] = set()
        for left, neighbours in alias_graph.items():
            if left not in alias_set:
                continue
            for right, fk in neighbours.items():
                if right not in alias_set or right in visited:
                    continue
                if fk.table == alias_table(left):
                    join_predicates.append(JoinPredicate(left, fk.column, right, fk.ref_column))
                else:
                    join_predicates.append(JoinPredicate(left, fk.ref_column, right, fk.column))
            visited.add(left)
        structure = Query(
            name=name or "template", table_refs=table_refs, join_predicates=join_predicates
        )
        structure.validate_against(schema)
        return cls(table_refs, structure.join_predicates, name)

    def instance(
        self,
        name: str,
        rng: np.random.Generator,
        filters: "FilterSampler | None" = None,
        filter_probability: float = 0.5,
    ) -> Query:
        """A query of this template named ``name``.

        Each alias gets a filter with probability ``filter_probability``,
        drawn by ``filters`` (none when ``None``).
        """
        drawn: list[FilterPredicate] = []
        if filters is not None:
            for ref in self.table_refs:
                if rng.random() > filter_probability:
                    continue
                predicate = filters.draw(ref.alias, ref.table, rng)
                if predicate is not None:
                    drawn.append(predicate)
        return Query(
            name=name,
            table_refs=self.table_refs,
            join_predicates=self.join_predicates,
            filters=drawn,
            template=self.name,
        )


class FilterSampler:
    """Draws filter predicates whose literals come from one build's relations.

    A table's candidates — its ``filter_specs`` columns, equality ones first —
    are listed at its first draw and kept for the sampler's life, which is
    one build: the builder that makes the sampler drops it with the build.
    """

    def __init__(self, relations: dict[str, Relation], filter_specs: dict[str, FilterSpec]) -> None:
        self.relations = relations
        self.filter_specs = filter_specs
        self._candidates: dict[str, list[tuple[str, str]]] = {}

    def candidates(self, table: str) -> list[tuple[str, str]]:
        """``(column, "eq" | "range")`` pairs of ``table`` (none for an empty relation)."""
        candidates = self._candidates.get(table)
        if candidates is None:
            spec = self.filter_specs.get(table)
            relation = self.relations.get(table)
            candidates = []
            if spec is not None and relation is not None and relation.num_rows > 0:
                candidates = [(column, "eq") for column in spec.eq_columns]
                candidates.extend((column, "range") for column in spec.range_columns)
            self._candidates[table] = candidates
        return candidates

    def draw(self, alias: str, table: str, rng: np.random.Generator) -> FilterPredicate | None:
        """One filter on ``alias`` (a ``table`` row), or ``None`` if it has no candidate.

        An equality (or 3-value ``in``) literal is a stored value; a range
        literal a quantile in [0.3, 0.9] of the column, so no predicate is
        trivially empty.
        """
        candidates = self.candidates(table)
        if not candidates:
            return None
        column, kind = candidates[rng.integers(0, len(candidates))]
        relation = self.relations[table]
        if kind == "eq":
            values = relation.column(column)
            literal = int(values[rng.integers(0, len(values))])
            if rng.random() < 0.3:
                extras = values[rng.integers(0, len(values), size=2)]
                in_list = sorted({literal, *(int(v) for v in extras)})
                return FilterPredicate(alias, column, "in", tuple(in_list))
            return FilterPredicate(alias, column, "=", literal)
        quantile = float(rng.uniform(0.3, 0.9))
        threshold = int(sorted_quantile(relation.sorted_column(column), quantile))
        op = ">=" if rng.random() < 0.5 else "<="
        return FilterPredicate(alias, column, op, threshold)


def query_from_aliases(
    schema: Schema,
    alias_graph: AliasGraph,
    aliases: list[str],
    name: str,
    rng: np.random.Generator,
    relations: dict[str, Relation] | None = None,
    filter_specs: dict[str, FilterSpec] | None = None,
    filter_probability: float = 0.5,
    template: str | None = None,
) -> Query:
    """Build a query joining ``aliases`` with predicates for every present edge.

    Filters are added per alias with probability ``filter_probability`` using
    literals sampled from ``relations`` (so the predicates are never trivially
    empty) restricted to the columns named in ``filter_specs``.  One
    :class:`QueryTemplate` and one instance of it: a builder making many
    queries keeps the template and a :class:`FilterSampler` itself.
    """
    filters = None
    if relations is not None and filter_specs is not None:
        filters = FilterSampler(relations, filter_specs)
    structure = QueryTemplate.from_aliases(schema, alias_graph, aliases, template)
    return structure.instance(name, rng, filters, filter_probability)


@dataclass
class RandomQuerySampler:
    """Samples random PK-FK equijoin queries for VAE training data.

    Parameters
    ----------
    schema:
        The database schema.
    max_aliases:
        Alias multiplicity ``k`` of the alias-k reference graph.
    relations / filter_specs:
        Optional; when provided, sampled queries also carry filters.
    """

    schema: Schema
    max_aliases: int = 1
    relations: dict[str, Relation] | None = None
    filter_specs: dict[str, FilterSpec] | None = None
    min_tables: int = 3
    max_tables: int = 10

    def __post_init__(self) -> None:
        self._graph = self.schema.alias_k_graph(self.max_aliases)

    def sample(self, count: int, seed: int = 0) -> list[Query]:
        """Sample ``count`` random queries (named ``sampled_<i>``)."""
        rng = np.random.default_rng(seed)
        filters = None
        if self.relations is not None and self.filter_specs is not None:
            filters = FilterSampler(self.relations, self.filter_specs)
        queries: list[Query] = []
        upper = min(self.max_tables, len(self._graph))
        for i in range(count):
            size = int(rng.integers(self.min_tables, upper + 1))
            aliases = sample_connected_aliases(self._graph, size, rng)
            structure = QueryTemplate.from_aliases(self.schema, self._graph, aliases)
            queries.append(structure.instance(f"sampled_{i}", rng, filters))
        return queries
