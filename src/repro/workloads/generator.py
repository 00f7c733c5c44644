"""Random query generation from a schema's alias-k reference graph.

Two consumers rely on this module:

* the **VAE training-data sampler** (paper Section 4.2) draws ~many random
  PK-FK equijoin queries per schema by selecting random connected subgraphs of
  the alias-k reference graph, and
* the **workload builders** use the same machinery to materialize JOB-, CEB-,
  Stack- and DSB-like query sets with controlled join counts, templates and
  filter literals drawn from the actual data.
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
    empty) restricted to the columns named in ``filter_specs``.
    """
    alias_set = set(aliases)
    table_refs = [TableRef(alias, alias_table(alias)) for alias in aliases]
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
    filters: list[FilterPredicate] = []
    if relations is not None and filter_specs is not None:
        for alias in aliases:
            if rng.random() > filter_probability:
                continue
            predicate = _sample_filter(alias, alias_table(alias), relations, filter_specs, rng)
            if predicate is not None:
                filters.append(predicate)
    query = Query(
        name=name,
        table_refs=table_refs,
        join_predicates=join_predicates,
        filters=filters,
        template=template,
    )
    query.validate_against(schema)
    return query


def _sample_filter(
    alias: str,
    table: str,
    relations: dict[str, Relation],
    filter_specs: dict[str, FilterSpec],
    rng: np.random.Generator,
) -> FilterPredicate | None:
    spec = filter_specs.get(table)
    relation = relations.get(table)
    if spec is None or relation is None or relation.num_rows == 0:
        return None
    candidates: list[tuple[str, str]] = [(column, "eq") for column in spec.eq_columns]
    candidates.extend((column, "range") for column in spec.range_columns)
    if not candidates:
        return None
    column, kind = candidates[rng.integers(0, len(candidates))]
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
        queries: list[Query] = []
        upper = min(self.max_tables, len(self._graph))
        for i in range(count):
            size = int(rng.integers(self.min_tables, upper + 1))
            aliases = sample_connected_aliases(self._graph, size, rng)
            queries.append(
                query_from_aliases(
                    self.schema,
                    self._graph,
                    aliases,
                    name=f"sampled_{i}",
                    rng=rng,
                    relations=self.relations,
                    filter_specs=self.filter_specs,
                )
            )
        return queries
