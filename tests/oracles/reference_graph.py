"""Reference graphs: the schema and query graphs as networkx built them.

``alias_k_graph`` is ``Schema.alias_k_graph`` as it stood while it returned a
``networkx.Graph``, and ``join_predicates`` the predicate loop the query
generator ran over that graph's ``edges(data=True)``.  The adjacency dicts
``Schema.alias_k_graph`` returns now must reproduce the node order, each
node's neighbour order and the edge order these give, so that the workloads
generated from them stay the same queries.  ``reference_graph`` and
``join_graph`` are the table graph and a query's alias graph, which the
catalog and query tests check connectivity on.
"""

from __future__ import annotations

import networkx as nx

from repro.db.catalog import Schema, alias_name, alias_table
from repro.db.query import JoinPredicate, Query


def alias_k_graph(schema: Schema, k: int) -> nx.Graph:
    """``k`` alias nodes per table, an edge per PK-FK reference and alias pair."""
    graph = nx.Graph()
    for table in schema.table_names:
        for i in range(1, k + 1):
            graph.add_node(alias_name(table, i), table=table, ordinal=i)
    for fk in schema.foreign_keys:
        for i in range(1, k + 1):
            for j in range(1, k + 1):
                left = alias_name(fk.table, i)
                right = alias_name(fk.ref_table, j)
                if left != right:
                    graph.add_edge(left, right, fk=fk)
    return graph


def join_predicates(graph: nx.Graph, aliases: list[str]) -> list[JoinPredicate]:
    """One predicate per edge of ``graph`` between ``aliases``, in edge order."""
    alias_set = set(aliases)
    predicates = []
    for left, right, data in graph.edges(data=True):
        if left not in alias_set or right not in alias_set:
            continue
        fk = data["fk"]
        if fk.table == alias_table(left):
            predicates.append(JoinPredicate(left, fk.column, right, fk.ref_column))
        else:
            predicates.append(JoinPredicate(left, fk.ref_column, right, fk.column))
    return predicates


def reference_graph(schema: Schema) -> nx.Graph:
    """One node per table and one edge per PK-FK reference."""
    graph = nx.Graph()
    graph.add_nodes_from(schema.table_names)
    graph.add_edges_from(fk.as_edge() for fk in schema.foreign_keys)
    return graph


def join_graph(query: Query) -> nx.Graph:
    """One node per alias and one edge per join predicate."""
    graph = nx.Graph()
    graph.add_nodes_from(query.aliases)
    graph.add_edges_from((p.left_alias, p.right_alias) for p in query.join_predicates)
    return graph
