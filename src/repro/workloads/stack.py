"""The StackOverflow-like database and Stack workload.

The Stack benchmark (introduced with Bao) runs over a dump of the
StackExchange network.  The synthetic analogue keeps the same shape: a
``site`` dimension, ``account``/``so_user`` user tables, ``question`` /
``answer`` / ``comment`` / ``post_link`` activity tables and a ``tag`` /
``tag_question`` bridge.  Every activity table carries a ``creation_date``
column (ordinal days) which the drift simulation uses to roll the database
back in time (paper Section 5.5).
"""

from __future__ import annotations

import numpy as np

from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.datagen import ColumnSpec, DataGenerator, TableSpec
from repro.db.engine import Database
from repro.db.query import Query
from repro.workloads.base import Workload
from repro.workloads.generator import (
    FilterSampler,
    FilterSpec,
    QueryTemplate,
    sample_connected_aliases,
)

#: Ordinal day bounds of the synthetic history (0 = 2008-01-01, 4300 ≈ late 2019).
STACK_DATE_MIN = 0
STACK_DATE_MAX = 4300
#: Ordinal day corresponding to the end of 2017 (the drift experiment's "past").
STACK_DATE_2017 = 3650

_BASE_ROWS = {
    "site": 40,
    "so_user": 15_000,
    "question": 24_000,
    "answer": 30_000,
    "comment": 36_000,
    "post_link": 8_000,
    "badge": 18_000,
    "tag": 1_200,
    "tag_question": 28_000,
    "account": 12_000,
}


def build_stack_schema() -> Schema:
    """The Stack-like schema (10 tables)."""
    tables = [
        Table("site", [Column("id"), Column("site_name")]),
        Table("account", [Column("id"), Column("website_visits")]),
        Table("so_user", [Column("id"), Column("site_id"), Column("account_id"),
                          Column("reputation"), Column("creation_date", "date")]),
        Table("question", [Column("id"), Column("site_id"), Column("owner_user_id"),
                           Column("score"), Column("view_count"),
                           Column("creation_date", "date")]),
        Table("answer", [Column("id"), Column("site_id"), Column("question_id"),
                         Column("owner_user_id"), Column("score"),
                         Column("creation_date", "date")]),
        Table("comment", [Column("id"), Column("site_id"), Column("post_id"),
                          Column("user_id"), Column("score"), Column("creation_date", "date")]),
        Table("post_link", [Column("id"), Column("site_id"), Column("question_id"),
                            Column("related_question_id"), Column("link_type"),
                            Column("creation_date", "date")]),
        Table("badge", [Column("id"), Column("site_id"), Column("user_id"),
                        Column("badge_class"), Column("creation_date", "date")]),
        Table("tag", [Column("id"), Column("site_id"), Column("tag_name")]),
        Table("tag_question", [Column("id"), Column("site_id"), Column("question_id"),
                               Column("tag_id")]),
    ]
    foreign_keys = [
        ForeignKey("so_user", "site_id", "site", "id"),
        ForeignKey("so_user", "account_id", "account", "id"),
        ForeignKey("question", "site_id", "site", "id"),
        ForeignKey("question", "owner_user_id", "so_user", "id"),
        ForeignKey("answer", "site_id", "site", "id"),
        ForeignKey("answer", "question_id", "question", "id"),
        ForeignKey("answer", "owner_user_id", "so_user", "id"),
        ForeignKey("comment", "site_id", "site", "id"),
        ForeignKey("comment", "post_id", "question", "id"),
        ForeignKey("comment", "user_id", "so_user", "id"),
        ForeignKey("post_link", "site_id", "site", "id"),
        ForeignKey("post_link", "question_id", "question", "id"),
        ForeignKey("badge", "site_id", "site", "id"),
        ForeignKey("badge", "user_id", "so_user", "id"),
        ForeignKey("tag", "site_id", "site", "id"),
        ForeignKey("tag_question", "site_id", "site", "id"),
        ForeignKey("tag_question", "question_id", "question", "id"),
        ForeignKey("tag_question", "tag_id", "tag", "id"),
    ]
    schema = Schema("stack", tables, foreign_keys)
    schema.index_all_join_keys()
    return schema


def _stack_table_specs(scale: float) -> dict[str, TableSpec]:
    def rows(table: str) -> int:
        return max(int(_BASE_ROWS[table] * scale), 4)

    date = ColumnSpec("date", date_min=STACK_DATE_MIN, date_max=STACK_DATE_MAX)
    return {
        "site": TableSpec(rows("site"), {"site_name": ColumnSpec("uniform", cardinality=40)}),
        "account": TableSpec(rows("account"), {
            "website_visits": ColumnSpec("categorical", cardinality=100, skew=1.6),
        }),
        "so_user": TableSpec(rows("so_user"), {
            "reputation": ColumnSpec("categorical", cardinality=500, skew=1.6),
            "creation_date": date,
        }, fk_skew=1.2),
        "question": TableSpec(rows("question"), {
            "score": ColumnSpec("categorical", cardinality=200, skew=1.7),
            "view_count": ColumnSpec("derived", cardinality=400, source_column="score", noise=0.2),
            "creation_date": date,
        }, fk_skew=1.3),
        "answer": TableSpec(rows("answer"), {
            "score": ColumnSpec("categorical", cardinality=150, skew=1.7),
            "creation_date": date,
        }, fk_skew=1.35),
        "comment": TableSpec(rows("comment"), {
            "score": ColumnSpec("categorical", cardinality=30, skew=1.8),
            "creation_date": date,
        }, fk_skew=1.4),
        "post_link": TableSpec(rows("post_link"), {
            "related_question_id": ColumnSpec("uniform", cardinality=max(int(_BASE_ROWS["question"] * scale), 4)),
            "link_type": ColumnSpec("categorical", cardinality=3, skew=0.8),
            "creation_date": date,
        }, fk_skew=1.2),
        "badge": TableSpec(rows("badge"), {
            "badge_class": ColumnSpec("categorical", cardinality=3, skew=1.0),
            "creation_date": date,
        }, fk_skew=1.45),
        "tag": TableSpec(rows("tag"), {"tag_name": ColumnSpec("categorical", cardinality=600, skew=1.3)}),
        "tag_question": TableSpec(rows("tag_question"), {}, fk_skew=1.4),
    }


STACK_FILTER_SPECS = {
    "site": FilterSpec(eq_columns=["site_name"]),
    "so_user": FilterSpec(eq_columns=["reputation"], range_columns=["creation_date"]),
    "question": FilterSpec(eq_columns=["score"], range_columns=["creation_date", "view_count"]),
    "answer": FilterSpec(eq_columns=["score"], range_columns=["creation_date"]),
    "comment": FilterSpec(eq_columns=["score"], range_columns=["creation_date"]),
    "badge": FilterSpec(eq_columns=["badge_class"], range_columns=["creation_date"]),
    "tag": FilterSpec(eq_columns=["tag_name"]),
    "post_link": FilterSpec(eq_columns=["link_type"]),
    "account": FilterSpec(eq_columns=["website_visits"]),
}


def build_stack_database(scale: float = 1.0, seed: int = 0, noise_sigma: float = 0.0) -> Database:
    """Generate a populated Stack-like database instance (the 2019 "future" snapshot)."""
    schema = build_stack_schema()
    generator = DataGenerator(schema, _stack_table_specs(scale), seed=seed)
    return Database(schema, generator.generate(), noise_sigma=noise_sigma, seed=seed)


def build_stack_workload(
    scale: float = 1.0,
    seed: int = 0,
    num_templates: int = 16,
    num_queries: int = 200,
    noise_sigma: float = 0.0,
    database: Database | None = None,
) -> Workload:
    """The Stack-like workload: ``num_queries`` queries from ``num_templates`` templates."""
    database = database or build_stack_database(scale=scale, seed=seed, noise_sigma=noise_sigma)
    schema = database.schema
    max_aliases = 2
    graph = schema.alias_k_graph(max_aliases)
    rng = np.random.default_rng((seed, 47))
    templates: list[QueryTemplate] = []
    for template_index in range(num_templates):
        size = int(rng.integers(5, 10))
        aliases = sample_connected_aliases(graph, size, rng)
        templates.append(
            QueryTemplate.from_aliases(schema, graph, aliases, f"STACK_Q{template_index + 1}")
        )
    filters = FilterSampler(database.relations, STACK_FILTER_SPECS)
    queries: list[Query] = []
    for instance in range(num_queries):
        template = templates[instance % num_templates]
        name = f"{template.name}-{instance // num_templates + 1:03d}"
        queries.append(template.instance(name, rng, filters, filter_probability=0.6))
    return Workload(
        name="Stack",
        database=database,
        queries=queries,
        max_aliases=max_aliases,
        description="StackOverflow benchmark analogue with dated activity tables",
    )
