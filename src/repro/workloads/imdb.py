"""The IMDB-like database and the JOB- and CEB-like workloads.

The Join Order Benchmark (JOB) and the Cardinality Estimation Benchmark (CEB)
both run over the IMDB dataset.  This module builds a scaled-down synthetic
IMDB: the same table shapes (a central ``title`` fact table with many-to-many
bridge tables to companies, people, keywords and info records), Zipf-skewed
foreign keys and correlated attribute columns, so the default optimizer's
independence assumption misestimates exactly where it does on the real data.

* :func:`build_job_workload` — 113 queries, median ~7 joins per query.
* :func:`build_ceb_workload` — 234 queries from 13 templates, median ~10 joins.
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

#: Baseline row counts (multiplied by the ``scale`` parameter).
_BASE_ROWS = {
    "title": 8_000,
    "kind_type": 7,
    "company_name": 2_000,
    "company_type": 4,
    "movie_companies": 20_000,
    "info_type": 110,
    "movie_info": 26_000,
    "movie_info_idx": 10_000,
    "name": 12_000,
    "cast_info": 40_000,
    "role_type": 12,
    "keyword": 3_000,
    "movie_keyword": 24_000,
    "aka_name": 7_000,
}


def build_imdb_schema() -> Schema:
    """The IMDB-like schema (14 tables, PK-FK references, indexed join keys)."""
    tables = [
        Table("title", [Column("id"), Column("kind_id"), Column("production_year", "date"),
                        Column("episode_count")]),
        Table("kind_type", [Column("id"), Column("kind")]),
        Table("company_name", [Column("id"), Column("country_code")]),
        Table("company_type", [Column("id"), Column("kind")]),
        Table("movie_companies", [Column("id"), Column("movie_id"), Column("company_id"),
                                  Column("company_type_id"), Column("note")]),
        Table("info_type", [Column("id"), Column("info")]),
        Table("movie_info", [Column("id"), Column("movie_id"), Column("info_type_id"),
                             Column("info")]),
        Table("movie_info_idx", [Column("id"), Column("movie_id"), Column("info_type_id"),
                                 Column("info")]),
        Table("name", [Column("id"), Column("gender"), Column("name_pcode")]),
        Table("cast_info", [Column("id"), Column("movie_id"), Column("person_id"),
                            Column("role_id"), Column("nr_order")]),
        Table("role_type", [Column("id"), Column("role")]),
        Table("keyword", [Column("id"), Column("keyword")]),
        Table("movie_keyword", [Column("id"), Column("movie_id"), Column("keyword_id")]),
        Table("aka_name", [Column("id"), Column("person_id")]),
    ]
    foreign_keys = [
        ForeignKey("title", "kind_id", "kind_type", "id"),
        ForeignKey("movie_companies", "movie_id", "title", "id"),
        ForeignKey("movie_companies", "company_id", "company_name", "id"),
        ForeignKey("movie_companies", "company_type_id", "company_type", "id"),
        ForeignKey("movie_info", "movie_id", "title", "id"),
        ForeignKey("movie_info", "info_type_id", "info_type", "id"),
        ForeignKey("movie_info_idx", "movie_id", "title", "id"),
        ForeignKey("movie_info_idx", "info_type_id", "info_type", "id"),
        ForeignKey("cast_info", "movie_id", "title", "id"),
        ForeignKey("cast_info", "person_id", "name", "id"),
        ForeignKey("cast_info", "role_id", "role_type", "id"),
        ForeignKey("movie_keyword", "movie_id", "title", "id"),
        ForeignKey("movie_keyword", "keyword_id", "keyword", "id"),
        ForeignKey("aka_name", "person_id", "name", "id"),
    ]
    schema = Schema("imdb", tables, foreign_keys)
    schema.index_all_join_keys()
    return schema


def _imdb_table_specs(scale: float) -> dict[str, TableSpec]:
    def rows(table: str) -> int:
        return max(int(_BASE_ROWS[table] * scale), 4)

    return {
        "title": TableSpec(rows("title"), {
            "kind_id": ColumnSpec("categorical", cardinality=7, skew=1.0),
            "production_year": ColumnSpec("date", date_min=1900, date_max=2023),
            "episode_count": ColumnSpec("categorical", cardinality=50, skew=1.5),
        }),
        "kind_type": TableSpec(rows("kind_type"), {"kind": ColumnSpec("uniform", cardinality=7)}),
        "company_name": TableSpec(rows("company_name"), {
            "country_code": ColumnSpec("categorical", cardinality=60, skew=1.4),
        }),
        "company_type": TableSpec(rows("company_type"), {"kind": ColumnSpec("uniform", cardinality=4)}),
        "movie_companies": TableSpec(rows("movie_companies"), {
            "note": ColumnSpec("derived", cardinality=200, source_column="company_id", noise=0.15),
        }, fk_skew=1.2),
        "info_type": TableSpec(rows("info_type"), {"info": ColumnSpec("uniform", cardinality=110)}),
        "movie_info": TableSpec(rows("movie_info"), {
            "info": ColumnSpec("derived", cardinality=500, source_column="info_type_id", noise=0.2),
        }, fk_skew=1.15),
        "movie_info_idx": TableSpec(rows("movie_info_idx"), {
            "info": ColumnSpec("derived", cardinality=100, source_column="info_type_id", noise=0.2),
        }, fk_skew=1.2),
        "name": TableSpec(rows("name"), {
            "gender": ColumnSpec("categorical", cardinality=3, skew=0.8),
            "name_pcode": ColumnSpec("categorical", cardinality=300, skew=1.1),
        }),
        "cast_info": TableSpec(rows("cast_info"), {
            "nr_order": ColumnSpec("derived", cardinality=40, source_column="role_id", noise=0.3),
        }, fk_skew=1.2),
        "role_type": TableSpec(rows("role_type"), {"role": ColumnSpec("uniform", cardinality=12)}),
        "keyword": TableSpec(rows("keyword"), {
            "keyword": ColumnSpec("categorical", cardinality=800, skew=1.3),
        }),
        "movie_keyword": TableSpec(rows("movie_keyword"), {}, fk_skew=1.25),
        "aka_name": TableSpec(rows("aka_name"), {}, fk_skew=1.2),
    }


#: Filterable columns per table, shared by JOB and CEB query generation.
#: Only low-cardinality or range predicates are used so that intermediate
#: results stay large enough for join-order choice to matter (the paper's
#: evaluation focuses on long-running queries).
IMDB_FILTER_SPECS = {
    "title": FilterSpec(eq_columns=["kind_id"], range_columns=["production_year"]),
    "company_name": FilterSpec(eq_columns=["country_code"]),
    "company_type": FilterSpec(eq_columns=["kind"]),
    "name": FilterSpec(eq_columns=["gender"]),
    "role_type": FilterSpec(eq_columns=["role"]),
    "cast_info": FilterSpec(range_columns=["nr_order"]),
    "movie_info": FilterSpec(range_columns=["info"]),
}


def build_imdb_database(scale: float = 1.0, seed: int = 0, noise_sigma: float = 0.0) -> Database:
    """Generate a populated IMDB-like database instance."""
    schema = build_imdb_schema()
    generator = DataGenerator(schema, _imdb_table_specs(scale), seed=seed)
    return Database(schema, generator.generate(), noise_sigma=noise_sigma, seed=seed)


def _job_size_distribution(rng: np.random.Generator, count: int) -> list[int]:
    """Table counts for JOB-like queries: 4..13 tables with a median of ~8."""
    sizes = rng.choice(
        np.arange(4, 14),
        size=count,
        p=np.array([0.05, 0.08, 0.12, 0.15, 0.20, 0.15, 0.10, 0.08, 0.04, 0.03]),
    )
    return [int(size) for size in sizes]


def build_job_workload(
    scale: float = 1.0,
    seed: int = 0,
    num_queries: int = 113,
    noise_sigma: float = 0.0,
    database: Database | None = None,
) -> Workload:
    """The JOB-like workload: ``num_queries`` queries over the IMDB-like database."""
    database = database or build_imdb_database(scale=scale, seed=seed, noise_sigma=noise_sigma)
    schema = database.schema
    max_aliases = 2
    graph = schema.alias_k_graph(max_aliases)
    rng = np.random.default_rng((seed, 17))
    filters = FilterSampler(database.relations, IMDB_FILTER_SPECS)
    queries: list[Query] = []
    sizes = _job_size_distribution(rng, num_queries)
    for i, size in enumerate(sizes):
        family = i // 3 + 1
        variant = "abc"[i % 3]
        aliases = sample_connected_aliases(graph, size, rng)
        # Every JOB query joins aliases of its own: one template per query.
        template = QueryTemplate.from_aliases(schema, graph, aliases, f"JOB_T{family}")
        queries.append(
            template.instance(f"JOB_{family}{variant}", rng, filters, filter_probability=0.65)
        )
    return Workload(
        name="JOB",
        database=database,
        queries=queries,
        max_aliases=max_aliases,
        description="Join Order Benchmark analogue over the synthetic IMDB database",
    )


def build_ceb_workload(
    scale: float = 1.0,
    seed: int = 0,
    num_templates: int = 13,
    queries_per_template: int = 18,
    noise_sigma: float = 0.0,
    database: Database | None = None,
) -> Workload:
    """The CEB-like workload: template-structured queries with varying literals.

    Each template fixes the joined alias set (8-13 tables); its queries differ
    only in filter literals, mirroring how CEB instantiates query templates.
    """
    database = database or build_imdb_database(scale=scale, seed=seed, noise_sigma=noise_sigma)
    schema = database.schema
    max_aliases = 2
    graph = schema.alias_k_graph(max_aliases)
    rng = np.random.default_rng((seed, 31))
    filters = FilterSampler(database.relations, IMDB_FILTER_SPECS)
    queries: list[Query] = []
    for template_index in range(num_templates):
        size = int(rng.integers(8, 14))
        aliases = sample_connected_aliases(graph, size, rng)
        name = f"CEB_T{template_index + 1}"
        template = QueryTemplate.from_aliases(schema, graph, aliases, name)
        for instance in range(queries_per_template):
            queries.append(
                template.instance(f"{name}_{instance + 1:02d}", rng, filters, filter_probability=0.7)
            )
    return Workload(
        name="CEB",
        database=database,
        queries=queries,
        max_aliases=max_aliases,
        description="Cardinality Estimation Benchmark analogue (template-structured IMDB queries)",
    )
