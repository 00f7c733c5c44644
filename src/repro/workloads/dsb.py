"""The DSB-like database and workload.

DSB (Ding et al.) extends TPC-DS with more complex data distributions.  The
synthetic analogue keeps the star/snowflake shape: ``store_sales`` /
``catalog_sales`` / ``store_returns`` fact tables joined to ``date_dim``,
``item``, ``customer``, ``customer_address``, ``store`` and ``promotion``
dimensions.  The workload has 90 queries (3 per template, 30 templates) drawn
from "agg"- and "spj"-style templates, with a median of ~5 joins per query.
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

_BASE_ROWS = {
    "date_dim": 1_800,
    "item": 3_000,
    "customer": 12_000,
    "customer_address": 5_000,
    "customer_demographics": 2_000,
    "store": 60,
    "promotion": 300,
    "store_sales": 40_000,
    "store_returns": 9_000,
    "catalog_sales": 26_000,
    "web_sales": 16_000,
}


def build_dsb_schema() -> Schema:
    """The DSB-like snowflake schema (11 tables)."""
    tables = [
        Table("date_dim", [Column("id"), Column("d_year"), Column("d_moy"), Column("d_dow")]),
        Table("item", [Column("id"), Column("i_category"), Column("i_brand"), Column("i_price")]),
        Table("customer", [Column("id"), Column("c_current_addr_id"), Column("c_demo_id"),
                           Column("c_birth_year")]),
        Table("customer_address", [Column("id"), Column("ca_state"), Column("ca_gmt_offset")]),
        Table("customer_demographics", [Column("id"), Column("cd_gender"),
                                        Column("cd_marital_status")]),
        Table("store", [Column("id"), Column("s_state"), Column("s_number_employees")]),
        Table("promotion", [Column("id"), Column("p_channel")]),
        Table("store_sales", [Column("id"), Column("ss_sold_date_id"), Column("ss_item_id"),
                              Column("ss_customer_id"), Column("ss_store_id"),
                              Column("ss_promo_id"), Column("ss_quantity"), Column("ss_list_price")]),
        Table("store_returns", [Column("id"), Column("sr_returned_date_id"), Column("sr_item_id"),
                                Column("sr_customer_id"), Column("sr_return_quantity")]),
        Table("catalog_sales", [Column("id"), Column("cs_sold_date_id"), Column("cs_item_id"),
                                Column("cs_bill_customer_id"), Column("cs_quantity")]),
        Table("web_sales", [Column("id"), Column("ws_sold_date_id"), Column("ws_item_id"),
                            Column("ws_bill_customer_id"), Column("ws_quantity")]),
    ]
    foreign_keys = [
        ForeignKey("customer", "c_current_addr_id", "customer_address", "id"),
        ForeignKey("customer", "c_demo_id", "customer_demographics", "id"),
        ForeignKey("store_sales", "ss_sold_date_id", "date_dim", "id"),
        ForeignKey("store_sales", "ss_item_id", "item", "id"),
        ForeignKey("store_sales", "ss_customer_id", "customer", "id"),
        ForeignKey("store_sales", "ss_store_id", "store", "id"),
        ForeignKey("store_sales", "ss_promo_id", "promotion", "id"),
        ForeignKey("store_returns", "sr_returned_date_id", "date_dim", "id"),
        ForeignKey("store_returns", "sr_item_id", "item", "id"),
        ForeignKey("store_returns", "sr_customer_id", "customer", "id"),
        ForeignKey("catalog_sales", "cs_sold_date_id", "date_dim", "id"),
        ForeignKey("catalog_sales", "cs_item_id", "item", "id"),
        ForeignKey("catalog_sales", "cs_bill_customer_id", "customer", "id"),
        ForeignKey("web_sales", "ws_sold_date_id", "date_dim", "id"),
        ForeignKey("web_sales", "ws_item_id", "item", "id"),
        ForeignKey("web_sales", "ws_bill_customer_id", "customer", "id"),
    ]
    schema = Schema("dsb", tables, foreign_keys)
    schema.index_all_join_keys()
    return schema


def _dsb_table_specs(scale: float) -> dict[str, TableSpec]:
    def rows(table: str) -> int:
        return max(int(_BASE_ROWS[table] * scale), 4)

    return {
        "date_dim": TableSpec(rows("date_dim"), {
            "d_year": ColumnSpec("uniform", cardinality=6),
            "d_moy": ColumnSpec("uniform", cardinality=12),
            "d_dow": ColumnSpec("uniform", cardinality=7),
        }),
        "item": TableSpec(rows("item"), {
            "i_category": ColumnSpec("categorical", cardinality=10, skew=1.0),
            "i_brand": ColumnSpec("categorical", cardinality=400, skew=1.2),
            "i_price": ColumnSpec("categorical", cardinality=200, skew=1.1),
        }),
        "customer": TableSpec(rows("customer"), {
            "c_birth_year": ColumnSpec("uniform", cardinality=80),
        }, fk_skew=1.1),
        "customer_address": TableSpec(rows("customer_address"), {
            "ca_state": ColumnSpec("categorical", cardinality=50, skew=1.3),
            "ca_gmt_offset": ColumnSpec("categorical", cardinality=6, skew=0.9),
        }),
        "customer_demographics": TableSpec(rows("customer_demographics"), {
            "cd_gender": ColumnSpec("uniform", cardinality=2),
            "cd_marital_status": ColumnSpec("uniform", cardinality=5),
        }),
        "store": TableSpec(rows("store"), {
            "s_state": ColumnSpec("categorical", cardinality=20, skew=1.1),
            "s_number_employees": ColumnSpec("uniform", cardinality=100),
        }),
        "promotion": TableSpec(rows("promotion"), {
            "p_channel": ColumnSpec("uniform", cardinality=4),
        }),
        "store_sales": TableSpec(rows("store_sales"), {
            "ss_quantity": ColumnSpec("categorical", cardinality=100, skew=1.2),
            "ss_list_price": ColumnSpec("derived", cardinality=300, source_column="ss_item_id", noise=0.2),
        }, fk_skew=1.5),
        "store_returns": TableSpec(rows("store_returns"), {
            "sr_return_quantity": ColumnSpec("categorical", cardinality=50, skew=1.3),
        }, fk_skew=1.4),
        "catalog_sales": TableSpec(rows("catalog_sales"), {
            "cs_quantity": ColumnSpec("categorical", cardinality=100, skew=1.2),
        }, fk_skew=1.45),
        "web_sales": TableSpec(rows("web_sales"), {
            "ws_quantity": ColumnSpec("categorical", cardinality=100, skew=1.2),
        }, fk_skew=1.4),
    }


DSB_FILTER_SPECS = {
    "date_dim": FilterSpec(eq_columns=["d_year", "d_moy"]),
    "item": FilterSpec(eq_columns=["i_category", "i_brand"], range_columns=["i_price"]),
    "customer": FilterSpec(range_columns=["c_birth_year"]),
    "customer_address": FilterSpec(eq_columns=["ca_state"]),
    "customer_demographics": FilterSpec(eq_columns=["cd_gender", "cd_marital_status"]),
    "store": FilterSpec(eq_columns=["s_state"]),
    "promotion": FilterSpec(eq_columns=["p_channel"]),
    "store_sales": FilterSpec(range_columns=["ss_quantity", "ss_list_price"]),
    "store_returns": FilterSpec(range_columns=["sr_return_quantity"]),
    "catalog_sales": FilterSpec(range_columns=["cs_quantity"]),
    "web_sales": FilterSpec(range_columns=["ws_quantity"]),
}


def build_dsb_database(scale: float = 1.0, seed: int = 0, noise_sigma: float = 0.0) -> Database:
    """Generate a populated DSB-like database instance."""
    schema = build_dsb_schema()
    generator = DataGenerator(schema, _dsb_table_specs(scale), seed=seed)
    return Database(schema, generator.generate(), noise_sigma=noise_sigma, seed=seed)


def build_dsb_workload(
    scale: float = 1.0,
    seed: int = 0,
    num_templates: int = 30,
    queries_per_template: int = 3,
    noise_sigma: float = 0.0,
    database: Database | None = None,
) -> Workload:
    """The DSB-like workload: 3 generated queries from each of 30 templates."""
    database = database or build_dsb_database(scale=scale, seed=seed, noise_sigma=noise_sigma)
    schema = database.schema
    max_aliases = 2
    graph = schema.alias_k_graph(max_aliases)
    rng = np.random.default_rng((seed, 59))
    filters = FilterSampler(database.relations, DSB_FILTER_SPECS)
    queries: list[Query] = []
    for template_index in range(num_templates):
        kind = "agg" if template_index % 2 == 0 else "spj"
        size = int(rng.integers(4, 9))
        aliases = sample_connected_aliases(graph, size, rng)
        name = f"DSB_{kind}_{template_index + 1:02d}"
        template = QueryTemplate.from_aliases(schema, graph, aliases, name)
        for instance in range(queries_per_template):
            queries.append(
                template.instance(f"{name}_{instance + 1}", rng, filters, filter_probability=0.65)
            )
    return Workload(
        name="DSB",
        database=database,
        queries=queries,
        max_aliases=max_aliases,
        description="DSB analogue (TPC-DS-style snowflake with skewed distributions)",
    )
