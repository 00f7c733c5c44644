"""Shared fixtures: a tiny star schema, a small JOB-like workload and trained models.

Most unit tests use the tiny star schema (four tables, a few thousand rows) so
the whole suite stays fast; integration tests that need realistic workloads
use the session-scoped scaled-down JOB workload.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import VAETrainingConfig
from repro.core.optimizer import SchemaModel, train_schema_model
from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.datagen import ColumnSpec, DataGenerator, TableSpec
from repro.db.engine import Database
from repro.db.query import FilterPredicate, JoinPredicate, Query, TableRef
from repro.plans.encoding import PlanCodec
from repro.plans.vocabulary import build_vocabulary
from repro.utils.blas import one_blas_thread
from repro.workloads import build_job_workload
from repro.workloads.base import Workload


@pytest.fixture(scope="session", autouse=True)
def _one_blas_thread():
    """Every test runs with OpenBLAS on one thread, as ``drive`` runs the BO loop.

    Most GP tests call the GP directly, outside ``drive``; unpinned, OpenBLAS's
    thread pool makes their small solves several times slower.  The guard,
    not ``OPENBLAS_NUM_THREADS``: a subprocess test that unsets the variable
    still runs unpinned.
    """
    with one_blas_thread():
        yield


# ---------------------------------------------------------------------------- tiny schema
def _tiny_schema() -> Schema:
    tables = [
        Table("orders", [Column("id"), Column("customer_id"), Column("product_id"),
                         Column("quantity"), Column("order_date", "date")]),
        Table("customer", [Column("id"), Column("region"), Column("segment")]),
        Table("product", [Column("id"), Column("category"), Column("price")]),
        Table("shipment", [Column("id"), Column("order_id"), Column("carrier"),
                           Column("ship_date", "date")]),
    ]
    foreign_keys = [
        ForeignKey("orders", "customer_id", "customer", "id"),
        ForeignKey("orders", "product_id", "product", "id"),
        ForeignKey("shipment", "order_id", "orders", "id"),
    ]
    schema = Schema("tiny", tables, foreign_keys)
    schema.index_all_join_keys()
    return schema


def _tiny_specs() -> dict[str, TableSpec]:
    return {
        "orders": TableSpec(3000, {
            "quantity": ColumnSpec("categorical", cardinality=20, skew=1.2),
            "order_date": ColumnSpec("date", date_min=0, date_max=1000),
        }, fk_skew=1.3),
        "customer": TableSpec(400, {
            "region": ColumnSpec("categorical", cardinality=8, skew=1.0),
            "segment": ColumnSpec("categorical", cardinality=4, skew=0.8),
        }),
        "product": TableSpec(300, {
            "category": ColumnSpec("categorical", cardinality=10, skew=1.1),
            "price": ColumnSpec("categorical", cardinality=50, skew=1.3),
        }),
        "shipment": TableSpec(3500, {
            "carrier": ColumnSpec("categorical", cardinality=5, skew=1.0),
            "ship_date": ColumnSpec("date", date_min=0, date_max=1000),
        }, fk_skew=1.4),
    }


@pytest.fixture(scope="session")
def tiny_schema() -> Schema:
    return _tiny_schema()


@pytest.fixture(scope="session")
def tiny_database() -> Database:
    schema = _tiny_schema()
    relations = DataGenerator(schema, _tiny_specs(), seed=7).generate()
    return Database(schema, relations, seed=7)


@pytest.fixture(scope="session")
def tiny_query() -> Query:
    return Query(
        name="tiny_q1",
        table_refs=[
            TableRef("orders#1", "orders"),
            TableRef("customer#1", "customer"),
            TableRef("product#1", "product"),
            TableRef("shipment#1", "shipment"),
        ],
        join_predicates=[
            JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
            JoinPredicate("orders#1", "product_id", "product#1", "id"),
            JoinPredicate("shipment#1", "order_id", "orders#1", "id"),
        ],
        filters=[
            FilterPredicate("customer#1", "region", "=", 2),
            FilterPredicate("shipment#1", "ship_date", ">=", 300),
        ],
        template="tiny_T1",
    )


@pytest.fixture(scope="session")
def tiny_three_table_query() -> Query:
    return Query(
        name="tiny_q2",
        table_refs=[
            TableRef("orders#1", "orders"),
            TableRef("customer#1", "customer"),
            TableRef("product#1", "product"),
        ],
        join_predicates=[
            JoinPredicate("orders#1", "customer_id", "customer#1", "id"),
            JoinPredicate("orders#1", "product_id", "product#1", "id"),
        ],
        filters=[FilterPredicate("product#1", "category", "=", 3)],
        template="tiny_T2",
    )


@pytest.fixture(scope="session")
def tiny_two_table_query() -> Query:
    """Six plans (two join orders x three operators): any budget outlasts it.
    The filter keeps its executions apart from other tests' two-table joins
    in the session database's execution cache."""
    return Query(
        name="tiny_q3",
        table_refs=[TableRef("orders#1", "orders"), TableRef("product#1", "product")],
        join_predicates=[JoinPredicate("orders#1", "product_id", "product#1", "id")],
        filters=[FilterPredicate("product#1", "category", "=", 5)],
        template="tiny_T3",
    )


@pytest.fixture(scope="session")
def tiny_vocabulary(tiny_schema):
    return build_vocabulary(tiny_schema, max_aliases=2)


@pytest.fixture(scope="session")
def tiny_codec(tiny_vocabulary):
    return PlanCodec(tiny_vocabulary)


@pytest.fixture(scope="session")
def tiny_workload(tiny_database, tiny_query, tiny_three_table_query) -> Workload:
    return Workload(
        name="tiny",
        database=tiny_database,
        queries=[tiny_query, tiny_three_table_query],
        max_aliases=2,
        description="fixture workload",
    )


@pytest.fixture(scope="session")
def tiny_schema_model(tiny_database, tiny_workload) -> SchemaModel:
    config = VAETrainingConfig(
        latent_dim=8, embed_dim=8, hidden_dim=48, training_steps=300, corpus_queries=40,
        max_tables=4, seed=3,
    )
    return train_schema_model(tiny_database, tiny_workload.queries, config, max_aliases=2)


# ---------------------------------------------------------------------------- small JOB workload
@pytest.fixture(scope="session")
def job_workload_small() -> Workload:
    workload = build_job_workload(scale=0.12, seed=0, num_queries=16)
    return workload


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)
