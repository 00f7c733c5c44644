"""Tests for the workload builders, the random query sampler and drift simulation."""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest
from oracles import reference_graph, reference_statistics

from repro.db.catalog import alias_table
from repro.db.plan_cache import query_fingerprint
from repro.db.statistics import ColumnStats
from repro.exceptions import QueryError
from repro.workloads import (
    RandomQuerySampler,
    STACK_DATE_2017,
    STACK_DATE_MAX,
    Workload,
    build_dsb_schema,
    build_imdb_schema,
    build_stack_database,
    build_stack_schema,
    deletion_fraction,
    drift_timeline,
    per_table_deletion,
    rollback_to_date,
    sample_connected_aliases,
)
from repro.workloads.dsb import build_dsb_workload
from repro.workloads.imdb import build_ceb_workload, build_job_workload
from repro.workloads import generator
from repro.workloads.stack import build_stack_workload


class TestSchemas:
    def test_imdb_schema_shape(self):
        schema = build_imdb_schema()
        assert len(schema) == 14
        assert schema.has_table("title") and schema.has_table("cast_info")
        assert schema.has_index("cast_info", "movie_id")
        assert nx_connected(schema)

    def test_stack_schema_shape(self):
        schema = build_stack_schema()
        assert len(schema) == 10
        assert schema.has_table("question") and schema.has_table("so_user")
        assert nx_connected(schema)

    def test_dsb_schema_shape(self):
        schema = build_dsb_schema()
        assert len(schema) == 11
        assert schema.has_table("store_sales")
        assert nx_connected(schema)


def nx_connected(schema) -> bool:
    import networkx as nx

    return nx.is_connected(reference_graph.reference_graph(schema))


#: Digests of the queries the builders generated while the alias-k graph was
#: a networkx ``Graph`` (``comment`` inside).
DIGESTS = json.loads((Path(__file__).parent / "data" / "workload_digests.json").read_text())


def _digest(queries) -> list:
    rows = [
        [query.name, repr(tuple(query_fingerprint(query))),
         [[p.left_alias, p.left_column, p.right_alias, p.right_column] for p in query.join_predicates]]
        for query in queries
    ]
    return [len(queries), hashlib.sha256(json.dumps(rows).encode()).hexdigest()]


@pytest.mark.parametrize("seed", [0, 1])
def test_generated_queries_are_those_of_the_networkx_graph(seed):
    """Names, fingerprints and predicate order of every builder's queries."""
    job = build_job_workload(scale=0.05, seed=seed)
    sampler = RandomQuerySampler(job.database.schema, max_aliases=2, relations=job.database.relations)
    generated = {
        "JOB": job.queries,
        "CEB": build_ceb_workload(scale=0.05, seed=seed, database=job.database).queries,
        "Stack": build_stack_workload(scale=0.05, seed=seed).queries,
        "DSB": build_dsb_workload(scale=0.05, seed=seed).queries,
        "sampled": sampler.sample(40, seed=seed),
    }
    for name, queries in generated.items():
        assert _digest(queries) == DIGESTS["digests"][f"{name}/{seed}"], name


class TestQuerySampling:
    def test_sample_connected_aliases(self, rng):
        schema = build_imdb_schema()
        graph = schema.alias_k_graph(2)
        aliases = sample_connected_aliases(graph, 6, rng)
        assert len(aliases) == 6
        assert len(set(aliases)) == 6

    def test_sample_size_one(self, rng):
        schema = build_imdb_schema()
        graph = schema.alias_k_graph(1)
        assert len(sample_connected_aliases(graph, 1, rng)) == 1

    def test_sample_invalid_size(self, rng):
        schema = build_imdb_schema()
        with pytest.raises(QueryError):
            sample_connected_aliases(schema.alias_k_graph(1), 0, rng)

    def test_random_query_sampler(self, tiny_database):
        sampler = RandomQuerySampler(tiny_database.schema, max_aliases=2, min_tables=2, max_tables=4)
        queries = sampler.sample(10, seed=0)
        assert len(queries) == 10
        for query in queries:
            query.validate_against(tiny_database.schema)
            assert query.is_connected()
            assert 2 <= query.num_tables <= 4

    def test_sampler_deterministic(self, tiny_database):
        sampler = RandomQuerySampler(tiny_database.schema, max_aliases=1, min_tables=2, max_tables=4)
        first = [q.sql() for q in sampler.sample(5, seed=3)]
        second = [q.sql() for q in sampler.sample(5, seed=3)]
        assert first == second


class TestWorkloadBuilders:
    def test_job_workload_shape(self, job_workload_small):
        assert job_workload_small.name == "JOB"
        assert job_workload_small.num_queries == 16
        assert job_workload_small.median_joins() >= 3
        for query in job_workload_small.queries:
            query.validate_against(job_workload_small.database.schema)
            assert query.is_connected()

    def test_job_query_names_unique(self, job_workload_small):
        names = [q.name for q in job_workload_small.queries]
        assert len(names) == len(set(names))

    def test_workload_helpers(self, job_workload_small):
        assert job_workload_small.size_bytes() > 0
        first = job_workload_small.queries[0]
        assert job_workload_small.query(first.name) is first
        with pytest.raises(QueryError):
            job_workload_small.query("nope")
        assert job_workload_small.templates()

    def test_duplicate_query_names_rejected(self, job_workload_small):
        with pytest.raises(QueryError):
            Workload(
                name="dup",
                database=job_workload_small.database,
                queries=[job_workload_small.queries[0], job_workload_small.queries[0]],
            )

    def test_ceb_workload_templates(self):
        workload = build_ceb_workload(scale=0.05, seed=1, num_templates=3, queries_per_template=4)
        assert workload.num_queries == 12
        assert len(workload.templates()) == 3
        template = workload.templates()[0]
        queries = workload.queries_for_template(template)
        # All queries of a template join the same alias set.
        alias_sets = {tuple(sorted(q.aliases)) for q in queries}
        assert len(alias_sets) == 1

    def test_dsb_workload_shape(self):
        workload = build_dsb_workload(scale=0.05, seed=1, num_templates=6, queries_per_template=2)
        assert workload.num_queries == 12
        assert workload.median_joins() >= 3

    def test_aliases_reference_their_tables(self, job_workload_small):
        for query in job_workload_small.queries[:5]:
            for ref in query.table_refs:
                assert alias_table(ref.alias) == ref.table


class TestDrift:
    @pytest.fixture(scope="class")
    def stack_db(self):
        return build_stack_database(scale=0.05, seed=2)

    def test_rollback_deletes_rows(self, stack_db):
        past = rollback_to_date(stack_db, STACK_DATE_2017)
        fraction = deletion_fraction(stack_db, past)
        assert 0.0 < fraction < 0.6

    def test_rollback_respects_date_column(self, stack_db):
        past = rollback_to_date(stack_db, STACK_DATE_2017)
        assert past.relations["question"].column("creation_date").max() <= STACK_DATE_2017

    def test_rollback_preserves_referential_integrity(self, stack_db):
        past = rollback_to_date(stack_db, STACK_DATE_2017)
        for fk in stack_db.schema.foreign_keys:
            referencing = past.relations[fk.table]
            referenced = past.relations[fk.ref_table]
            if referencing.num_rows == 0:
                continue
            assert np.isin(referencing.column(fk.column), referenced.column(fk.ref_column)).all()

    def test_per_table_deletion_fractions(self, stack_db):
        past = rollback_to_date(stack_db, STACK_DATE_2017)
        fractions = per_table_deletion(stack_db, past)
        assert set(fractions) == set(stack_db.schema.table_names)
        assert all(0.0 <= fraction <= 1.0 for fraction in fractions.values())
        # Tables without a creation_date column only shrink through FK cascades.
        assert fractions["site"] == 0.0

    def test_rollback_monotone_in_cutoff(self, stack_db):
        early = rollback_to_date(stack_db, 1000)
        late = rollback_to_date(stack_db, 4000)
        assert sum(r.num_rows for r in early.relations.values()) <= sum(
            r.num_rows for r in late.relations.values()
        )

    def test_drift_timeline(self, stack_db):
        timeline = drift_timeline(stack_db, 3000, 4300, steps=3)
        assert len(timeline) == 3
        cutoffs = [cutoff for cutoff, _ in timeline]
        assert cutoffs == sorted(cutoffs)
        sizes = [sum(r.num_rows for r in snapshot.relations.values()) for _, snapshot in timeline]
        assert sizes == sorted(sizes)

    def test_queries_still_run_after_rollback(self, stack_db):
        from repro.workloads.stack import build_stack_workload

        workload = build_stack_workload(scale=0.05, seed=2, num_templates=4, num_queries=8,
                                        database=stack_db)
        past = rollback_to_date(stack_db, STACK_DATE_2017)
        query = workload.queries[0]
        result = past.execute(query, timeout=300.0)
        assert result.latency > 0


# ------------------------------------------- ANALYZE and range literals vs the reference
#: ``REPRO_ORACLE_FULL=1`` (``make oracle-full``) runs every build below;
#: tier-1 runs the first of each family.
ORACLE_FULL = os.environ.get("REPRO_ORACLE_FULL") == "1"

#: The builds the tests, the e2e benchmark (full and smoke) and the figure,
#: table, serve and microbenchmarks make.  A Stack build is also rolled back
#: to 2017, and at the drift figures' scale run through the Fig. 7 timeline.
STATS_ORACLE_BUILDS = [
    ("job", dict(scale=0.05, num_queries=6)),
    ("job", dict(scale=0.05, num_queries=40)),
    ("job", dict(scale=0.15, num_queries=24)),
    ("job", dict(scale=0.15, num_queries=40)),
    ("job", dict(scale=0.15)),
    ("job", dict(scale=0.16, num_queries=40)),
    ("stack", dict(scale=0.05, num_templates=4, num_queries=16)),
    ("stack", dict(scale=0.05, num_templates=8, num_queries=10)),
    ("stack", dict(scale=0.05, num_templates=8, num_queries=12)),
    ("stack", dict(scale=0.05, num_templates=8, num_queries=16)),
    ("stack", dict(scale=0.05, num_templates=8, num_queries=24)),
    ("stack", dict(scale=0.05, num_templates=8, num_queries=64)),
    ("stack", dict(scale=0.08, num_templates=8, num_queries=24)),
    ("stack", dict(scale=0.08, num_templates=8, num_queries=40)),
    ("dsb", dict(scale=0.05, num_templates=4, queries_per_template=2)),
    ("dsb", dict(scale=0.08, num_templates=10, queries_per_template=3)),
    ("ceb", dict(scale=0.05, num_templates=3, queries_per_template=3)),
    ("ceb", dict(scale=0.12, num_templates=4, queries_per_template=5)),
    ("ceb", dict(scale=0.15, num_templates=6, queries_per_template=8)),
]
_TIER1_BUILDS = [
    next(build for build in STATS_ORACLE_BUILDS if build[0] == family)
    for family in ("job", "stack", "dsb", "ceb")
]
_BUILDERS = {
    "job": build_job_workload,
    "stack": build_stack_workload,
    "dsb": build_dsb_workload,
    "ceb": build_ceb_workload,
}


def _stats_bits(database) -> dict:
    """Every ``ColumnStats`` field of every column: type, dtype and bytes."""
    bits = {}
    for table, table_stats in database.stats.items():
        assert table_stats.num_rows == database.relations[table].num_rows
        for column, stats in table_stats.columns.items():
            for field in dataclasses.fields(ColumnStats):
                value = getattr(stats, field.name)
                array = np.asarray(value)
                bits[table, column, field.name] = (type(value), array.dtype, array.tobytes())
    return bits


def _build_and_read(family: str, kwargs: dict) -> tuple[list[str], list[dict]]:
    """The queries (with their filter literals) and the statistics of a build."""
    workload = _BUILDERS[family](seed=0, **kwargs)
    databases = [workload.database]
    if family == "stack":
        databases.append(rollback_to_date(workload.database, STACK_DATE_2017))
        if kwargs["scale"] == 0.08 and ORACLE_FULL:
            timeline = drift_timeline(workload.database, STACK_DATE_2017, STACK_DATE_MAX, 3)
            databases.extend(snapshot for _, snapshot in timeline)
    return [repr(query) for query in workload.queries], [_stats_bits(db) for db in databases]


@pytest.mark.parametrize(
    "family, kwargs",
    STATS_ORACLE_BUILDS if ORACLE_FULL else _TIER1_BUILDS,
    ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value.values())),
)
def test_builds_match_the_reference_statistics_and_literals(family, kwargs, monkeypatch):
    """One sort per column gives every query, literal and statistic of np.unique/np.quantile."""
    built = _build_and_read(family, kwargs)
    with monkeypatch.context() as patch:
        patch.setattr("repro.db.statistics.analyze_relation", reference_statistics.analyze_relation)
        patch.setattr(generator, "_sample_filter", reference_statistics._sample_filter)
        reference = _build_and_read(family, kwargs)
    queries, stats = built
    assert queries == reference[0]
    assert any("op='<='" in query or "op='>='" in query for query in queries)
    assert len(stats) == len(reference[1])
    for got, want in zip(stats, reference[1]):
        assert got == want
