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

    @pytest.mark.parametrize("cutoff", [0, 3, 6, 9])
    def test_rollback_equals_materializing_every_round(self, cutoff):
        """Composed selections give the rows of the rollback that copied a
        relation at every deletion, with a self-referencing FK and a chain."""
        from repro.db.catalog import Column, ForeignKey, Schema, Table
        from repro.db.engine import Database
        from repro.db.relation import Relation

        schema = Schema("chain", [
            Table("user", [Column("id"), Column("creation_date", "date")]),
            Table("post", [Column("id"), Column("user_id"), Column("parent_id"),
                           Column("creation_date", "date")]),
            Table("vote", [Column("id"), Column("post_id")]),
        ], [
            ForeignKey("post", "user_id", "user", "id"),
            ForeignKey("post", "parent_id", "post", "id"),
            ForeignKey("vote", "post_id", "post", "id"),
        ])
        rng = np.random.default_rng(cutoff)
        posts = 60
        columns = {
            "user": {"id": np.arange(12), "creation_date": rng.integers(0, 10, 12)},
            # A post's parent is an earlier post: deleting one deletes a chain.
            "post": {"id": np.arange(posts), "user_id": rng.integers(0, 12, posts),
                     "parent_id": np.maximum(np.arange(posts) - rng.integers(1, 4, posts), 0),
                     "creation_date": rng.integers(0, 10, posts)},
            "vote": {"id": np.arange(200), "post_id": rng.integers(0, posts, 200)},
        }
        database = Database(
            schema, {name: Relation(schema.table(name), cols) for name, cols in columns.items()}
        )
        got = rollback_to_date(database, cutoff)
        relations = {
            name: relation.with_rows(np.flatnonzero(relation.column("creation_date") <= cutoff))
            if relation.table.has_column("creation_date") else relation
            for name, relation in database.relations.items()
        }
        changed = True
        while changed:
            changed = False
            for fk in schema.foreign_keys:
                referencing, referenced = relations[fk.table], relations[fk.ref_table]
                mask = np.isin(referencing.column(fk.column), referenced.column(fk.ref_column))
                if not mask.all():
                    relations[fk.table] = referencing.with_rows(np.flatnonzero(mask))
                    changed = True
        for name, relation in relations.items():
            for column in relation.column_names:
                assert np.array_equal(got.relations[name].column(column), relation.column(column))
        assert got.relations["vote"].num_rows < database.relations["vote"].num_rows or cutoff == 9

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
    graph = reference_graph.alias_k_graph(workload.database.schema, workload.max_aliases)
    for query in workload.queries:
        # Each template's walk, shared by its instances, is the per-query one.
        assert query.join_predicates == tuple(reference_graph.join_predicates(graph, query.aliases))
    databases = [workload.database]
    if family == "stack":
        databases.append(rollback_to_date(workload.database, STACK_DATE_2017))
        if kwargs["scale"] == 0.08 and ORACLE_FULL:
            timeline = drift_timeline(workload.database, STACK_DATE_2017, STACK_DATE_MAX, 3)
            databases.extend(snapshot for _, snapshot in timeline)
    return [repr(query) for query in workload.queries], [_stats_bits(db) for db in databases]


def _reference_draw(sampler, alias, table, rng):
    return reference_statistics._sample_filter(
        alias, table, sampler.relations, sampler.filter_specs, rng
    )


@pytest.mark.parametrize(
    "family, kwargs",
    STATS_ORACLE_BUILDS if ORACLE_FULL else _TIER1_BUILDS,
    ids=lambda value: value if isinstance(value, str) else "-".join(map(str, value.values())),
)
def test_builds_match_the_reference_statistics_and_literals(family, kwargs, monkeypatch):
    """Templates, one sort per column and shared quantile positions give every
    query, literal and statistic of a per-query walk and np.unique/np.quantile."""
    built = _build_and_read(family, kwargs)
    with monkeypatch.context() as patch:
        patch.setattr("repro.db.statistics.analyze_relation", reference_statistics.analyze_relation)
        # The rollback's sibling database analyzes through the engine's name.
        patch.setattr("repro.db.engine.analyze_relation", reference_statistics.analyze_relation)
        patch.setattr(generator.FilterSampler, "draw", _reference_draw)
        reference = _build_and_read(family, kwargs)
    queries, stats = built
    assert queries == reference[0]
    assert any("op='<='" in query or "op='>='" in query for query in queries)
    assert len(stats) == len(reference[1])
    for got, want in zip(stats, reference[1]):
        assert got == want


# ------------------------------------------------------------ builds bit for bit
#: sha256 digests of each build's column bytes, statistics and queries, as the
#: builders produced them before a build computed its templates, Zipf tables,
#: quantile positions and rollback selections once.
BUILD_DIGESTS = json.loads((Path(__file__).parent / "data" / "build_digests.json").read_text())


def _sha(rows) -> str:
    digest = hashlib.sha256()
    for row in rows:
        digest.update(repr(row).encode())
    return digest.hexdigest()


def _column_rows(database):
    for table in sorted(database.relations):
        relation = database.relations[table]
        for column in relation.column_names:
            array = relation.column(column)
            yield table, column, array.dtype.str, array.tobytes()


def _stats_rows(database):
    for table in sorted(database.stats):
        table_stats = database.stats[table]
        yield table, table_stats.num_rows
        for column, stats in table_stats.columns.items():
            for field in dataclasses.fields(ColumnStats):
                value = getattr(stats, field.name)
                array = np.asarray(value)
                yield column, field.name, type(value).__name__, array.dtype.str, array.tobytes()


def _stack_with_history(seed, scale, num_templates, num_queries, steps):
    workload = build_stack_workload(
        scale=scale, seed=seed, num_templates=num_templates, num_queries=num_queries
    )
    databases = [workload.database, rollback_to_date(workload.database, STACK_DATE_2017)]
    if steps:
        timeline = drift_timeline(workload.database, STACK_DATE_2017, STACK_DATE_MAX, steps)
        databases.extend(snapshot for _, snapshot in timeline)
    return workload.queries, databases


def _sampled_corpus():
    from repro.workloads.imdb import IMDB_FILTER_SPECS

    database = build_job_workload(scale=0.16, seed=0, num_queries=1).database
    sampler = RandomQuerySampler(
        database.schema, max_aliases=2, relations=database.relations,
        filter_specs=IMDB_FILTER_SPECS,
    )
    return sampler.sample(60, seed=0), []


def _one_workload(build, **kwargs):
    workload = build(**kwargs)
    return workload.queries, [workload.database]


#: The builds the e2e benchmark, the drift figures and the VAE corpus make:
#: name -> a call returning (queries, databases).
DIGEST_BUILDS = {
    "job-0.16-40": lambda: _one_workload(build_job_workload, scale=0.16, seed=0, num_queries=40),
    "stack-0.05-8-64-timeline4": lambda: _stack_with_history(0, 0.05, 8, 64, steps=4),
    "stack-0.2-16-200-seed3": lambda: _stack_with_history(3, 0.2, 16, 200, steps=0),
    "stack-0.08-8-24-timeline9": lambda: _stack_with_history(0, 0.08, 8, 24, steps=9),
    "ceb-0.12-4-5": lambda: _one_workload(
        build_ceb_workload, scale=0.12, seed=0, num_templates=4, queries_per_template=5
    ),
    "dsb-0.08-10-3": lambda: _one_workload(
        build_dsb_workload, scale=0.08, seed=0, num_templates=10, queries_per_template=3
    ),
    "sampled-0.16-60": _sampled_corpus,
}


def build_digest(name: str) -> dict:
    queries, databases = DIGEST_BUILDS[name]()
    digest = {"queries": _sha(repr(query) for query in queries)}
    if databases:
        digest["columns"] = _sha(row for database in databases for row in _column_rows(database))
        digest["stats"] = _sha(row for database in databases for row in _stats_rows(database))
    return digest


@pytest.mark.parametrize("name", sorted(DIGEST_BUILDS))
def test_builds_are_bit_for_bit_those_recorded(name):
    """Every column's bytes, every ColumnStats field and every query of each build."""
    assert build_digest(name) == BUILD_DIGESTS["digests"][name]


def _container_sizes(module) -> dict:
    """The size of every module-level dict, list, set and functools cache."""
    sizes = {}
    for name, value in vars(module).items():
        if isinstance(value, (dict, list, set)) and not name.startswith("__"):
            sizes[name] = len(value)
        elif hasattr(value, "cache_info"):
            sizes[name] = value.cache_info().currsize
    return sizes


def test_no_memo_outlives_a_build(monkeypatch):
    """A second Stack build in one process does all of the first one's work:
    the Zipf tables, templates and quantile positions are computed as often,
    and no module-level container of the three modules grows."""
    from repro.db import datagen, statistics

    counts = {"zipf": 0, "template": 0, "positions": 0}

    def counting(key, function):
        def call(*args, **kwargs):
            counts[key] += 1
            return function(*args, **kwargs)

        return call

    monkeypatch.setattr(datagen, "capped_zipf_weights", counting("zipf", datagen.capped_zipf_weights))
    monkeypatch.setattr(
        statistics, "quantile_positions", counting("positions", statistics.quantile_positions)
    )
    from_aliases = generator.QueryTemplate.from_aliases
    monkeypatch.setattr(
        generator.QueryTemplate,
        "from_aliases",
        classmethod(lambda cls, *args, **kwargs: counting("template", from_aliases)(*args, **kwargs)),
    )
    modules = (datagen, generator, statistics)
    before = [_container_sizes(module) for module in modules]
    work = []
    for _ in range(2):
        build_stack_workload(scale=0.05, seed=0, num_templates=8, num_queries=64)
        work.append(dict(counts))
        counts.update(dict.fromkeys(counts, 0))
    assert work[0] == work[1]
    assert work[0]["template"] == 8 and work[0]["zipf"] > 0 and work[0]["positions"] > 0
    assert [_container_sizes(module) for module in modules] == before
