"""Tests for the plan string language: completeness, decoding validity, repair.

Property-based tests (hypothesis) check the paper's two required language
properties over arbitrary token sequences and arbitrary plans.
"""

import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles.reference_decoder import reference_decode
from repro.core import VAETrainingConfig
from repro.core.optimizer import train_schema_model
from repro.db.catalog import Column, ForeignKey, Schema, Table
from repro.db.query import JoinPredicate, Query, TableRef
from repro.exceptions import EncodingError
from repro.plans.encoding import PlanCodec, sequence_length
from repro.plans.jointree import JOIN_OPS, JoinOp, JoinTree
from repro.plans.sampling import random_join_tree
from repro.plans.vocabulary import PAD_TOKEN, build_vocabulary, max_aliases_in_workload
from repro.workloads import build_dsb_workload, build_job_workload, build_stack_workload
from repro.workloads.generator import RandomQuerySampler
from repro.workloads.imdb import build_imdb_schema


def star_schema(num_dims: int = 5) -> Schema:
    tables = [Table("fact", [Column("id")] + [Column(f"d{i}_id") for i in range(num_dims)])]
    fks = []
    for i in range(num_dims):
        tables.append(Table(f"dim{i}", [Column("id")]))
        fks.append(ForeignKey("fact", f"d{i}_id", f"dim{i}", "id"))
    return Schema("star", tables, fks)


def star_query(num_dims: int = 5) -> Query:
    refs = [TableRef("fact#1", "fact")] + [TableRef(f"dim{i}#1", f"dim{i}") for i in range(num_dims)]
    joins = [JoinPredicate("fact#1", f"d{i}_id", f"dim{i}#1", "id") for i in range(num_dims)]
    return Query("star_q", refs, joins)


SCHEMA = star_schema()
QUERY = star_query()
VOCAB = build_vocabulary(SCHEMA, max_aliases=1)
CODEC = PlanCodec(VOCAB)


class TestVocabulary:
    def test_contains_pad_ops_and_aliases(self):
        assert PAD_TOKEN in VOCAB.tokens
        assert len(VOCAB.op_ids) == 3
        assert VOCAB.size == 1 + 3 + 6  # pad + ops + six tables (k=1)

    def test_token_round_trip(self):
        for token_id in range(VOCAB.size):
            assert VOCAB.id_of(VOCAB.token_of(token_id)) == token_id

    def test_op_round_trip(self):
        for op in JOIN_OPS:
            assert VOCAB.op_of(VOCAB.op_id(op)) is op
        assert VOCAB.is_op(VOCAB.op_id(JoinOp.HASH))
        assert not VOCAB.is_op(VOCAB.pad_id)

    def test_unknown_token_rejected(self):
        with pytest.raises(EncodingError):
            VOCAB.id_of("nope")
        with pytest.raises(EncodingError):
            VOCAB.token_of(10_000)

    def test_non_op_token_rejected(self):
        with pytest.raises(EncodingError):
            VOCAB.op_of(VOCAB.pad_id)

    def test_max_aliases_in_workload(self):
        query = Query(
            "q",
            [TableRef("fact#1", "fact"), TableRef("dim0#1", "dim0"), TableRef("dim0#2", "dim0")],
            [
                JoinPredicate("fact#1", "d0_id", "dim0#1", "id"),
                JoinPredicate("fact#1", "d0_id", "dim0#2", "id"),
            ],
        )
        assert max_aliases_in_workload([QUERY, query]) == 2

    def test_build_vocabulary_invalid_aliases(self):
        with pytest.raises(EncodingError):
            build_vocabulary(SCHEMA, max_aliases=0)


class TestCanonicalEncoding:
    def test_sequence_length(self):
        assert sequence_length(1) == 0
        assert sequence_length(6) == 15

    def test_encode_length(self):
        plan = JoinTree.left_deep(QUERY.aliases)
        tokens = CODEC.encode(plan, QUERY)
        assert len(tokens) == 3 * (QUERY.num_tables - 1)

    def test_round_trip_left_deep(self):
        plan = JoinTree.left_deep(QUERY.aliases, [JoinOp.MERGE] * 5)
        assert CODEC.round_trip(plan, QUERY).canonical() == plan.canonical()

    def test_round_trip_bushy(self):
        left = JoinTree.join(JoinTree.leaf("dim0#1"), JoinTree.leaf("fact#1"), JoinOp.HASH)
        right = JoinTree.join(JoinTree.leaf("dim1#1"), JoinTree.leaf("dim2#1"), JoinOp.NESTED_LOOP)
        partial = JoinTree.join(left, right, JoinOp.MERGE)
        plan = JoinTree.join(
            partial, JoinTree.join(JoinTree.leaf("dim3#1"), JoinTree.leaf("dim4#1"), JoinOp.HASH),
            JoinOp.HASH,
        )
        assert CODEC.round_trip(plan, QUERY).canonical() == plan.canonical()

    def test_padded_encoding(self):
        plan = JoinTree.left_deep(QUERY.aliases)
        padded = CODEC.encode_padded(plan, QUERY, 30)
        assert len(padded) == 30
        assert padded[-1] == VOCAB.pad_id
        assert CODEC.decode(padded, QUERY).canonical() == plan.canonical()

    def test_padded_too_short_rejected(self):
        plan = JoinTree.left_deep(QUERY.aliases)
        with pytest.raises(EncodingError):
            CODEC.encode_padded(plan, QUERY, 3)

    def test_encode_wrong_query_rejected(self):
        other = star_query(3)
        plan = JoinTree.left_deep(QUERY.aliases)
        with pytest.raises(Exception):
            CODEC.encode(plan, other)

    def test_render(self):
        plan = JoinTree.left_deep(QUERY.aliases)
        text = CODEC.render(CODEC.encode(plan, QUERY))
        assert "fact#1" in text and "<hash>" in text


class TestDecodingValidity:
    def test_empty_sequence_decodes_to_valid_plan(self):
        plan = CODEC.decode([], QUERY)
        plan.validate_for_query(QUERY)

    def test_single_table_query(self):
        query = Query("single", [TableRef("fact#1", "fact")], [])
        plan = CODEC.decode([1, 2, 3], query)
        assert plan.is_leaf and plan.alias == "fact#1"

    def test_all_pad_tokens(self):
        plan = CODEC.decode([VOCAB.pad_id] * 15, QUERY)
        plan.validate_for_query(QUERY)

    def test_truncated_sequence_completed(self):
        full = CODEC.encode(JoinTree.left_deep(QUERY.aliases), QUERY)
        plan = CODEC.decode(full[:6], QUERY)
        plan.validate_for_query(QUERY)

    def test_repair_is_deterministic(self):
        tokens = [999 % VOCAB.size, 5, 1] * 5
        first = CODEC.decode(tokens, QUERY)
        second = CODEC.decode(tokens, QUERY)
        assert first.canonical() == second.canonical()

    # ------------------------------------------------------------------ property-based tests
    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=VOCAB.size - 1), min_size=0, max_size=40))
    def test_any_token_sequence_decodes_to_valid_plan(self, tokens):
        plan = CODEC.decode(tokens, QUERY)
        plan.validate_for_query(QUERY)
        assert plan.num_joins == QUERY.num_tables - 1

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_plans_round_trip(self, seed):
        plan = random_join_tree(QUERY, np.random.default_rng(seed))
        decoded = CODEC.round_trip(plan, QUERY)
        assert decoded.canonical() == plan.canonical()

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40), min_size=3, max_size=30))
    def test_out_of_range_tokens_are_repaired(self, tokens):
        # Negative ids and ids far outside the vocabulary still decode: the
        # repair rule indexes into the valid-symbol list with the raw integer.
        plan = CODEC.decode(tokens, QUERY)
        plan.validate_for_query(QUERY)
        assert plan == reference_decode(VOCAB, tokens, QUERY)


# ---------------------------------------------------------------------------- decoder oracle
#: ``REPRO_ORACLE_FULL=1`` (``make oracle-full``) decodes VAE-decoded and
#: random sequences for every query of the three benchmark workloads; tier-1
#: takes every eighth query and fewer sequences.
ORACLE_FULL = os.environ.get("REPRO_ORACLE_FULL") == "1"

JOB_SCHEMA = build_imdb_schema()
JOB_CODEC = PlanCodec(build_vocabulary(JOB_SCHEMA, max_aliases=2))
#: JOB-schema queries of 1-10 tables over the alias-2 reference graph (some
#: join two aliases of one table, e.g. ``cast_info#1`` and ``cast_info#2``).
JOB_QUERIES = [
    query
    for tables in range(1, 11)
    for query in RandomQuerySampler(
        JOB_SCHEMA, max_aliases=2, min_tables=tables, max_tables=tables
    ).sample(3, seed=tables)
]
ORACLE_CASES = [(CODEC, QUERY)] + [(JOB_CODEC, query) for query in JOB_QUERIES]


def assert_decodes_like_the_oracle(codec: PlanCodec, tokens: list[int], query: Query) -> None:
    expected = reference_decode(codec.vocabulary, tokens, query)
    tables = codec.tables(query)
    key, merges = tables.walk(tokens)
    assert codec.decode(tokens, query) == expected
    assert key == expected.canonical()
    assert tables.build(merges) == expected


def token_lists(vocabulary) -> st.SearchStrategy:
    """Up to 40 ids: in-vocabulary, pad and operators anywhere, negative, too large."""
    size = vocabulary.size
    token = st.one_of(
        st.integers(min_value=0, max_value=size - 1),
        st.sampled_from([vocabulary.pad_id, *vocabulary.op_ids]),
        st.integers(min_value=-3 * size, max_value=-1),
        st.integers(min_value=size, max_value=2**40),
    )
    return st.lists(token, max_size=40)


class TestDecoderOracle:
    """The key-first walk decodes as the component-forest reference decoder did."""

    def test_job_queries_cover_every_size_and_repeated_tables(self):
        assert {query.num_tables for query in JOB_QUERIES} == set(range(1, 11))
        tables = [[ref.table for ref in query.table_refs] for query in JOB_QUERIES]
        assert any(len(set(names)) < len(names) for names in tables)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_any_token_list_decodes_like_the_oracle(self, data):
        codec, query = data.draw(st.sampled_from(ORACLE_CASES))
        assert_decodes_like_the_oracle(codec, data.draw(token_lists(codec.vocabulary)), query)

    def test_tables_are_built_once_per_alias_tuple_and_not_pickled(self):
        codec = PlanCodec(VOCAB)
        assert codec.tables(QUERY) is codec.tables(star_query())
        assert pickle.dumps(codec) == pickle.dumps(PlanCodec(VOCAB))
        with pytest.raises(EncodingError):
            codec.tables(Query("empty", [], []))

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "build", [build_job_workload, build_stack_workload, build_dsb_workload],
        ids=["job", "stack", "dsb"],
    )
    def test_benchmark_workloads(self, build):
        workload = build(scale=0.05, seed=0)
        model = train_schema_model(
            workload.database, workload.queries,
            VAETrainingConfig(
                latent_dim=8, embed_dim=8, hidden_dim=32, training_steps=60,
                corpus_queries=12, seed=0,
            ),
        )
        latent, codec = model.latent_space, model.codec
        size = codec.vocabulary.size
        rng = np.random.default_rng(0)
        queries = workload.queries if ORACLE_FULL else workload.queries[::8]
        count = 64 if ORACLE_FULL else 8
        for query in queries:
            vectors = latent.random_vectors(count, rng)
            decoded = [list(row) for row in latent.token_rows(vectors)]
            assert latent.decode_vectors(vectors, query) == [
                reference_decode(codec.vocabulary, tokens, query) for tokens in decoded
            ]
            random = [
                rng.integers(-size, 2 * size, int(rng.integers(0, 41))).tolist()
                for _ in range(count)
            ]
            for tokens in decoded + random:
                assert_decodes_like_the_oracle(codec, tokens, query)
