"""Training-data generation for the plan VAE.

Following Section 4.2 of the paper, the corpus is built **without executing a
single query**: random PK-FK equijoin queries are sampled from the schema's
alias-k reference graph, each is planned by the default optimizer under the
default hint set plus a handful of feature-disabling hint sets (to diversify
the operators seen), and the resulting join trees are encoded into padded
plan strings.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.db.engine import Database
from repro.db.query import Query
from repro.plans.encoding import PlanCodec, sequence_length
from repro.plans.hints import HintSet, bao_hint_sets
from repro.plans.jointree import JOIN_OPS, JoinOp
from repro.plans.vocabulary import PlanVocabulary
from repro.workloads.generator import FilterSpec, RandomQuerySampler


def diversification_hint_sets() -> list[HintSet]:
    """Hint sets used to diversify VAE training plans (default + single-op sets)."""
    hint_sets = [HintSet()]
    for op in JOIN_OPS:
        hint_sets.append(HintSet(join_ops=frozenset([op])))
    hint_sets.append(HintSet(join_ops=frozenset([JoinOp.HASH, JoinOp.MERGE])))
    return hint_sets


@dataclass
class PlanCorpus:
    """A padded token matrix of training plans plus the split used for evaluation."""

    sequences: np.ndarray
    max_length: int
    vocabulary: PlanVocabulary

    def split(self, train_fraction: float = 0.8, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """Deterministic train/test split of the corpus rows."""
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(self.sequences))
        cut = int(len(order) * train_fraction)
        return self.sequences[order[:cut]], self.sequences[order[cut:]]

    @property
    def num_sequences(self) -> int:
        return len(self.sequences)


def build_plan_corpus(
    database: Database,
    vocabulary: PlanVocabulary,
    max_aliases: int = 1,
    num_queries: int = 300,
    max_tables: int = 10,
    filter_specs: dict[str, FilterSpec] | None = None,
    seed: int = 0,
) -> PlanCorpus:
    """Sample random queries, plan them under several hint sets and encode the plans.

    The corpus length is ``3 * (max_tables - 1)`` tokens; shorter plans are
    padded.  Duplicate encodings are removed.
    """
    sampler = RandomQuerySampler(
        database.schema,
        max_aliases=max_aliases,
        relations=database.relations,
        filter_specs=filter_specs,
        min_tables=3,
        max_tables=max_tables,
    )
    queries = sampler.sample(num_queries, seed=seed)
    codec = PlanCodec(vocabulary)
    max_length = sequence_length(max_tables)
    hint_sets = diversification_hint_sets()
    rows: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for query in queries:
        for plan in database.plan_hint_sets(query, hint_sets):
            encoded = tuple(codec.encode_padded(plan, query, max_length))
            if encoded in seen:
                continue
            seen.add(encoded)
            rows.append(list(encoded))
    sequences = np.asarray(rows, dtype=np.int64)
    return PlanCorpus(sequences=sequences, max_length=max_length, vocabulary=vocabulary)


def corpus_from_workload_plans(
    database: Database,
    vocabulary: PlanVocabulary,
    queries: list[Query],
    max_length: int,
    hint_sets: list[HintSet] | None = None,
) -> PlanCorpus:
    """Corpus built from the actual workload's hinted plans (used in drift retraining)."""
    codec = PlanCodec(vocabulary)
    hint_sets = hint_sets or bao_hint_sets()
    rows: list[list[int]] = []
    seen: set[tuple[int, ...]] = set()
    for query in queries:
        for plan in database.plan_hint_sets(query, hint_sets):
            encoded = tuple(codec.encode_padded(plan, query, max_length))
            if encoded not in seen:
                seen.add(encoded)
                rows.append(list(encoded))
    return PlanCorpus(
        sequences=np.asarray(rows, dtype=np.int64),
        max_length=max_length,
        vocabulary=vocabulary,
    )
