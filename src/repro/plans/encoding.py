"""The plan string language: encoding join trees to token sequences and back.

This implements Section 4.1 of the paper.  The two properties the language
guarantees are:

* **Completeness** — every join tree over the query's aliases has at least one
  encoding (``encode`` produces a canonical one), and
* **Decoding validity** — *every* token sequence decodes to a valid join tree
  for the query.  Invalid symbols are repaired deterministically by indexing
  into the list of currently-valid symbols with the invalid symbol's integer
  value; truncated sequences are completed deterministically.

The language is intentionally not injective: multiple strings may decode to
the same plan (the paper accepts this trade-off, following SELFIES).

Decoding is key first.  :class:`DecodeTables`, built once per (vocabulary,
query aliases), turns the repair rule into table lookups over plain ints; its
:meth:`~DecodeTables.walk` returns the plan's canonical key
(:meth:`JoinTree.canonical`) and the list of merges that build it, without
creating a single ``JoinTree``.  The BO loop decodes many latents per plan it
proposes and only needs the keys of the ones it rejects; the tree of a plan
that leaves the decoder is built from its merges by
:meth:`~DecodeTables.build`, through :meth:`JoinTree.join` and its validation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.db.query import Query
from repro.exceptions import EncodingError
from repro.plans.jointree import JoinOp, JoinTree
from repro.plans.vocabulary import PlanVocabulary


def sequence_length(num_tables: int) -> int:
    """Number of tokens encoding a full plan over ``num_tables`` tables."""
    return max(3 * (num_tables - 1), 0)


@dataclass
class PlanCodec:
    """Encoder/decoder between join trees and token-id sequences.

    Parameters
    ----------
    vocabulary:
        The schema-wide token table.
    """

    vocabulary: PlanVocabulary

    def __getstate__(self):
        # The decode tables are rebuilt on demand; pickles (schema models in
        # checkpoints and plan stores) keep the layout of the bare codec.
        state = self.__dict__.copy()
        state.pop("_tables", None)
        return state

    # ------------------------------------------------------------------ encoding
    def encode(self, plan: JoinTree, query: Query) -> list[int]:
        """Canonical token encoding of ``plan``.

        Each join node contributes a ``(left, right, operator)`` triple in
        post-order.  A subtree is referenced by the alias symbol of its
        first (leftmost) leaf, exactly as the paper describes: the first
        occurrence of an alias denotes the base table, later occurrences
        denote the largest subtree containing it.
        """
        plan.validate_for_query(query)
        tokens: list[int] = []
        for node in plan.join_nodes():
            left_leaves = node.left.leaf_aliases()  # type: ignore[union-attr]
            right_leaves = node.right.leaf_aliases()  # type: ignore[union-attr]
            tokens.append(self.vocabulary.alias_id(left_leaves[0]))
            tokens.append(self.vocabulary.alias_id(right_leaves[0]))
            tokens.append(self.vocabulary.op_id(node.op))  # type: ignore[arg-type]
        return tokens

    def encode_padded(self, plan: JoinTree, query: Query, length: int) -> list[int]:
        """Encoding padded (or refused if too long) to exactly ``length`` tokens."""
        tokens = self.encode(plan, query)
        if len(tokens) > length:
            raise EncodingError(
                f"plan needs {len(tokens)} tokens but the padded length is {length}"
            )
        return tokens + [self.vocabulary.pad_id] * (length - len(tokens))

    # ------------------------------------------------------------------ decoding
    def tables(self, query: Query) -> DecodeTables:
        """The decode tables of ``query``'s aliases (built once per alias tuple)."""
        aliases = tuple(query.aliases)
        cache = self.__dict__.setdefault("_tables", {})
        tables = cache.get(aliases)
        if tables is None:
            if not aliases:
                raise EncodingError(f"query {query.name!r} has no tables to plan")
            tables = cache[aliases] = DecodeTables(self.vocabulary, aliases)
        return tables

    def decode(self, tokens: Sequence[int], query: Query) -> JoinTree:
        """Decode any token sequence into a valid join tree for ``query``.

        The key-first walk (:meth:`DecodeTables.walk`) repairs every invalid
        symbol and completes a truncated sequence; the tree is then built
        from its merge list through :meth:`JoinTree.join`, which validates
        every join.
        """
        tables = self.tables(query)
        return tables.build(tables.walk(tokens)[1])

    def round_trip(self, plan: JoinTree, query: Query) -> JoinTree:
        """Encode then decode a plan (identity for canonical encodings)."""
        return self.decode(self.encode(plan, query), query)

    def render(self, tokens: list[int]) -> str:
        """Human-readable rendering of a token sequence."""
        return " ".join(self.vocabulary.token_of(token) for token in tokens)


#: One step of a decode: (left component, right component, operator).  A
#: component is named by the query-order index of the alias it started from;
#: a merge keeps the left component's name.
Merge = tuple[int, int, JoinOp]


class DecodeTables:
    """Lookup tables of the key-first decode of one query's plan strings.

    Alias ``i`` is ``aliases[i]`` (query order), and so is component ``i``
    before any merge.  ``ranked`` lists the alias indices in vocabulary-id
    order: the valid left symbols, in the order the repair rule indexes them.
    """

    __slots__ = ("aliases", "leaves", "index_of", "ranked", "op_of", "ops")

    def __init__(self, vocabulary: PlanVocabulary, aliases: Sequence[str]) -> None:
        ids = vocabulary.alias_ids(aliases)
        self.aliases = tuple(aliases)
        self.leaves = tuple(JoinTree.leaf(alias) for alias in aliases)
        self.index_of = {token: index for index, token in enumerate(ids)}
        self.ranked = tuple(sorted(range(len(ids)), key=ids.__getitem__))
        #: Operator token -> (operator, its rendering in a canonical key);
        #: ``ops`` holds the same pairs in token-id order.
        self.op_of = {
            token: (vocabulary.op_of(token), vocabulary.op_of(token).symbol)
            for token in sorted(vocabulary.op_ids)
        }
        self.ops = tuple(self.op_of.values())

    def walk(self, tokens: Sequence[int]) -> tuple[str, tuple[Merge, ...]]:
        """The canonical key and merge list of the plan ``tokens`` decode to.

        Each ``(left, right, operator)`` triple merges two components.  A
        symbol that is valid where it stands is kept; any other becomes
        ``valid[token % len(valid)]``, where the valid left symbols are all
        the query's alias ids, the valid right ones those outside the left
        symbol's component and the valid operators the operator ids, each
        sorted.  A sequence that ends before the plan is complete is finished
        by hash joins of the lowest-numbered component with each other one,
        in order.
        """
        keys = list(self.aliases)
        if len(keys) == 1:
            return keys[0], ()
        index_of, ranked, op_of, ops = self.index_of, self.ranked, self.op_of, self.ops
        label = list(range(len(keys)))
        members = [[index] for index in label]
        merges: list[Merge] = []
        joins_left = len(keys) - 1

        def merge(left: int, right: int, op: JoinOp, symbol: str) -> None:
            keys[left] = f"({keys[left]} {symbol} {keys[right]})"
            moved = members[right]
            members[left] += moved
            for index in moved:
                label[index] = left
            merges.append((left, right, op))

        position, end = 0, len(tokens) - 2
        while joins_left and position < end:
            index = index_of.get(tokens[position])
            if index is None:
                index = ranked[tokens[position] % len(ranked)]
            left = label[index]
            index = index_of.get(tokens[position + 1])
            if index is None or label[index] == left:
                valid = [other for other in ranked if label[other] != left]
                index = valid[tokens[position + 1] % len(valid)]
            op, symbol = op_of.get(tokens[position + 2]) or ops[tokens[position + 2] % len(ops)]
            merge(left, label[index], op, symbol)
            position += 3
            joins_left -= 1
        if joins_left:
            first, *rest = sorted(set(label))
            for right in rest:
                merge(first, right, JoinOp.HASH, JoinOp.HASH.symbol)
        return keys[merges[-1][0]], tuple(merges)

    def build(self, merges: Sequence[Merge]) -> JoinTree:
        """The join tree a merge list of :meth:`walk` describes."""
        trees = list(self.leaves)
        root = 0
        for left, right, op in merges:
            trees[left] = JoinTree.join(trees[left], trees[right], op)
            root = left
        return trees[root]
