"""Reference plan decoder: the component-forest walk over ``JoinTree`` objects.

This is the decoder as it stood before the table-driven key-first walk of
``repro.plans.encoding``: it keeps a dict of component trees, re-sorts the
valid-symbol list at every triple, builds (and so validates) a ``JoinTree``
at every merge and only then renders a key.  ``_DecodeState`` and the body of
``reference_decode`` (the old ``PlanCodec.decode``) are kept verbatim as the
oracle the production decoder is checked against tree for tree; they share
only ``JoinTree`` and the vocabulary with production code.
"""

from __future__ import annotations

from repro.db.query import Query
from repro.exceptions import EncodingError
from repro.plans.jointree import JoinOp, JoinTree
from repro.plans.vocabulary import PlanVocabulary


def reference_decode(vocabulary: PlanVocabulary, tokens: list[int], query: Query) -> JoinTree:
    """Decode any token sequence into a valid join tree for ``query``.

    The decoder maintains the forest of partially-built components and
    repairs every invalid symbol by indexing into the list of valid
    symbols at that position.  If the sequence ends before the tree is
    complete, the remaining components are joined deterministically with
    hash joins.
    """
    aliases = query.aliases
    if not aliases:
        raise EncodingError(f"query {query.name!r} has no tables to plan")
    if len(aliases) == 1:
        return JoinTree.leaf(aliases[0])
    state = _DecodeState(query, vocabulary)
    position = 0
    while state.num_components > 1 and position + 3 <= len(tokens):
        state.apply_triple(tokens[position : position + 3])
        position += 3
    state.complete()
    return state.result()


class _DecodeState:
    """Forest of components built while decoding one plan string."""

    def __init__(self, query: Query, vocabulary: PlanVocabulary) -> None:
        self.query = query
        self.vocabulary = vocabulary
        # Component id -> current subtree; alias -> component id.
        self.components: dict[int, JoinTree] = {}
        self.component_of: dict[str, int] = {}
        for i, alias in enumerate(query.aliases):
            self.components[i] = JoinTree.leaf(alias)
            self.component_of[alias] = i

    # ------------------------------------------------------------------ component bookkeeping
    @property
    def num_components(self) -> int:
        return len(self.components)

    def _valid_alias_ids(self, exclude_component: int | None = None) -> list[int]:
        """Alias token ids valid at this point, sorted for determinism."""
        valid = []
        for alias, component in self.component_of.items():
            if exclude_component is not None and component == exclude_component:
                continue
            valid.append(self.vocabulary.alias_id(alias))
        return sorted(valid)

    def _repair(self, token: int, valid: list[int]) -> int:
        if token in valid:
            return token
        if not valid:
            raise EncodingError("no valid symbols available during decoding")
        return valid[token % len(valid)]

    # ------------------------------------------------------------------ decoding steps
    def apply_triple(self, triple: list[int]) -> None:
        left_token, right_token, op_token_id = triple
        left_valid = self._valid_alias_ids()
        left_token = self._repair(left_token, left_valid)
        left_alias = self.vocabulary.token_of(left_token)
        left_component = self.component_of[left_alias]

        right_valid = self._valid_alias_ids(exclude_component=left_component)
        right_token = self._repair(right_token, right_valid)
        right_alias = self.vocabulary.token_of(right_token)
        right_component = self.component_of[right_alias]

        op_token_id = self._repair(op_token_id, sorted(self.vocabulary.op_ids))
        op = self.vocabulary.op_of(op_token_id)
        self._merge(left_component, right_component, op)

    def _merge(self, left_component: int, right_component: int, op: JoinOp) -> None:
        left_tree = self.components.pop(left_component)
        right_tree = self.components.pop(right_component)
        merged = JoinTree.join(left_tree, right_tree, op)
        self.components[left_component] = merged
        for alias in merged.leaf_aliases():
            self.component_of[alias] = left_component

    def complete(self) -> None:
        """Join any remaining components deterministically (hash joins, id order)."""
        while self.num_components > 1:
            ordered = sorted(self.components)
            self._merge(ordered[0], ordered[1], JoinOp.HASH)

    def result(self) -> JoinTree:
        if self.num_components != 1:
            raise EncodingError("decoding finished with more than one component")
        return next(iter(self.components.values()))
