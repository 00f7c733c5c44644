"""Hint sets: the coarse-grained plan steering used by Bao and by BayesQO's initializer.

A hint set switches planner features on or off — exactly the
``enable_hashjoin`` / ``enable_nestloop`` / ``enable_seqscan`` style knobs Bao
toggles on PostgreSQL.  Our default optimizer honours them by restricting the
operator choices available during plan search.

The paper's Bao baseline (and BayesQO's default initializer) exhausts **49**
hint sets: every combination of a non-empty subset of the three join operators
with a non-empty subset of the three scan methods (seq scan, index scan,
index-only scan), 7 x 7 = 49.  They are built once at import;
:func:`bao_hint_sets` hands out a fresh list of the same (immutable) objects.

The planner's cost model has one index-scan formula, so ``index`` and
``index_only`` are indistinguishable to it: a hint set matters to
``PlanOptimizer.plan_hint_sets`` only through its allowed join operators
(7 classes) and through ``(allows_index_scan, allows_seq_scan)`` (3 classes),
which makes 21 effective classes out of the 49.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from typing import Iterable

from repro.exceptions import PlanError
from repro.plans.jointree import JOIN_OPS, JoinOp

#: Scan methods that a hint set can enable or disable.
SCAN_METHODS = ("seq", "index", "index_only")


@dataclass(frozen=True)
class HintSet:
    """A set of enabled join operators and scan methods.

    The default hint set enables everything (equivalent to no hints).
    """

    join_ops: frozenset[JoinOp] = frozenset(JOIN_OPS)
    scan_methods: frozenset[str] = frozenset(SCAN_METHODS)

    def __post_init__(self) -> None:
        if not self.join_ops:
            raise PlanError("a hint set must enable at least one join operator")
        if not self.scan_methods:
            raise PlanError("a hint set must enable at least one scan method")
        unknown = set(self.scan_methods) - set(SCAN_METHODS)
        if unknown:
            raise PlanError(f"unknown scan methods in hint set: {sorted(unknown)}")

    # ------------------------------------------------------------------ queries
    def allows_join(self, op: JoinOp) -> bool:
        return op in self.join_ops

    def allows_index_scan(self) -> bool:
        return "index" in self.scan_methods or "index_only" in self.scan_methods

    def allows_seq_scan(self) -> bool:
        return "seq" in self.scan_methods

    @property
    def name(self) -> str:
        joins = "+".join(sorted(op.value for op in self.join_ops))
        scans = "+".join(sorted(self.scan_methods))
        return f"joins[{joins}]/scans[{scans}]"

    def __str__(self) -> str:
        return self.name


#: The hint set with every feature enabled (PostgreSQL defaults).
DEFAULT_HINT_SET = HintSet()


def _non_empty_subsets(items: Iterable) -> list[frozenset]:
    items = list(items)
    subsets = chain.from_iterable(combinations(items, r) for r in range(1, len(items) + 1))
    return [frozenset(subset) for subset in subsets]


#: Built once at import; hint sets are immutable, so every caller shares them.
_BAO_HINT_SETS: tuple[HintSet, ...] = tuple(
    sorted(
        (
            HintSet(join_ops=joins, scan_methods=scans)
            for joins in _non_empty_subsets(JOIN_OPS)
            for scans in _non_empty_subsets(SCAN_METHODS)
        ),
        key=lambda hs: (-len(hs.join_ops), -len(hs.scan_methods), hs.name),
    )
)


def bao_hint_sets() -> list[HintSet]:
    """The 49 hint sets used by Bao and by BayesQO's default initializer.

    The full hint set (everything enabled) is first, matching the convention
    that index 0 is the unhinted default plan.
    """
    return list(_BAO_HINT_SETS)


def hint_set_by_name(name: str) -> HintSet:
    """Look up one of the Bao hint sets by its :attr:`HintSet.name`."""
    for hint_set in _BAO_HINT_SETS:
        if hint_set.name == name:
            return hint_set
    raise PlanError(f"unknown hint set {name!r}")
