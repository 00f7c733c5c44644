"""Reference join kernels: the executor's first sort-merge match, kept verbatim.

``match_counts`` sorts the build keys (a stable ``argsort``) and finds each
probe key's run with two ``searchsorted`` passes; ``expand_matches`` writes the
(left index, right index) pairs with ``np.repeat``.  The production kernels in
``repro.db.kernels`` count instead of sorting and expand late, and must
reproduce these arrays exactly — same pairs, same order (left-major, within
one left row by the right row's original position).

``filtered_pairs`` is the executor's former multi-predicate join: expand the
sort-merge pairs of the first predicate, gather every predicate's values pair
by pair and keep the pairs where all of them are ``==``
(``fused_equality_filter``).  ``repro.db.kernels.match_all`` must keep the
same pairs in the same order without expanding them.  This module imports
nothing from ``repro``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_EMPTY = np.array([], dtype=np.int64)


@dataclass
class MatchCounts:
    """Per-left-row match ranges against the sorted right keys (pre-materialization).

    ``order`` is the stable argsort of the right keys, ``lo``/``counts`` the
    start offset and length of each left row's run inside the sorted keys.
    """

    order: np.ndarray
    lo: np.ndarray
    counts: np.ndarray
    total: int
    num_left: int


def match_counts(left_keys: np.ndarray, right_keys: np.ndarray) -> MatchCounts:
    """Sort-merge match: how many right rows match each left row (no materialization)."""
    if len(left_keys) == 0 or len(right_keys) == 0:
        return MatchCounts(order=_EMPTY, lo=_EMPTY,
                           counts=np.zeros(len(left_keys), dtype=np.int64),
                           total=0, num_left=len(left_keys))
    order = np.argsort(right_keys, kind="stable")
    sorted_keys = right_keys[order]
    lo = np.searchsorted(sorted_keys, left_keys, side="left")
    hi = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    return MatchCounts(order=order, lo=lo, counts=counts, total=int(counts.sum()),
                       num_left=len(left_keys))


def expand_matches(match: MatchCounts) -> tuple[np.ndarray, np.ndarray]:
    """Materialize the matching (left index, right index) pairs."""
    if match.total == 0:
        return _EMPTY, _EMPTY
    left_idx = np.repeat(np.arange(match.num_left), match.counts)
    starts = np.repeat(match.lo, match.counts)
    offsets = np.arange(match.total) - np.repeat(
        np.cumsum(match.counts) - match.counts, match.counts
    )
    right_idx = match.order[starts + offsets]
    return left_idx, right_idx


def sort_merge_pairs(left_keys: np.ndarray, right_keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(left index, right index) of every equal-key pair, in sort-merge order."""
    return expand_matches(match_counts(left_keys, right_keys))


def fused_equality_filter(
    pairs: list[tuple[np.ndarray, np.ndarray]],
) -> np.ndarray | None:
    """AND the equality masks of every (left values, right values) pair.

    One fused boolean reduction over the full matched set — equivalent to
    filtering predicate by predicate because equality tests are independent
    and boolean masking preserves order.  Returns ``None`` for no pairs.
    """
    keep: np.ndarray | None = None
    for left_values, right_values in pairs:
        mask = left_values == right_values
        keep = mask if keep is None else keep & mask
    return keep


def filtered_pairs(
    left_columns: dict, right_columns: dict, predicates: list[tuple],
) -> tuple[np.ndarray, np.ndarray]:
    """(left index, right index) of the pairs where every ``(left, right)`` column pair is ``==``.

    Sort-merge on the first predicate, then the fused filter over *every*
    predicate: a sort-merge puts NaN keys in one run, so the first
    predicate's own ``==`` is what drops the NaN = NaN pairs.
    """
    (first_left, first_right), *_ = predicates
    left_idx, right_idx = sort_merge_pairs(left_columns[first_left], right_columns[first_right])
    keep = fused_equality_filter([
        (left_columns[left][left_idx], right_columns[right][right_idx])
        for left, right in predicates
    ])
    return left_idx[keep], right_idx[keep]
