"""Reference join kernels: the executor's first sort-merge match, kept verbatim.

``match_counts`` sorts the build keys (a stable ``argsort``) and finds each
probe key's run with two ``searchsorted`` passes; ``expand_matches`` writes the
(left index, right index) pairs with ``np.repeat``.  The production kernels in
``repro.db.kernels`` count instead of sorting and expand late, and must
reproduce these arrays exactly — same pairs, same order (left-major, within
one left row by the right row's original position).  This module imports
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
