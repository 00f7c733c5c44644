"""Pure columnar operators for the executor hot path.

Everything in this module is a function (or an index structure) over numpy
arrays: no executor state, no charge accounting, no cache access. The
executor composes these kernels into join execution; the split exists so the
kernels can be property-tested for exact equivalence against the reference
sort-merge in ``tests/oracles/reference_kernels.py`` (see
``tests/test_kernels_batch.py``).

Determinism contract
--------------------
Every kernel here produces **bit-for-bit the same match pairs in the same
order** as a sort-merge join — a stable argsort of the right keys, two
``searchsorted`` passes and a repeat-based expansion, the executor's first
join path, kept verbatim in ``tests/oracles/reference_kernels.py``:

* match pairs are ordered by left row, and within one left row by the
  *original* position of the right row: the stable argsort of the right
  keys.  A stable permutation is unique — a function of the order of the
  keys alone, not of who sorts, when, or in which dtype — so a
  :class:`JoinIndex` may count its keys instead of sorting them, sort
  ``key - key_min`` in a narrower dtype, and sort only when a right index is
  read: the ``order`` it then holds is the sort-merge's;
* the probe (:func:`probe_join_index`) looks up per-key run lengths and
  starts (``bincount`` and its cumulative sum: what two ``searchsorted`` over
  the sorted keys give), so its expansion is identical;
* the fused residual filter ANDs per-predicate equality masks — boolean
  masking preserves order and equality tests are independent, so fusing is
  indistinguishable from filtering predicate by predicate.
* a :class:`PairSet` expanded late yields the same index arrays and gathers
  as one expanded at once — *when* a pair array is written is not observable.

Because the executor's simulated charges depend only on match *counts*
(which are order-independent and known before any expansion or sort) and the
pair ordering is preserved anyway, swapping one kernel for another — or
reading a pair set late, or never — can never change a latency, a censoring
decision or a charge-event stream.

Written after construction, by their first read: a :class:`PairSet`'s right
index and a :class:`JoinIndex`'s ``order`` / ``sorted_keys``.  Both are private
to one join, except a scanned build side's index (``Relation._index_cache``),
where two threads may both sort: the relation caches' benign race.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "MatchCounts",
    "JoinIndex",
    "PairSet",
    "expand_pairs",
    "build_join_index",
    "probe_join_index",
    "fused_equality_filter",
    "predicate_key",
]

#: A :class:`JoinIndex` counts instead of sorting when the key domain
#: (max - min + 1) fits under ``max(this, 4 * num_keys)``.  The floor bounds
#: what the tables cost a tiny build side (~15 us): a per-join index is not
#: amortized, and 10 rows over a 60 000-wide domain are sorted in 2 us.
DENSE_DOMAIN_FLOOR = 4096

_EMPTY = np.array([], dtype=np.int64)


@dataclass
class MatchCounts:
    """Per-left-row match ranges against a :class:`JoinIndex` (pre-materialization).

    ``lo``/``counts`` are the start offset and length of each left row's run
    inside ``index.order`` (the build keys' stable sort, unsorted until read).
    ``lo`` is only meaningful where ``counts > 0`` — zero-count rows may carry
    an arbitrary offset (the direct-address probe leaves 0 where a binary
    search leaves an insertion point); no expansion reads them.
    """

    index: "JoinIndex"
    lo: np.ndarray
    counts: np.ndarray
    total: int
    num_left: int


@dataclass
class PairSet:
    """The matched row pairs of one join, in sort-merge order (left-major).

    ``count`` comes from the match counts alone; index arrays are written
    only when something reads them (late materialization), so a join whose
    output nobody gathers from allocates nothing.  The left side may stay
    *factorized* — matching left rows plus per-row match counts — so gathers
    run as a sequential ``np.repeat`` over the gathered row values rather
    than a random fancy-index through an index array.

    Exactly one representation is active per side.  Left:

    * ``left_idx is not None`` — materialized (after residual filtering, and
      for an empty match);
    * ``left_all`` — every left row matched exactly once, in order: the left
      index is the identity, gathers return the input array *unsliced*
      (safe: the executor never mutates position arrays);
    * ``cross`` — a predicate-free ``(n_left, n_right)`` product: every left
      row repeats ``n_right`` times, the right side is tiled ``n_left`` times;
    * otherwise ``left_rows`` (+ ``run_counts`` when rows match more than
      once) hold the factorized form.

    Right: unexpanded (``match`` or ``cross`` is kept and :attr:`right_idx`
    computed from it on first read) or materialized.  That read writes to the
    pair set, so a pair set is private to the execution that built it.

    ``gather_left``/``gather_right`` produce bit-for-bit the arrays
    ``values[left_idx]``/``values[right_idx]`` of the sort-merge expansion,
    whether or not ``right_idx`` was read first.
    """

    count: int
    left_idx: np.ndarray | None = None
    _right_idx: np.ndarray | None = None
    left_rows: np.ndarray | None = None
    run_counts: np.ndarray | None = None
    left_all: bool = False
    match: MatchCounts | None = None
    cross: tuple[int, int] | None = None

    def gather_left(self, values: np.ndarray) -> np.ndarray:
        if self.left_idx is not None:
            return values[self.left_idx]
        if self.left_all:
            return values
        if self.cross is not None:
            return np.repeat(values, self.cross[1])
        if self.run_counts is None:
            return values[self.left_rows]
        return np.repeat(values[self.left_rows], self.run_counts)

    def gather_right(self, values: np.ndarray) -> np.ndarray:
        if self.cross is not None:
            return np.tile(values, self.cross[0])
        return values[self.right_idx]

    def left_indices(self) -> np.ndarray:
        """Materialize the left index array (identical to the sort-merge's)."""
        if self.left_idx is not None:
            return self.left_idx
        if self.left_all:
            return np.arange(self.count)
        if self.cross is not None:
            return np.repeat(np.arange(self.cross[0]), self.cross[1])
        if self.run_counts is None:
            return self.left_rows
        return np.repeat(self.left_rows, self.run_counts)

    @property
    def right_idx(self) -> np.ndarray:
        """The right index array (identical to the sort-merge's), built on first read."""
        if self._right_idx is None:
            self._right_idx = self._expand_right()
        return self._right_idx

    def _expand_right(self) -> np.ndarray:
        if self.cross is not None:
            return np.tile(np.arange(self.cross[1]), self.cross[0])
        match = self.match
        order = match.index.order
        if self.left_all:
            # Every probe row matched exactly once: no gather of lo needed.
            return order[match.lo]
        lo = match.lo[self.left_rows]
        if self.run_counts is None:
            return order[lo]
        # Run concatenation: the sorted-side positions are the runs
        # [lo_i, lo_i + counts_i) back to back, i.e. one cumulative sum over
        # unit steps with a per-run jump scattered at each run start.
        run_counts = self.run_counts
        run_starts = np.cumsum(run_counts) - run_counts
        steps = np.ones(self.count, dtype=np.int64)
        steps[0] = lo[0]
        if len(lo) > 1:
            # Jump from the last position of run i-1 (lo[i-1] + counts[i-1] - 1)
            # to the first of run i (lo[i]).
            steps[run_starts[1:]] = lo[1:] - (lo[:-1] + run_counts[:-1]) + 1
        return order[np.cumsum(steps)]


def expand_pairs(match: MatchCounts) -> PairSet:
    """Factorized pair expansion: pick each side's shape, write no pair array.

    Three shapes replace the sort-merge's three ``np.repeat`` + two
    ``np.arange`` passes, all in the exact sort-merge ordering (pairs grouped
    by left row, within one left row by the build row's original position):
    **identity** (every probe row matched exactly once), **unique-match** (no
    probe row matches more than one build row — every FK -> PK join: the
    nonzero-count rows plus one gather, no repeats, no cumsum) and **run
    concatenation** (see :meth:`PairSet._expand_right`).  Only the O(left
    rows) shape test runs here.
    """
    if match.total == 0:
        return PairSet(0, _EMPTY, _EMPTY)
    counts = match.counts
    unique = int(counts.max()) <= 1
    if unique and match.total == match.num_left:
        return PairSet(match.total, left_all=True, match=match)
    left_rows = np.nonzero(counts)[0]
    run_counts = None if unique else counts[left_rows]
    return PairSet(match.total, left_rows=left_rows, run_counts=run_counts, match=match)


@dataclass
class JoinIndex:
    """A factorized build side: count once, probe many times, sort on demand.

    For integer keys over a dense domain (:data:`DENSE_DOMAIN_FLOOR`) it is a
    direct-address table — ``counts_table``/``starts_table`` indexed by
    ``key - key_min + 1``, one ``bincount`` and its cumulative sum — so probes
    are O(1) lookups: the vectorized analogue of a hash join whose hash is the
    identity.  Slot 0 and the last slot are zero-count sentinels: a probe clips
    out-of-domain keys onto them.  Other keys (floats, a sparse domain, a float
    probe) binary-search ``sorted_keys``.  ``order``, which the offsets index,
    is sorted by its first read: a join that only counts (a root join, a
    censored parent) never sorts.
    """

    keys: np.ndarray
    key_min: int = 0
    starts_table: np.ndarray | None = None
    counts_table: np.ndarray | None = None

    @property
    def num_keys(self) -> int:
        return len(self.keys)

    @cached_property
    def order(self) -> np.ndarray:
        keys = self.keys
        if self.counts_table is not None:
            # Same permutation from keys narrowed to hold domain - 1: <= 16 bits radix-sort.
            keys = (keys - self.key_min).astype(np.min_scalar_type(len(self.counts_table) - 3))
        return np.argsort(keys, kind="stable")

    @cached_property
    def sorted_keys(self) -> np.ndarray:
        return self.keys[self.order]


def build_join_index(keys: np.ndarray) -> JoinIndex:
    """Factorize ``keys`` for probing (pair order: see the module docstring)."""
    index = JoinIndex(keys)
    if len(keys) and np.issubdtype(keys.dtype, np.integer):
        key_min = int(keys.min())
        domain = int(keys.max()) - key_min + 1
        if domain <= max(DENSE_DOMAIN_FLOOR, 4 * len(keys)):
            index.key_min = key_min
            index.counts_table = np.bincount(keys - (key_min - 1), minlength=domain + 2)
            index.starts_table = np.cumsum(index.counts_table) - index.counts_table
    return index


def probe_join_index(index: JoinIndex, left_keys: np.ndarray) -> MatchCounts:
    """Match ``left_keys`` against a factorized build side.

    Returns what a sort-merge of ``left_keys`` against the keys the index was
    built from computes — same ``counts``, same expansion, the same ``order``
    once read — without sorting (with a direct-address table) or without
    sorting again (without one).
    """
    if len(left_keys) == 0 or index.num_keys == 0:
        return MatchCounts(index, lo=_EMPTY, counts=np.zeros(len(left_keys), dtype=np.int64),
                           total=0, num_left=len(left_keys))
    if index.counts_table is not None and np.issubdtype(left_keys.dtype, np.integer):
        slots = left_keys - (index.key_min - 1)
        counts = index.counts_table.take(slots, mode="clip")
        lo = index.starts_table.take(slots, mode="clip")
    else:
        lo = np.searchsorted(index.sorted_keys, left_keys, side="left")
        hi = np.searchsorted(index.sorted_keys, left_keys, side="right")
        counts = hi - lo
    return MatchCounts(index, lo=lo, counts=counts, total=int(counts.sum()),
                       num_left=len(left_keys))


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


def predicate_key(column: str, op: str, value) -> tuple:
    """A hashable cache key for one ``(column, op, value)`` filter predicate.

    Values are hashed directly when possible; containers and arrays fall
    back to a content repr (the same convention
    :func:`~repro.db.plan_cache.query_fingerprint` uses).  A key collision
    would only cost a wrong *cached bitmap*, so reprs are built from the
    full contents, never truncated.
    """
    if isinstance(value, np.ndarray):
        return (column, op, "nd", value.dtype.str, value.tobytes())
    if isinstance(value, (list, tuple, set, frozenset)):
        return (column, op, "seq", repr(sorted(map(repr, value))))
    try:
        hash(value)
    except TypeError:
        return (column, op, "repr", repr(value))
    return (column, op, value)
