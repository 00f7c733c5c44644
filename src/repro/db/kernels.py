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
* a join on several predicates (:func:`match_all`) keeps a sort-merge's pairs
  on the first predicate that pass the others, in order: filtered rows map
  back monotonically, a composite key sorts stably by digit, last one first;
* a :class:`PairSet` expanded late yields the same index arrays and gathers
  as one expanded at once — *when* a pair array is written is not observable;
  a gather through the sorted build side (``values[order][pos]`` or
  ``values[order[pos]]``) reads the elements ``values[order[pos]]`` names,
  so either route is ``values[right_idx]`` bit for bit;
* a counted index (:func:`count_join_index`) is :func:`build_join_index`'s
  over the gathered keys, field by field: the gathered array holds each
  source key as often as its row occurs in the pair set
  (:meth:`PairSet.multiplicities`), so a weighted ``bincount`` over the
  source rows gives its tables, and its keys, ``order`` and ``sorted_keys``
  are the gathered ones once read.

Because the executor's simulated charges depend only on match *counts*
(which are order-independent and known before any expansion or sort) and the
pair ordering is preserved anyway, swapping one kernel for another — or
reading a pair set late, or never — can never change a latency, a censoring
decision or a charge-event stream.

Written after construction, by their first read: a :class:`PairSet`'s sorted
positions (and right index), a :class:`JoinIndex`'s ``order`` /
``sorted_keys`` and a :class:`DeferredJoinIndex`'s keys.  Two threads may
both write one — a scanned build side's index (``Relation._index_cache``), or
the pair set of a join output the subplan memo keeps deferred — and both
write equal arrays: the relation caches' benign race.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

__all__ = [
    "MatchCounts",
    "JoinIndex",
    "PairSet",
    "expand_pairs",
    "build_join_index",
    "count_join_index",
    "DeferredJoinIndex",
    "probe_join_index",
    "match_all",
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

    * ``left_idx is not None`` — materialized (an empty match);
    * ``left_all`` — every left row matched exactly once, in order: the left
      index is the identity, gathers return the input array *unsliced*
      (safe: the executor never mutates position arrays);
    * ``cross`` — a predicate-free ``(n_left, n_right)`` product: every left
      row repeats ``n_right`` times, the right side is tiled ``n_left`` times;
    * otherwise ``left_rows`` (+ ``run_counts`` when rows match more than
      once) hold the factorized form.

    Right: ``match`` (or ``cross``) is kept, and every pair's position in the
    sorted build side (:attr:`sorted_pos`) is written on the first gather,
    to the pair set (shared, when the subplan memo keeps the join output
    deferred: see the module docstring).  A gather reads through the build
    side's sort order, never through a materialized right index.

    ``gather_left``/``gather_right`` produce bit-for-bit the arrays
    ``values[left_idx]``/``values[right_idx]`` of the sort-merge expansion,
    whether or not ``right_idx`` was read first.
    """

    count: int
    left_idx: np.ndarray | None = None
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
        if self.match is None:  # an empty match
            return values[_EMPTY]
        index = self.match.index
        if self.count > index.num_keys:
            # More pairs than build rows: reorder the build side once, then
            # read it at the (run-ordered, mostly ascending) sorted positions.
            if index.rows is not None:
                values = values[index.rows]
            return values[index.order][self.sorted_pos]
        # A small probe into a large build side stays O(pairs).
        return values[self._build_rows()]

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

    @cached_property
    def right_idx(self) -> np.ndarray:
        """The right index array (identical to the sort-merge's), built on first read.

        The executor gathers without it; tests and oracles read it.
        """
        if self.cross is not None:
            return np.tile(np.arange(self.cross[1]), self.cross[0])
        if self.match is None:
            return _EMPTY
        return self._build_rows()

    def _build_rows(self) -> np.ndarray:
        """Each pair's build row, read off the sorted build side."""
        index = self.match.index
        rows = index.order[self.sorted_pos]
        return rows if index.rows is None else index.rows[rows]

    def multiplicities(self, left: bool):
        """How often each source row of one side occurs in the pair set.

        ``(rows, weights)``: the rows of the side's input that occur (``None``:
        every row) and how often each does (an array, or one ``int`` for all),
        so ``gather_left``/``gather_right`` of any ``values`` holds
        ``values[rows]`` repeated ``weights`` times, in some order.  Left: the
        probe row's match count.  Right: the number of probe rows that share
        the build row's key, read off the match's run starts (every row of
        one key shares a run).  ``None`` for an empty pair set, and where it
        is not known without sorting: a build side without a counting table.
        """
        if self.count == 0:
            return None
        if self.cross is not None:
            return None, self.cross[1] if left else self.cross[0]
        if left:
            if self.left_all:
                return None, 1
            return self.left_rows, 1 if self.run_counts is None else self.run_counts
        index = self.match.index
        if index.counts_table is None:
            return None
        lo = self.match.lo if self.left_all else self.match.lo[self.left_rows]
        hits = np.bincount(lo, minlength=index.num_keys)  # probe rows per run start
        slots = index.keys.astype(np.int64, copy=False)
        if index.offset:
            slots = slots - index.offset
        weights = hits[index.starts_table[slots]]
        rows = np.flatnonzero(weights)
        return rows if index.rows is None else index.rows[rows], weights[rows]

    @cached_property
    def sorted_pos(self) -> np.ndarray:
        """Each pair's position in the sorted build side, written on first read."""
        match = self.match
        if self.left_all:
            # Every probe row matched exactly once: its run start is the pair.
            return match.lo
        lo = match.lo[self.left_rows]
        if self.run_counts is None:
            return lo
        # Run concatenation: the sorted-side positions are the runs
        # [lo_i, lo_i + counts_i) back to back, i.e. one cumulative sum over
        # unit steps with a per-run jump scattered at each run start, summed
        # in place: the steps become the positions.
        run_counts = self.run_counts
        run_starts = np.cumsum(run_counts) - run_counts
        steps = np.ones(self.count, dtype=np.int64)
        steps[0] = lo[0]
        if len(lo) > 1:
            # Jump from the last position of run i-1 (lo[i-1] + counts[i-1] - 1)
            # to the first of run i (lo[i]).
            steps[run_starts[1:]] = lo[1:] - (lo[:-1] + run_counts[:-1]) + 1
        return np.cumsum(steps, out=steps)


def expand_pairs(match: MatchCounts) -> PairSet:
    """Factorized pair expansion: pick each side's shape, write no pair array.

    Three shapes replace the sort-merge's three ``np.repeat`` + two
    ``np.arange`` passes, all in the exact sort-merge ordering (pairs grouped
    by left row, within one left row by the build row's original position):
    **identity** (every probe row matched exactly once), **unique-match** (no
    probe row matches more than one build row — every FK -> PK join: the
    nonzero-count rows plus one gather, no repeats, no cumsum) and **run
    concatenation** (see :attr:`PairSet.sorted_pos`).  Only the O(left
    rows) shape test runs here.
    """
    if match.total == 0:
        return PairSet(0, left_idx=_EMPTY)
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
    ``key - offset``, one ``bincount`` and its cumulative sum — so probes are
    O(1) lookups: the vectorized analogue of a hash join whose hash is the
    identity.  Int64 keys with ``1 <= key_min <= domain`` are their own slots
    (``offset`` 0: no shifted copy of either side's keys); other keys are
    shifted onto slot 1 (``offset = key_min - 1``).  Slot 0, every slot below
    ``key_min`` and the last slot count zero: a probe clips out-of-domain keys
    onto the sentinels.  Other keys (floats, a sparse domain, a float probe)
    binary-search ``sorted_keys``.  ``order``, which the offsets index, is
    sorted by its first read: a join that only counts (a root join, a
    censored parent) never sorts.  ``rows`` maps filtered keys back to build
    rows (monotonically); a sparse composite key sorts by its ``digits``.
    """

    keys: np.ndarray
    key_min: int = 0
    #: ``key_max - key_min + 1`` of a counted index (0: not counted).
    domain: int = 0
    #: What a key minus this is its table slot (0: the key is its own slot).
    offset: int = 0
    starts_table: np.ndarray | None = None
    counts_table: np.ndarray | None = None
    rows: np.ndarray | None = None
    digits: list[np.ndarray] | None = None

    @property
    def num_keys(self) -> int:
        return len(self.keys)

    @cached_property
    def order(self) -> np.ndarray:
        digits = self.digits or [self.keys]
        if self.counts_table is not None:
            # Same permutation from keys narrowed to hold domain - 1: <= 16 bits radix-sort.
            narrow = np.min_scalar_type(self.domain - 1)
            digits = [(self.keys - self.key_min).astype(narrow)]
        # Stable passes, least significant digit first: the keys' stable order.
        order = np.argsort(digits[-1], kind="stable")
        for digit in reversed(digits[:-1]):
            order = order[np.argsort(digit[order], kind="stable")]
        return order

    @cached_property
    def sorted_keys(self) -> np.ndarray:
        return self.keys[self.order]


def _direct_addressable(keys: np.ndarray) -> bool:  # integers, offsets fit int64
    return keys.dtype.kind == "i" or (keys.dtype.kind == "u" and keys.dtype.itemsize < 8)


class DeferredJoinIndex(JoinIndex):
    """A counted :class:`JoinIndex` whose keys are not written yet.

    Made by :func:`count_join_index`: the tables are filled, ``num_keys`` is
    known, and ``keys`` (with ``order`` and ``sorted_keys`` after it) is
    ``gather(source_keys)``, written on first read.
    """

    def __init__(self, gather: Callable[[np.ndarray], np.ndarray], source_keys: np.ndarray,
                 num_keys: int) -> None:
        # Not the dataclass __init__: an instance ``keys`` would hide the property.
        self.key_min, self.domain, self.offset = 0, 0, 0
        self.starts_table = self.counts_table = self.rows = self.digits = None
        self.gather, self.source_keys, self._num_keys = gather, source_keys, num_keys

    @property
    def num_keys(self) -> int:
        return self._num_keys

    @cached_property
    def keys(self) -> np.ndarray:
        return self.gather(self.source_keys)


def _count_keys(index: JoinIndex, keys: np.ndarray, num_keys: int, weights=1) -> bool:
    """Fill ``index``'s counting table from ``keys``, each counted ``weights`` times.

    ``num_keys`` is the weights' sum, the length of the key array the table
    stands for.  ``False`` (nothing filled): no dense integer domain.
    """
    if not (len(keys) and _direct_addressable(keys)):
        return False
    key_min, key_max = int(keys.min()), int(keys.max())
    domain = key_max - key_min + 1
    if domain > max(DENSE_DOMAIN_FLOOR, 4 * num_keys) or key_min <= -(1 << 63):
        return False
    index.key_min, index.domain = key_min, domain
    if keys.dtype == np.int64 and 1 <= key_min <= domain:
        # Keyed by the key itself: a table at most twice the domain.
        slots, length = keys, key_max + 2
    else:
        index.offset = key_min - 1
        slots, length = keys.astype(np.int64, copy=False) - index.offset, domain + 2
    if isinstance(weights, np.ndarray):
        # Float sums of integers are exact below 2**53, far above any count here.
        counts = np.bincount(slots, weights, minlength=length).astype(np.int64)
    else:
        counts = np.bincount(slots, minlength=length)
        if weights != 1:
            counts *= weights
    index.counts_table = counts
    index.starts_table = np.cumsum(counts) - counts
    return True


def build_join_index(keys: np.ndarray, rows=None, digits=None) -> JoinIndex:
    """Factorize ``keys`` for probing (pair order: see the module docstring)."""
    index = JoinIndex(keys, rows=rows, digits=digits)
    _count_keys(index, keys, len(keys))
    return index


def count_join_index(
    pairs: PairSet, left: bool, source_keys: np.ndarray
) -> DeferredJoinIndex | None:
    """``build_join_index`` over one side of ``pairs`` gathered from ``source_keys``, ungathered.

    The source keys that occur in the gathered array, each weighted by how
    often it does (:meth:`PairSet.multiplicities`), in one ``bincount``: the
    ``key_min``, ``domain``, ``offset`` and tables of the gathered keys, bit
    for bit; the keys are gathered when something reads them.  ``None``
    where that is not known without sorting, or where ``build_join_index``
    would not count (float keys, a sparse domain): the caller gathers.
    """
    multiplicities = pairs.multiplicities(left)
    if multiplicities is None:
        return None
    rows, weights = multiplicities
    index = DeferredJoinIndex(pairs.gather_left if left else pairs.gather_right, source_keys,
                              pairs.count)
    keys = source_keys if rows is None else source_keys[rows]
    return index if _count_keys(index, keys, pairs.count, weights) else None


def probe_join_index(index: JoinIndex, left_keys: np.ndarray) -> MatchCounts:
    """Match ``left_keys`` against a factorized build side.

    Returns what a sort-merge of ``left_keys`` against the keys the index was
    built from computes — same ``counts``, same expansion, the same ``order``
    once read — without sorting (with a direct-address table) or without
    sorting again (without one).  NaN matches nothing, as under ``==``.
    """
    if len(left_keys) == 0 or index.num_keys == 0:
        return MatchCounts(index, lo=_EMPTY, counts=np.zeros(len(left_keys), dtype=np.int64),
                           total=0, num_left=len(left_keys))
    if index.counts_table is not None and _direct_addressable(left_keys):
        slots = left_keys.astype(np.int64, copy=False)
        if index.offset:
            slots = slots - index.offset
        counts = index.counts_table.take(slots, mode="clip")
        lo = index.starts_table.take(slots, mode="clip")
    else:
        lo = np.searchsorted(index.sorted_keys, left_keys, side="left")
        hi = np.searchsorted(index.sorted_keys, left_keys, side="right")
        counts = hi - lo
        counts[left_keys != left_keys] = 0  # NaN: a sorted float side holds a NaN run
    return MatchCounts(index, lo=lo, counts=counts, total=int(counts.sum()),
                       num_left=len(left_keys))


def match_all(left_columns: dict, right_columns: dict, predicates: list[tuple]) -> MatchCounts:
    """Match on every ``left_columns[l] == right_columns[r]`` of ``predicates`` at once.

    Predicates sharing a column form a class of equal columns (``L.a = R.x ∧
    L.a = R.y`` is ``L.a = R.x ∧ R.x = R.y``, under IEEE ``==`` too): its other
    columns filter their side's rows, and the classes' first columns form one
    composite key.  Left counts are scattered back, the index keeps the right
    selection: :func:`expand_pairs` stays as lazy as for one predicate.
    """
    classes: list[tuple[dict, dict]] = []  # ordered sets of each side's names
    for left_name, right_name in predicates:
        merged = ({left_name: None}, {right_name: None})
        for cls in [cls for cls in classes if left_name in cls[0] or right_name in cls[1]]:
            classes.remove(cls)
            merged[0].update(cls[0])
            merged[1].update(cls[1])
        classes.append(merged)
    left_rows, left_keys = _filter_rows(left_columns, [list(cls[0]) for cls in classes])
    right_rows, right_keys = _filter_rows(right_columns, [list(cls[1]) for cls in classes])
    left_keys, right_keys, digits = _composite_keys(left_keys, right_keys)
    match = probe_join_index(build_join_index(right_keys, right_rows, digits), left_keys)
    if left_rows is None:
        return match
    lo, counts = np.zeros((2, len(next(iter(left_columns.values())))), dtype=np.int64)
    counts[left_rows] = match.counts
    lo[left_rows] = match.lo if match.total else 0
    return MatchCounts(match.index, lo=lo, counts=counts, total=match.total, num_left=len(lo))


def _filter_rows(columns: dict, classes: list[list]) -> tuple[np.ndarray | None, list]:
    """Rows where each class's columns are ``==`` (``None``: all), and its first column there."""
    keep = None
    for names in classes:
        for name in names[1:]:
            equal = columns[names[0]] == columns[name]
            keep = equal if keep is None else keep & equal
    firsts = [columns[names[0]] for names in classes]
    rows = None if keep is None else np.flatnonzero(keep)
    return rows, firsts if rows is None else [values[rows] for values in firsts]


#: A composite key stays below this domain, with headroom for probe offsets.
_KEY_DOMAIN_LIMIT = 1 << 62


def _composite_keys(left_values: list, right_values: list):
    """Int64 keys equal across the sides iff every column pair is ``==``, and the right digits.

    Mixed radix over each pair's codes, re-densified to rank codes where the
    next radix would overflow, digits narrowed to radix-sort; one column is its own key.
    """
    if len(left_values) == 1:
        return left_values[0], right_values[0], None
    left_key, right_key, domain, digits = 0, 0, 1, []
    for left, right in zip(left_values, right_values):
        left_code, right_code, radix = _key_codes(left, right)
        if domain * radix > _KEY_DOMAIN_LIMIT:
            left_key, right_key, domain = _rank_codes(left_key, right_key)
            digits = [(right_key, domain)]
            if domain * radix > _KEY_DOMAIN_LIMIT:
                left_code, right_code, radix = _rank_codes(left_code, right_code)
        left_key, right_key = left_key * radix + left_code, right_key * radix + right_code
        domain *= radix
        digits.append((right_code, radix))
    return left_key, right_key, [d.astype(np.min_scalar_type(n - 1)) for d, n in digits]


def _key_codes(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Codes in ``[0, domain)``, equal across the sides iff the values are ``==``.

    Integers: ``value - lo + 1`` over the right side's ``[lo, hi]``, left values
    outside it on the sentinels 0 and ``domain - 1``; anything else: ranks.
    """
    if _direct_addressable(left) and _direct_addressable(right) and len(right):
        lo, hi = int(right.min()), int(right.max())
        if hi - lo < _KEY_DOMAIN_LIMIT and -(1 << 63) < lo <= hi < (1 << 63) - 1:
            left_codes = np.clip(left.astype(np.int64, copy=False), lo - 1, hi + 1) - (lo - 1)
            return left_codes, right.astype(np.int64) - (lo - 1), hi - lo + 3
    return _rank_codes(left, right)


def _rank_codes(left: np.ndarray, right: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Dense rank codes over both sides; a right NaN gets a code no left row has."""
    values, codes = np.unique(np.concatenate([left, right]), return_inverse=True)
    left_codes, right_codes, domain = codes[:len(left)], codes[len(left):], len(values)
    if domain and values[-1] != values[-1]:  # NaNs share the last rank
        right_codes = np.where(right_codes == domain - 1, domain, right_codes)
        domain += 1
    return left_codes, right_codes, domain


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
