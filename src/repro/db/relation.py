"""In-memory columnar relations.

A :class:`Relation` stores the rows of one table as a dictionary of numpy
arrays (one array per column).  Relations are deliberately simple: the
execution engine only needs filtering by predicate, projection of join
columns and row counts.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.db import kernels
from repro.db.catalog import Table
from repro.exceptions import CatalogError, ExecutionError

#: Comparison operators supported by filter predicates.
FILTER_OPS = ("=", "!=", "<", "<=", ">", ">=", "in")

#: Soft cap on entries in each per-relation kernel cache (predicate bitmaps,
#: selection positions, join indexes).  Eviction is FIFO; a miss only costs
#: recomputation, never correctness.
KERNEL_CACHE_CAP = 256


class Relation:
    """Columnar storage for one table.

    Parameters
    ----------
    table:
        The catalog entry describing this relation.
    columns:
        Mapping from column name to a 1-D numpy array.  All arrays must have
        the same length.
    """

    def __init__(self, table: Table, columns: Mapping[str, np.ndarray]) -> None:
        self.table = table
        self._columns: dict[str, np.ndarray] = {}
        length: int | None = None
        for column in table.columns:
            if column.name not in columns:
                raise CatalogError(
                    f"relation for table {table.name!r} is missing column {column.name!r}"
                )
            array = np.asarray(columns[column.name])
            if array.ndim != 1:
                raise CatalogError(f"column {column.name!r} must be 1-D")
            if length is None:
                length = len(array)
            elif len(array) != length:
                raise CatalogError(
                    f"column {column.name!r} has {len(array)} rows, expected {length}"
                )
            self._columns[column.name] = array
        self._num_rows = int(length or 0)
        # Kernel caches: pure functions of the (immutable) column arrays, so
        # sharing hits across Database snapshots is always safe.  Concurrent
        # readers (thread-pool backends) may race a miss and compute the same
        # value twice — benign, the values are deterministic.
        self._mask_cache: dict[tuple, np.ndarray] = {}
        self._select_cache: dict[tuple, np.ndarray] = {}
        self._index_cache: dict[tuple, kernels.JoinIndex] = {}
        self._sorted_cache: dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------ accessors
    @property
    def name(self) -> str:
        return self.table.name

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def column_names(self) -> list[str]:
        return list(self._columns)

    def column(self, name: str) -> np.ndarray:
        """Return the full array for ``name`` (no copy)."""
        try:
            return self._columns[name]
        except KeyError as exc:
            raise CatalogError(f"relation {self.name!r} has no column {name!r}") from exc

    def sorted_column(self, name: str) -> np.ndarray:
        """``column(name)`` sorted ascending, sorted once per relation (do not mutate).

        ANALYZE reads its statistics off this copy and the query generator
        its range literals, so a column is sorted once however both use it.
        """
        ordered = self._sorted_cache.get(name)
        if ordered is None:
            ordered = np.sort(self.column(name))
            self._sorted_cache[name] = ordered
        return ordered

    def take(self, rows: np.ndarray, column: str) -> np.ndarray:
        """Return the values of ``column`` at the given row positions."""
        return self.column(column)[rows]

    # ------------------------------------------------------------------ mutation (used by drift simulation)
    def with_rows(self, rows: np.ndarray) -> "Relation":
        """Return a new relation restricted to the given row positions."""
        return Relation(self.table, {name: arr[rows] for name, arr in self._columns.items()})

    # ------------------------------------------------------------------ filtering
    def filter_mask(self, column: str, op: str, value) -> np.ndarray:
        """Return a boolean mask selecting the rows where ``column op value`` holds."""
        values = self.column(column)
        if op == "=":
            return values == value
        if op == "!=":
            return values != value
        if op == "<":
            return values < value
        if op == "<=":
            return values <= value
        if op == ">":
            return values > value
        if op == ">=":
            return values >= value
        if op == "in":
            return np.isin(values, np.asarray(list(value)))
        raise ExecutionError(f"unsupported filter operator {op!r}")

    # ------------------------------------------------------------------ kernel caches
    @staticmethod
    def _cache_put(cache: dict, key, value) -> None:
        if len(cache) >= KERNEL_CACHE_CAP:
            cache.pop(next(iter(cache)))
        cache[key] = value

    def cached_mask(self, column: str, op: str, value, key: tuple | None = None) -> np.ndarray:
        """Like :meth:`filter_mask`, memoized per predicate.

        Callers must not mutate the returned mask (use ``mask & other``,
        never ``mask &= other``).
        """
        if key is None:
            key = kernels.predicate_key(column, op, value)
        mask = self._mask_cache.get(key)
        if mask is None:
            mask = self.filter_mask(column, op, value)
            self._cache_put(self._mask_cache, key, mask)
        return mask

    def select_cached(
        self, predicates: Iterable[tuple[str, str, object]]
    ) -> tuple[np.ndarray, tuple]:
        """The row positions satisfying every ``(column, op, value)`` predicate.

        Memoized per filter set over cached predicate bitmaps.  Returns
        ``(positions, selection key)``; the key identifies this filter set
        for :meth:`join_index` lookups.  The positions array must not be
        mutated.
        """
        preds = tuple(predicates)
        key = tuple(kernels.predicate_key(*pred) for pred in preds)
        positions = self._select_cache.get(key)
        if positions is None:
            if preds:
                mask: np.ndarray | None = None
                for pred, pred_key in zip(preds, key):
                    cached = self.cached_mask(*pred, key=pred_key)
                    mask = cached if mask is None else mask & cached
                positions = np.flatnonzero(mask)
            else:
                positions = np.arange(self._num_rows)
            self._cache_put(self._select_cache, key, positions)
        return positions, key

    def join_index(
        self, select_key: tuple, positions: np.ndarray, column: str
    ) -> kernels.JoinIndex:
        """Factorized join index over ``column`` at the given selection.

        Keyed by ``(selection key, column)`` so every plan scanning this
        relation with the same filters probes one shared index (and sorts it
        at most once) instead of building it per join.
        """
        key = (select_key, column)
        index = self._index_cache.get(key)
        if index is None:
            index = kernels.build_join_index(self.column(column)[positions])
            self._cache_put(self._index_cache, key, index)
        return index

    # ------------------------------------------------------------------ serialization
    def __getstate__(self) -> dict:
        """Ship the columns, not the kernel caches.

        Process-pool workers rebuild caches privately on first use; shipping
        them would bloat the replica payload for no warm-start benefit worth
        the bytes.
        """
        state = self.__dict__.copy()
        state["_mask_cache"] = {}
        state["_select_cache"] = {}
        state["_index_cache"] = {}
        state["_sorted_cache"] = {}
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, rows={self._num_rows})"
