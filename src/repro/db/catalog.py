"""Schema catalog: tables, columns, foreign keys and indexes.

The catalog is the metadata layer of the database substrate.  It knows nothing
about the stored rows; it only describes the relational structure that the
query generator, the cardinality estimator and the plan-string vocabulary all
consume.  The most important derived structure is the *alias-k reference
graph* (``k`` alias nodes per table, PK-FK references as edges) used to sample
random queries (paper Section 4.2).  It is plain adjacency dicts,
``{alias: {neighbour: ForeignKey}}``.  Their orders are part of what a seed
means: a sampled query's first alias is drawn by position in the node order,
and its predicates come in edge order (``tests/oracles/reference_graph.py``
pins both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.exceptions import CatalogError

#: Column data types supported by the substrate.  Values are stored as numpy
#: int64 (categorical / id / date ordinal) or float64 arrays.
COLUMN_TYPES = ("int", "float", "date")


@dataclass(frozen=True)
class Column:
    """A single column of a table.

    Parameters
    ----------
    name:
        Column name, unique within its table.
    dtype:
        One of :data:`COLUMN_TYPES`.
    """

    name: str
    dtype: str = "int"

    def __post_init__(self) -> None:
        if self.dtype not in COLUMN_TYPES:
            raise CatalogError(f"unknown column dtype {self.dtype!r} for column {self.name!r}")


@dataclass(frozen=True)
class ForeignKey:
    """A PK-FK reference ``table.column -> ref_table.ref_column``."""

    table: str
    column: str
    ref_table: str
    ref_column: str

    def as_edge(self) -> tuple[str, str]:
        """Return the (referencing, referenced) table pair."""
        return (self.table, self.ref_table)


#: ``{alias: {neighbour: the ForeignKey of their edge}}``: an undirected graph
#: whose edge is stored under both of its ends.
AliasGraph = dict[str, dict[str, ForeignKey]]


@dataclass(frozen=True)
class Index:
    """A secondary index over one column of a table."""

    table: str
    column: str

    @property
    def name(self) -> str:
        return f"idx_{self.table}_{self.column}"


@dataclass
class Table:
    """A table definition: name, columns and primary key."""

    name: str
    columns: list[Column]
    primary_key: str = "id"

    def __post_init__(self) -> None:
        names = [column.name for column in self.columns]
        if len(names) != len(set(names)):
            raise CatalogError(f"duplicate column names in table {self.name!r}")
        if self.primary_key not in names:
            raise CatalogError(
                f"primary key {self.primary_key!r} is not a column of table {self.name!r}"
            )

    def column(self, name: str) -> Column:
        """Return the column named ``name`` or raise :class:`CatalogError`."""
        for column in self.columns:
            if column.name == name:
                return column
        raise CatalogError(f"table {self.name!r} has no column {name!r}")

    def has_column(self, name: str) -> bool:
        return any(column.name == name for column in self.columns)

    @property
    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]


class Schema:
    """A database schema: a set of tables plus PK-FK references and indexes."""

    def __init__(
        self,
        name: str,
        tables: Iterable[Table],
        foreign_keys: Iterable[ForeignKey] = (),
        indexes: Iterable[Index] = (),
    ) -> None:
        self.name = name
        self._tables: dict[str, Table] = {}
        for table in tables:
            if table.name in self._tables:
                raise CatalogError(f"duplicate table {table.name!r} in schema {name!r}")
            self._tables[table.name] = table
        self.foreign_keys: list[ForeignKey] = list(foreign_keys)
        for fk in self.foreign_keys:
            self._validate_foreign_key(fk)
        self.indexes: list[Index] = list(indexes)
        for index in self.indexes:
            self.table(index.table).column(index.column)

    # ------------------------------------------------------------------ basic accessors
    def _validate_foreign_key(self, fk: ForeignKey) -> None:
        self.table(fk.table).column(fk.column)
        self.table(fk.ref_table).column(fk.ref_column)

    def table(self, name: str) -> Table:
        """Return the table named ``name`` or raise :class:`CatalogError`."""
        try:
            return self._tables[name]
        except KeyError as exc:
            raise CatalogError(f"schema {self.name!r} has no table {name!r}") from exc

    def has_table(self, name: str) -> bool:
        return name in self._tables

    @property
    def tables(self) -> list[Table]:
        return list(self._tables.values())

    @property
    def table_names(self) -> list[str]:
        return list(self._tables)

    def __iter__(self) -> Iterator[Table]:
        return iter(self._tables.values())

    def __len__(self) -> int:
        return len(self._tables)

    # ------------------------------------------------------------------ indexes
    def add_index(self, table: str, column: str) -> Index:
        """Register (idempotently) an index on ``table.column`` and return it."""
        self.table(table).column(column)
        for index in self.indexes:
            if index.table == table and index.column == column:
                return index
        index = Index(table, column)
        self.indexes.append(index)
        return index

    def has_index(self, table: str, column: str) -> bool:
        return any(index.table == table and index.column == column for index in self.indexes)

    def index_all_join_keys(self) -> None:
        """Create an index on every column participating in a PK-FK reference.

        This mirrors the experimental setup of the paper ("we create indexes on
        all join keys").
        """
        for fk in self.foreign_keys:
            self.add_index(fk.table, fk.column)
            self.add_index(fk.ref_table, fk.ref_column)

    # ------------------------------------------------------------------ join metadata
    def join_columns(self, table_a: str, table_b: str) -> list[tuple[str, str]]:
        """Return ``(column_in_a, column_in_b)`` pairs for every FK joining the two tables."""
        pairs: list[tuple[str, str]] = []
        for fk in self.foreign_keys:
            if fk.table == table_a and fk.ref_table == table_b:
                pairs.append((fk.column, fk.ref_column))
            elif fk.table == table_b and fk.ref_table == table_a:
                pairs.append((fk.ref_column, fk.column))
        return pairs

    def alias_k_graph(self, k: int) -> AliasGraph:
        """The alias-``k`` reference graph used to sample random queries.

        Each table contributes ``k`` alias nodes (``table#1`` ... ``table#k``)
        and every PK-FK reference contributes edges between all alias pairs of
        the two tables (paper Section 4.2).  Nodes come in table order, then
        ordinal; a node's neighbours in the order their first edge was added;
        a later FK on an alias pair replaces the earlier one in place.
        """
        if k < 1:
            raise CatalogError(f"alias multiplicity must be >= 1, got {k}")
        graph: AliasGraph = {
            alias_name(table, i): {} for table in self.table_names for i in range(1, k + 1)
        }
        for fk in self.foreign_keys:
            for i in range(1, k + 1):
                for j in range(1, k + 1):
                    left = alias_name(fk.table, i)
                    right = alias_name(fk.ref_table, j)
                    if left != right:
                        graph[left][right] = graph[right][left] = fk
        return graph


def alias_name(table: str, ordinal: int) -> str:
    """Canonical alias for the ``ordinal``-th occurrence of ``table`` in a query."""
    return f"{table}#{ordinal}"


def alias_table(alias: str) -> str:
    """Return the base table of an alias produced by :func:`alias_name`."""
    return alias.split("#", 1)[0]


def alias_ordinal(alias: str) -> int:
    """Return the occurrence number of an alias produced by :func:`alias_name`."""
    if "#" not in alias:
        return 1
    return int(alias.split("#", 1)[1])
