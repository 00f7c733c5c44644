"""Data-drift simulation: rolling a database back to an earlier point in time.

The paper models drift on the Stack dataset by deleting every row with a
timestamp after 2017 plus the transitive closure of rows whose foreign keys
became dangling (Section 5.5).  :func:`rollback_to_date` implements exactly
that operation on any database whose tables carry a date column, and
:func:`drift_timeline` produces the sequence of intermediate snapshots used
by the runtimes-vs-date experiment (Figure 7).

A rollback narrows one row selection per table over the original relations
through all its rounds and copies each table that lost rows once, at the
end; the selections live in the call and go with it.
"""

from __future__ import annotations

import numpy as np

from repro.db.engine import Database

#: Default name of the timestamp column consulted by the rollback.
DATE_COLUMN = "creation_date"


def rollback_to_date(
    database: Database, cutoff: int, date_column: str = DATE_COLUMN
) -> Database:
    """Return a new database containing only rows visible at ``cutoff``.

    Rows with ``date_column > cutoff`` are deleted from every table that has
    such a column; rows in other tables whose foreign keys now dangle are then
    deleted transitively until a fixpoint is reached.  The rounds narrow row
    selections over the original relations; each relation that lost rows is
    materialized once, at the end, and one that lost none stays the
    original's object (so the new database reuses its statistics).
    """
    rows: dict[str, np.ndarray] = {}
    for name, relation in database.relations.items():
        if relation.table.has_column(date_column):
            keep = relation.column(date_column) <= cutoff
            if not keep.all():
                rows[name] = np.flatnonzero(keep)
    _enforce_referential_integrity(database, rows)
    relations = {
        name: relation.with_rows(rows[name]) if name in rows else relation
        for name, relation in database.relations.items()
    }
    return database.with_relations(relations)


def _enforce_referential_integrity(database: Database, rows: dict[str, np.ndarray]) -> None:
    """Narrow ``rows`` (table -> kept row positions; all rows when absent) until
    no kept row's FK references a deleted row.

    Rounds over every FK until one deletes nothing; an FK whose two tables
    kept the same rows since its last check is consistent and is skipped.
    """

    def values(table: str, column: str) -> np.ndarray:
        array = database.relations[table].column(column)
        return array[rows[table]] if table in rows else array

    narrowed = dict.fromkeys(database.relations, 0)  # table -> times it lost rows
    checked: dict[int, tuple[int, int]] = {}
    changed = True
    while changed:
        changed = False
        for i, fk in enumerate(database.schema.foreign_keys):
            state = (narrowed[fk.table], narrowed[fk.ref_table])
            if checked.get(i) == state:
                continue
            referencing = values(fk.table, fk.column)
            if len(referencing) == 0:
                continue
            mask = np.isin(referencing, values(fk.ref_table, fk.ref_column))
            if not mask.all():
                kept = np.flatnonzero(mask)
                rows[fk.table] = rows[fk.table][kept] if fk.table in rows else kept
                narrowed[fk.table] += 1
                changed = True
                if fk.table == fk.ref_table:
                    continue  # the rows it references shrank too: check it again
            checked[i] = (narrowed[fk.table], narrowed[fk.ref_table])


def deletion_fraction(original: Database, rolled_back: Database) -> float:
    """Fraction of all rows removed by a rollback (the paper reports ~20%)."""
    before = sum(rel.num_rows for rel in original.relations.values())
    after = sum(rel.num_rows for rel in rolled_back.relations.values())
    if before == 0:
        return 0.0
    return 1.0 - after / before


def per_table_deletion(original: Database, rolled_back: Database) -> dict[str, float]:
    """Per-table fraction of deleted rows."""
    fractions: dict[str, float] = {}
    for name, relation in original.relations.items():
        before = relation.num_rows
        after = rolled_back.relations[name].num_rows
        fractions[name] = 0.0 if before == 0 else 1.0 - after / before
    return fractions


def drift_timeline(
    database: Database,
    start: int,
    end: int,
    steps: int,
    date_column: str = DATE_COLUMN,
) -> list[tuple[int, Database]]:
    """Snapshots at ``steps`` evenly spaced cutoffs between ``start`` and ``end``.

    The final snapshot (cutoff = ``end``) is the original database if no row
    exceeds ``end``.
    """
    cutoffs = np.linspace(start, end, steps).astype(int)
    return [(int(cutoff), rollback_to_date(database, int(cutoff), date_column)) for cutoff in cutoffs]
