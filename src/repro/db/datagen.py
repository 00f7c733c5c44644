"""Synthetic data generation for the database substrate.

The experiments in the paper rely on real datasets (IMDB, StackOverflow,
DSB) whose skew and cross-column correlation make the default optimizer's
independence-assumption estimates wrong, which is exactly what leaves room
for offline optimization to find much faster plans.  This module generates
scaled-down synthetic relations with the same two properties:

* **Skewed foreign keys** — FK columns follow a (truncated) Zipf
  distribution over the referenced primary keys, so some join partners fan
  out enormously while most barely join at all.
* **Correlated attribute columns** — categorical attributes are generated
  as noisy functions of the row's foreign keys, so multi-predicate
  selectivities deviate strongly from the product of single-column
  selectivities.

Foreign-key skew is *fanout-capped*: the hottest key's probability mass is
clamped to ``fk_fanout_cap`` times the uniform share (the excess spread over
the keys not above the cap, round after round; see
:func:`capped_zipf_weights`).  Uncapped Zipf mass is scale-invariant — the
top key always absorbs ~1/H(P, s) of all references — so at small scales a
handful of keys fan out into intermediates that exceed the executor's
simulated timeout for *every* plan, leaving offline optimization nothing to
improve (the "JOB_1a at scale 0.15" pathology).  The cap bounds worst-case
join fanout at C× the average while keeping an order of magnitude of skew,
so default plans stay executable at small scales and bad join orders still
blow past timeouts.

One :meth:`DataGenerator.generate` call builds each Zipf distribution's cdf
and each population's key permutation once and shares them across its
columns (:class:`ZipfTables`, owned by that call and dropped with it); a
draw searches the cdf, as ``Generator.choice`` does, without re-checking
the weights.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.catalog import Schema, Table
from repro.db.relation import Relation
from repro.exceptions import CatalogError
from repro.utils.seeding import stable_digest


@dataclass
class ColumnSpec:
    """How to populate one non-key column.

    Parameters
    ----------
    kind:
        ``"categorical"`` (zipf-skewed categorical ids), ``"uniform"``
        (uniform ints in ``[0, cardinality)``), ``"date"`` (ordinal days in
        ``[date_min, date_max]``), or ``"derived"`` (a noisy function of a
        foreign-key column, producing cross-column correlation).
    cardinality:
        Number of distinct values for categorical/uniform columns.
    skew:
        Zipf exponent for categorical columns (0 disables skew).
    source_column:
        For ``"derived"`` columns: the column in the same table whose value
        seeds this one.
    noise:
        For ``"derived"`` columns: probability of replacing the derived value
        with a uniformly random one.
    """

    kind: str = "categorical"
    cardinality: int = 100
    skew: float = 1.1
    date_min: int = 0
    date_max: int = 3650
    source_column: str | None = None
    noise: float = 0.1


@dataclass
class TableSpec:
    """How to populate one table: row count plus per-column specs."""

    num_rows: int
    column_specs: dict[str, ColumnSpec] = field(default_factory=dict)
    #: Zipf exponent used for every FK column of this table.
    fk_skew: float = 1.2
    #: Per-table override of the generator-wide FK fanout cap (multiples of
    #: the uniform share).  ``None`` uses the generator default.
    fk_fanout_cap: float | None = None


#: Default cap on any single key's share of a table's FK references, as a
#: multiple of the uniform share ``1 / population``.  16x keeps strong skew
#: (the default optimizer still misestimates) while bounding worst-case join
#: fanout so scaled-down workloads stay executable.
DEFAULT_FK_FANOUT_CAP = 16.0


def capped_zipf_weights(population: int, skew: float, fanout_cap: float) -> np.ndarray:
    """Zipf weights with the top shares clamped to ``fanout_cap / population``.

    Each round clamps every key above the cap and spreads the clamped excess
    over every key not above it, in proportion to its weight — keys already
    at the cap included, so they are pushed over it again and the next round
    clamps them back.  Rounds repeat until no key exceeds the cap (at most
    32; the builders' populations take up to 25).  The result is a valid
    distribution whose hottest key receives at most ``fanout_cap`` times the
    uniform share.
    """
    if population <= 0:
        raise CatalogError("population must be positive")
    ranks = np.arange(1, population + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    cap = fanout_cap / population
    if cap >= 1.0:
        return weights
    for _ in range(32):
        over = weights > cap
        if not over.any():
            break
        excess = float((weights[over] - cap).sum())
        weights[over] = cap
        under = ~over
        under_weights = weights[under]
        under_total = float(under_weights.sum())
        if under_total <= 0.0:
            # Everything is at the cap: the capped distribution is uniform.
            weights[:] = 1.0 / population
            break
        weights[under] = under_weights + excess * under_weights / under_total
    return weights / weights.sum()


class ZipfTables:
    """The Zipf cdfs and key permutations of one :meth:`DataGenerator.generate` call.

    Each ``(population, skew, fanout_cap)`` distribution is built and summed
    into its cdf once, and each population's permutation drawn once, however
    many columns draw from them.  The generate call owns the memo and drops
    it on return: nothing outlives a build.
    """

    def __init__(self) -> None:
        self._cdfs: dict[tuple, np.ndarray] = {}
        self._permutations: dict[int, np.ndarray] = {}

    def cdf(self, population: int, skew: float, fanout_cap: float | None) -> np.ndarray:
        """The cumulative Zipf weights, normalized so the last one is 1."""
        key = (population, skew, fanout_cap)
        cdf = self._cdfs.get(key)
        if cdf is None:
            if fanout_cap is not None:
                weights = capped_zipf_weights(population, skew, fanout_cap)
            else:
                ranks = np.arange(1, population + 1, dtype=np.float64)
                weights = ranks ** (-skew)
                weights /= weights.sum()
            cdf = weights.cumsum()
            cdf /= cdf[-1]
            self._cdfs[key] = cdf
        return cdf

    def permutation(self, population: int) -> np.ndarray:
        """The fixed permutation that spreads popular ids across the key space."""
        permutation = self._permutations.get(population)
        if permutation is None:
            permutation = np.random.default_rng(population).permutation(population)
            self._permutations[population] = permutation
        return permutation


def zipf_choices(
    rng: np.random.Generator,
    population: int,
    size: int,
    skew: float,
    fanout_cap: float | None = None,
    zipf: ZipfTables | None = None,
) -> np.ndarray:
    """Sample ``size`` integers from ``[0, population)`` with Zipf-like skew.

    A ``skew`` of 0 gives the uniform distribution; larger values concentrate
    probability mass on small indices.  The indices are then shuffled through a
    fixed permutation so that "popular" ids are spread across the key space,
    matching real data where popularity is not correlated with key order.
    ``fanout_cap`` clamps the hottest key's share to that multiple of the
    uniform share (see :func:`capped_zipf_weights`); ``None`` leaves the raw
    Zipf distribution untouched.

    The draw is ``Generator.choice(population, size, p=weights)`` after its
    argument checks: the cdf searched at ``size`` uniform draws, the same
    indices and the same generator state afterwards.  ``zipf`` holds the
    cdfs and permutations a build shares (a fresh one when ``None``).
    """
    if population <= 0:
        raise CatalogError("population must be positive")
    if skew <= 0:
        return rng.integers(0, population, size=size)
    if zipf is None:
        zipf = ZipfTables()
    draws = zipf.cdf(population, skew, fanout_cap).searchsorted(rng.random(size), side="right")
    return zipf.permutation(population)[draws]


class DataGenerator:
    """Populate a :class:`~repro.db.catalog.Schema` with synthetic rows."""

    def __init__(
        self,
        schema: Schema,
        specs: dict[str, TableSpec],
        seed: int = 0,
        fk_fanout_cap: float | None = DEFAULT_FK_FANOUT_CAP,
    ) -> None:
        self.schema = schema
        self.specs = specs
        self.seed = seed
        self.fk_fanout_cap = fk_fanout_cap
        missing = [name for name in schema.table_names if name not in specs]
        if missing:
            raise CatalogError(f"missing TableSpec for tables: {missing}")

    def generate(self) -> dict[str, Relation]:
        """Generate every relation, respecting FK references between tables.

        Tables are generated in an order where referenced tables come first so
        that FK columns can be drawn from already-known primary keys.
        """
        order = self._generation_order()
        relations: dict[str, Relation] = {}
        zipf = ZipfTables()
        for table_name in order:
            relations[table_name] = self._generate_table(
                self.schema.table(table_name), relations, zipf
            )
        return relations

    # ------------------------------------------------------------------ internals
    def _generation_order(self) -> list[str]:
        """Topological-ish order: referenced tables before referencing tables."""
        remaining = set(self.schema.table_names)
        deps: dict[str, set[str]] = {name: set() for name in remaining}
        for fk in self.schema.foreign_keys:
            if fk.ref_table != fk.table:
                deps[fk.table].add(fk.ref_table)
        order: list[str] = []
        while remaining:
            ready = sorted(name for name in remaining if not (deps[name] & remaining))
            if not ready:
                # Cycle in the FK graph: break it deterministically.
                ready = [sorted(remaining)[0]]
            for name in ready:
                order.append(name)
                remaining.remove(name)
        return order

    def _generate_table(
        self, table: Table, relations: dict[str, Relation], zipf: ZipfTables
    ) -> Relation:
        spec = self.specs[table.name]
        rng = np.random.default_rng((self.seed, stable_digest(table.name, bits=16)))
        num_rows = spec.num_rows
        columns: dict[str, np.ndarray] = {}
        # Primary key: dense 0..n-1.
        columns[table.primary_key] = np.arange(num_rows, dtype=np.int64)
        # Foreign keys: zipf over referenced primary keys.
        fk_columns = {
            fk.column: fk
            for fk in self.schema.foreign_keys
            if fk.table == table.name and fk.column != table.primary_key
        }
        fanout_cap = spec.fk_fanout_cap if spec.fk_fanout_cap is not None else self.fk_fanout_cap
        for column_name, fk in fk_columns.items():
            ref_relation = relations.get(fk.ref_table)
            if ref_relation is None:
                population = self.specs[fk.ref_table].num_rows
            else:
                population = max(ref_relation.num_rows, 1)
            columns[column_name] = zipf_choices(
                rng, population, num_rows, spec.fk_skew, fanout_cap=fanout_cap, zipf=zipf
            ).astype(np.int64)
        # Remaining attribute columns.
        for column in table.columns:
            if column.name in columns:
                continue
            columns[column.name] = self._generate_attribute(
                rng, column.name, spec, columns, num_rows, zipf
            )
        return Relation(table, columns)

    def _generate_attribute(
        self,
        rng: np.random.Generator,
        name: str,
        spec: TableSpec,
        existing: dict[str, np.ndarray],
        num_rows: int,
        zipf: ZipfTables,
    ) -> np.ndarray:
        column_spec = spec.column_specs.get(name, ColumnSpec())
        if column_spec.kind == "uniform":
            return rng.integers(0, column_spec.cardinality, size=num_rows).astype(np.int64)
        if column_spec.kind == "date":
            low, high = column_spec.date_min, column_spec.date_max
            return rng.integers(low, high + 1, size=num_rows).astype(np.int64)
        if column_spec.kind == "derived":
            source = column_spec.source_column
            if source is None or source not in existing:
                raise CatalogError(
                    f"derived column {name!r} needs an existing source_column, got {source!r}"
                )
            base = (existing[source] * 2654435761) % column_spec.cardinality
            noise_mask = rng.random(num_rows) < column_spec.noise
            noise = rng.integers(0, column_spec.cardinality, size=num_rows)
            return np.where(noise_mask, noise, base).astype(np.int64)
        if column_spec.kind == "categorical":
            return zipf_choices(
                rng, column_spec.cardinality, num_rows, column_spec.skew, zipf=zipf
            ).astype(np.int64)
        raise CatalogError(f"unknown column kind {column_spec.kind!r} for column {name!r}")
