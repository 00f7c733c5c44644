"""The persistent plan store: what the serving layer knows across sessions.

Everything the offline tuner learns about a query — the best plan it found,
the full observation history that found it, the finished optimizer object and
the execution cache's replayable outcome logs — is worth exactly nothing if
it dies with the process.  The store is the first layer of the system that
lives *across* sessions: a fingerprint-keyed map of :class:`StoreEntry`
records under an explicit, versioned on-disk format.

Keys are PR 5's **content-based query fingerprints**
(:func:`repro.db.plan_cache.query_fingerprint`): two Query objects describing
the same tables/joins/filters share one entry regardless of name, and two
same-named queries with different filters never collide — the property a
server facing ad-hoc client queries needs.

The store also carries the exported outcome-cache event logs
(:meth:`~repro.db.plan_cache.ExecutionCache.export_outcomes`), so
:meth:`PlanStore.prime` can warm a fresh :class:`~repro.db.engine.Database`'s
execution cache on restore: the first post-restart execution of every known
plan is an outcome replay, not a from-scratch run.

The file
--------
``header · snapshot record · tail records``: an append-only log behind a
snapshot, so that a checkpoint costs what changed since the last one, not
what the store holds.

* The **header** is 12 bytes: the magic ``RPLSTORE`` and the format version
  (:data:`STORE_FORMAT_VERSION`, little-endian ``u32``).
  :func:`read_store_header` reads it without touching a payload.
* A **record** is a 13-byte record header — kind (``u8``), payload length
  (``u32``), CRC-32 of the payload, CRC-32 of those first nine bytes — and
  the payload.  Two kinds exist.  The *snapshot* record, always the first
  and the only one of its kind, is the pickled store
  (:meth:`PlanStore.save`, written to a temp file and renamed into place:
  :func:`~repro.harness.checkpoint.atomic_write_bytes`).  A *tail* record is
  what one later checkpoint appended: the operations since the checkpoint
  before it, in an encoding that belongs to whoever wrote them.  The store
  checks and carries tail payloads and never looks inside — like
  ``server_state``, they are the server's (:mod:`repro.serve.server`
  documents the four operation kinds and replays them).
* :class:`StoreJournal` is the writer.  It appends while the tail stays
  within the size of the snapshot it follows and asks for a new snapshot
  otherwise — the compaction rule: the file never exceeds twice its
  snapshot, and rewriting ``n`` bytes is paid for by ``n`` appended ones, so
  a checkpoint stays amortised O(change).  Its owner asks for a snapshot
  whenever something happened that no operation kind describes (for a
  :class:`~repro.serve.server.PlanServer`: its first checkpoint to a path,
  whatever the path held before; a maintenance cycle that finished a task;
  a change of database) and when the operations waiting in memory would
  themselves outgrow a snapshot — at which point the journal stops
  collecting them, so a server that stops checkpointing holds at most one
  snapshot's worth of journal, and one that never checkpoints none.

Reading it back
---------------
An append is not atomic, a rename is.  The only damage a dying writer can
leave is therefore a *last* record that stops short, and that is the one
defect :meth:`PlanStore.load` repairs: the torn record is dropped, a warning
names the path and the offset, and the store resumes at the checkpoint
before — exactly what the caller of that checkpoint was never told had
succeeded.  Everything else is damage no writer of ours produces and raises
:class:`StoreFormatError`: a checksum that fails (header or payload, any
record), a file that ends inside its snapshot, a record kind out of place, a
version other than this build's — including the plain-pickle files of
format 1, recognised by their first bytes and refused without being
unpickled.  No byte that failed its checksum reaches :mod:`pickle`.  A
missing file, or one that does not start like a store at all, is "no
store" (``None``), as before.

Replay — applying the tail to the snapshot — runs through the same
state-transition code the live serve path runs, which is why
:meth:`PlanServer.resume <repro.serve.server.PlanServer.resume>` owns it, and
under the :class:`~repro.serve.server.ServeConfig` the snapshot recorded:
whether a reported latency violated the SLO or flagged a drift was decided
under that configuration, and replaying under another would restore a state
the writer never was in.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from collections import deque
from dataclasses import dataclass, field

from repro.db.engine import Database
from repro.db.plan_cache import query_fingerprint
from repro.db.query import Query
from repro.exceptions import ReproError
from repro.harness.checkpoint import atomic_write_bytes
from repro.plans.jointree import JoinTree
from repro.utils.logging import get_logger

#: On-disk format version.  Bump this (and only this) when the file layout or
#: the snapshot payload changes — the tier-1 suite and CI assert the constant
#: and a freshly written file's header agree, so silent format drift fails
#: loudly.  1 was a plain pickle of the whole store, rewritten per checkpoint.
STORE_FORMAT_VERSION = 2

_MAGIC = b"RPLSTORE"
_FILE_HEADER = struct.Struct("<8sI")  # magic, format version
_RECORD_FIELDS = struct.Struct("<BII")  # kind, payload length, payload CRC-32
_RECORD_HEADER = struct.Struct("<BIII")  # ... and the CRC-32 of those nine bytes
_SNAPSHOT_RECORD = 1
_TAIL_RECORD = 2
#: How a format-1 file starts: the pickle protocol opcode, and the payload
#: dict's ``"format"`` value a few bytes in.
_V1_MARK = b"repro.serve.store"


class StoreFormatError(ReproError):
    """A plan-store file is a store but not one this build can trust: another
    format version, a failed checksum, a snapshot that stops short, a record
    kind out of place."""


@dataclass(frozen=True)
class StoreHeader:
    """What :func:`read_store_header` learns without reading a payload."""

    version: int
    #: Bytes up to the end of the snapshot record — the file's size right
    #: after a snapshot, and half of what it may grow to before the next.
    snapshot_bytes: int


def _frame(kind: int, payload: bytes) -> bytes:
    fields = _RECORD_FIELDS.pack(kind, len(payload), zlib.crc32(payload))
    return b"".join((fields, zlib.crc32(fields).to_bytes(4, "little"), payload))


def _parse_header(head: bytes, size: int) -> StoreHeader | None:
    """The header in the first bytes of a ``size``-byte file; ``None`` if they
    do not start a plan store."""
    if head[:1] == b"\x80" and _V1_MARK in head[:64]:
        return StoreHeader(version=1, snapshot_bytes=size)
    if len(head) < _FILE_HEADER.size or not head.startswith(_MAGIC):
        return None
    snapshot_bytes = _FILE_HEADER.size
    if len(head) >= snapshot_bytes + _RECORD_HEADER.size:
        snapshot_bytes += _RECORD_HEADER.size + _RECORD_HEADER.unpack_from(head, snapshot_bytes)[1]
    return StoreHeader(version=_FILE_HEADER.unpack_from(head)[1], snapshot_bytes=snapshot_bytes)


def read_store_header(path: str) -> StoreHeader | None:
    """Format version and snapshot size of the store file at ``path``.

    ``None`` for a missing file or one that is not a plan store; a format-1
    file (a plain pickle) reports ``version=1``.  Reads 64 bytes, unpickles
    nothing.
    """
    try:
        with open(path, "rb") as handle:
            return _parse_header(handle.read(64), os.fstat(handle.fileno()).st_size)
    except FileNotFoundError:
        return None


def _read_records(data: bytes, path: str) -> list[tuple[int, bytes]]:
    """The checked ``(kind, payload)`` records behind a store file's header.

    A last record that stops short — the writer died inside an append — is
    dropped with a warning; a failed checksum raises.
    """
    records: list[tuple[int, bytes]] = []
    offset, size = _FILE_HEADER.size, len(data)
    while offset < size:
        start = offset + _RECORD_HEADER.size
        torn = start > size
        if not torn:
            kind, length, payload_crc, fields_crc = _RECORD_HEADER.unpack_from(data, offset)
            if zlib.crc32(data[offset : offset + _RECORD_FIELDS.size]) != fields_crc:
                raise StoreFormatError(
                    f"plan store {path!r}: the record header at byte {offset} fails its checksum"
                )
            torn = start + length > size
        if torn:
            if not records:
                break  # the snapshot itself stops short: the caller refuses
            get_logger("repro.serve.store").warning(
                "plan store %s: dropping a torn record at byte %d (%d trailing bytes of an "
                "append that did not finish); resuming at the checkpoint before it",
                path, offset, size - offset,
            )
            break
        payload = data[start : start + length]
        if zlib.crc32(payload) != payload_crc:
            raise StoreFormatError(
                f"plan store {path!r}: the record at byte {offset} fails its checksum"
            )
        records.append((kind, payload))
        offset = start + length
    return records


@dataclass
class StoredObservation:
    """One plan execution from an optimization run, as the store remembers it."""

    plan: JoinTree
    latency: float
    censored: bool
    timeout: float | None
    source: str


@dataclass
class StoreEntry:
    """Everything the server knows about one query fingerprint.

    ``best_plan`` is what the fast path serves; ``recorded_latency`` is the
    latency the store *expects* that plan to achieve (the drift baseline).
    ``observed`` is the rolling window of latencies seen since the entry was
    last (re-)optimized — the drift detector reads it, and re-optimization
    resets it.  ``history`` is the full observation history of every
    optimization run that touched this entry, in execution order; its fastest
    uncensored plans are the warm-start seeds for re-optimization.
    ``optimizer`` holds the finished optimizer object of the last run (models,
    RNGs) for inspection and future transfer-learning — it is *state*, not a
    live optimizer: after drift it would be stale, so re-optimization always
    rebuilds against the current database and warm-starts from ``history``.
    """

    fingerprint: tuple
    query: Query
    #: Position in the store's insertion order (:meth:`PlanStore.ensure`
    #: assigns it; entries are never removed): the four bytes a journal
    #: record names this entry by, instead of its ~600-byte fingerprint.
    ordinal: int = -1
    best_plan: JoinTree | None = None
    recorded_latency: float = float("inf")
    #: Where the served plan came from: "default" (planner fallback promoted
    #: on first miss) or the optimizing technique's name.
    source: str = "default"
    #: Whether an optimization run (not just the default planner) produced
    #: ``best_plan``.
    optimized: bool = False
    history: list[StoredObservation] = field(default_factory=list)
    optimizer: object | None = None
    #: Fast-path serves of this entry, over its lifetime.
    serves: int = 0
    #: Rolling latency window since the last (re-)optimization.
    observed: deque = field(default_factory=lambda: deque(maxlen=32))
    #: How many times this entry has been (re-)optimized.
    optimizations: int = 0

    def observe(self, latency: float) -> None:
        self.observed.append(float(latency))

    def observed_median(self) -> float | None:
        """Median of the current observation window (``None`` when empty)."""
        if not self.observed:
            return None
        ordered = sorted(self.observed)
        mid = len(ordered) // 2
        if len(ordered) % 2:
            return ordered[mid]
        return 0.5 * (ordered[mid - 1] + ordered[mid])

    def record_run(self, records, technique: str) -> None:
        """Append one optimization run's trace records to the history."""
        for record in records:
            self.history.append(
                StoredObservation(
                    plan=record.plan,
                    latency=record.latency,
                    censored=record.censored,
                    timeout=record.timeout,
                    source=record.source,
                )
            )
        self.optimizations += 1
        self.source = technique

    def fastest_history_plans(self, count: int) -> list[JoinTree]:
        """The ``count`` fastest distinct uncensored plans from the history.

        Excludes the current best plan (the warm start passes it separately,
        with its own ``init:past_plan`` label) and preserves deterministic
        ordering: latency ascending, earlier observation wins ties.
        """
        best_key = self.best_plan.canonical() if self.best_plan is not None else None
        seen: set = set()
        ranked: list[tuple[float, int, JoinTree]] = []
        for index, obs in enumerate(self.history):
            if obs.censored:
                continue
            key = obs.plan.canonical()
            if key == best_key or key in seen:
                continue
            seen.add(key)
            ranked.append((obs.latency, index, obs.plan))
        ranked.sort(key=lambda item: (item[0], item[1]))
        return [plan for _, _, plan in ranked[:count]]


class PlanStore:
    """Fingerprint-keyed persistent map of :class:`StoreEntry` records.

    ``server_state`` is an opaque slot the :class:`~repro.serve.server.PlanServer`
    uses to persist its own mutable state (admission counters, SLO trackers,
    arrival counts) alongside the entries, so a resumed server continues the
    stream bit-for-bit.
    """

    def __init__(self, observation_window: int = 32) -> None:
        self.observation_window = observation_window
        self.entries: dict[tuple, StoreEntry] = {}
        #: Outcome-cache event logs exported at the last sync (see
        #: :meth:`sync_cache` / :meth:`prime`).
        self.cache_events: list = []
        self.server_state: dict = {}
        #: Checked payloads of the tail records :meth:`load` found behind the
        #: snapshot, oldest first and not applied — see :meth:`load`.
        self.tail: list[bytes] = []

    # ------------------------------------------------------------------ lookup
    def get(self, query: Query) -> StoreEntry | None:
        return self.entries.get(query_fingerprint(query))

    def get_fingerprint(self, fingerprint: tuple) -> StoreEntry | None:
        return self.entries.get(fingerprint)

    def ensure(self, query: Query) -> StoreEntry:
        """The entry for ``query``, created (empty) on first sight."""
        fingerprint = query_fingerprint(query)
        entry = self.entries.get(fingerprint)
        if entry is None:
            entry = StoreEntry(
                fingerprint=fingerprint,
                query=query,
                ordinal=len(self.entries),
                observed=deque(maxlen=self.observation_window),
            )
            self.entries[fingerprint] = entry
        return entry

    def __contains__(self, query: Query) -> bool:
        return query_fingerprint(query) in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------ cache interchange
    def sync_cache(self, database: Database) -> int:
        """Export ``database``'s outcome-cache event logs into the store.

        Returns the number of logs captured; 0 when the database runs
        without an execution cache.
        """
        cache = getattr(database, "execution_cache", None)
        if cache is None:
            return 0
        self.cache_events = cache.export_outcomes()
        return len(self.cache_events)

    def prime(self, database: Database) -> int:
        """Merge the stored event logs into ``database``'s execution cache.

        The import is an upsert (completed entries beat censored ones, longer
        observations beat shorter — see
        :meth:`~repro.db.plan_cache.ExecutionCache.import_outcomes`), so
        priming a warm cache never downgrades it.  Returns entries offered.
        """
        cache = getattr(database, "execution_cache", None)
        if cache is None or not self.cache_events:
            return 0
        return cache.import_outcomes(self.cache_events)

    # ------------------------------------------------------------------ persistence
    def save(self, path: str) -> int:
        """Atomically write the store as a fresh file: header and snapshot
        record, no tail.  Returns the bytes written.

        This is the one snapshot writer — a server's checkpoints go through
        it (:class:`StoreJournal`) whenever they cannot be an append.  A store
        whose loaded :attr:`tail` nobody applied refuses: the snapshot would
        silently drop the checkpoints the tail holds.
        """
        if self.tail:
            raise StoreFormatError(
                f"refusing to write {path!r}: {len(self.tail)} loaded tail record(s) "
                "were never applied (PlanServer.resume replays them)"
            )
        payload = pickle.dumps(
            {
                "observation_window": self.observation_window,
                "entries": self.entries,
                "cache_events": self.cache_events,
                "server_state": self.server_state,
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        data = _FILE_HEADER.pack(_MAGIC, STORE_FORMAT_VERSION) + _frame(_SNAPSHOT_RECORD, payload)
        atomic_write_bytes(path, data)
        return len(data)

    @classmethod
    def load(cls, path: str) -> "PlanStore | None":
        """Load the store file at ``path``; ``None`` for a missing file or one
        that is not a plan store.

        Returns the store **as of the file's snapshot**, with the checked
        payloads of the tail records behind it in :attr:`tail`, unapplied.
        Tail records are operations of the server that wrote them, and
        applying them is running that server's state transitions:
        :meth:`PlanServer.resume <repro.serve.server.PlanServer.resume>` owns
        it, and ``resume(path, database).store`` is the store as of the last
        checkpoint.  What a tail can hold is serve counts, drift windows,
        first-sight entries with their default plan and new outcome logs;
        every optimized plan and every history is in the snapshot.

        A torn last record is dropped and logged; any other defect of a file
        that *is* a store — another format version (the plain pickles of
        format 1 included), a failed checksum, a snapshot that stops short, a
        record kind out of place — raises :class:`StoreFormatError`.  The
        store is long-lived state, and silently starting empty would throw
        away every optimization the server ever paid for.
        """
        logger = get_logger("repro.serve.store")
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            logger.debug("no plan store at %s (cold start)", path)
            return None
        header = _parse_header(data, len(data))
        if header is None:
            logger.warning("%s (%d bytes) is not a plan store; ignoring it", path, len(data))
            return None
        if header.version != STORE_FORMAT_VERSION:
            raise StoreFormatError(
                f"plan store {path!r} has format version {header.version}, "
                f"this build reads only version {STORE_FORMAT_VERSION}"
            )
        records = _read_records(data, path)
        kinds = [kind for kind, _ in records]
        if kinds[:1] != [_SNAPSHOT_RECORD] or any(kind != _TAIL_RECORD for kind in kinds[1:]):
            raise StoreFormatError(
                f"plan store {path!r}: expected one complete snapshot record and then tail "
                f"records, found record kinds {kinds}"
            )
        payload = pickle.loads(records[0][1])
        store = cls(observation_window=payload["observation_window"])
        store.entries = payload["entries"]
        store.cache_events = payload["cache_events"]
        store.server_state = payload["server_state"]
        store.tail = [tail for _, tail in records[1:]]
        return store

    # ------------------------------------------------------------------ reporting
    def summary(self) -> dict:
        optimized = sum(1 for entry in self.entries.values() if entry.optimized)
        return {
            "entries": len(self.entries),
            "optimized": optimized,
            "observations": sum(len(entry.history) for entry in self.entries.values()),
            "serves": sum(entry.serves for entry in self.entries.values()),
            "cache_events": len(self.cache_events),
        }


class StoreJournal:
    """One writer's hold on one store file: the snapshot it wrote there, the
    tail it has appended since, the operations waiting for the next checkpoint.

    Built by writing a snapshot; replaced by a new one at the next snapshot.
    Between the two, :meth:`record` collects encoded operations as they
    happen and :meth:`commit` appends them as one tail record — or reports
    that it cannot, which is the owner's cue to write a snapshot instead.
    The encoding of an operation is the owner's; the journal counts bytes.
    """

    __slots__ = ("path", "snapshot_bytes", "tail_bytes", "pending")

    def __init__(self, store: PlanStore, path: str) -> None:
        self.path = path
        self.snapshot_bytes = store.save(path)
        self.tail_bytes = 0
        #: Operations since the last checkpoint; ``None`` once they would
        #: have outgrown the snapshot (nobody is checkpointing: stop
        #: collecting, the next checkpoint has to be a snapshot anyway).
        self.pending: bytearray | None = bytearray()

    def record(self, operation: bytes) -> None:
        pending = self.pending
        if pending is not None:
            if len(pending) + len(operation) <= self.snapshot_bytes:
                pending += operation
            else:
                self.pending = None

    def commit(self, last: bytes = b"") -> bool:
        """Append the pending operations and ``last`` as one tail record.

        ``False`` — nothing written — when the operations were not all
        collected, when the tail would outgrow the snapshot, or when the file
        is not the one this journal left (missing, replaced, or ending in a
        record an earlier append did not finish): the owner then writes a
        snapshot, which repairs all three.  On ``True`` the bytes have been
        handed to the operating system (the file is closed), which is all
        :meth:`PlanStore.save` promises too.
        """
        if self.pending is None:
            return False
        if not self.pending and not last:
            return True
        record = _frame(_TAIL_RECORD, bytes(self.pending) + last)
        if self.tail_bytes + len(record) > self.snapshot_bytes:
            return False
        try:
            with open(self.path, "r+b") as handle:
                if handle.seek(0, os.SEEK_END) != self.snapshot_bytes + self.tail_bytes:
                    return False
                handle.write(record)
        except FileNotFoundError:
            return False
        self.tail_bytes += len(record)
        self.pending.clear()
        return True
