"""The fabric wire protocol + the coordinator-side remote node backend.

The distributed execution fabric (:mod:`repro.exec.fabric`) spreads plan
executions over shared-nothing node processes (:mod:`repro.exec.node`).  This
module owns the boundary between coordinator and node:

**Wire format** — length-prefixed pickle frames: an 8-byte big-endian size
header followed by a ``pickle.dumps`` payload.  Every frame is a plain tuple
whose first element names its kind, so the protocol stays versionable and the
payload types are exactly the ones already proven pickle-clean across the
process-pool boundary (:class:`~repro.exec.backend.ExecutionRequest` parts,
:class:`~repro.core.protocol.ExecutionOutcome`,
:class:`~repro.exec.process_pool.RemoteExecutionError`, outcome-cache event
logs).

Coordinator -> node frames::

    ("hello", version)                      handshake probe
    ("replica", db, queries, warmup, trace, events)   ship the replica
    ("execute", task_id, query|name, plan, timeout, proposal_id, events)
    ("execute_batch", task_id, query|name, items, events)
    ("ping", seq)                           heartbeat
    ("shutdown",)                           graceful node exit
    ("die",)                                chaos: immediate ``os._exit(1)``

Node -> coordinator frames::

    ("hello_ack", version, has_replica, signature)
    ("replica_ack", signature)
    ("outcome", task_id, outcome, events, stats)
    ("outcome_batch", task_id, outcomes, events, stats)
    ("error", task_id, exception)
    ("pong", seq)

``events`` are :meth:`~repro.db.plan_cache.ExecutionCache.export_outcomes`
entries riding along in both directions — the cross-node cache protocol.

**:class:`RemoteNodeBackend`** — the coordinator's client for one node.  It
implements the :class:`~repro.exec.backend.ExecutionBackend` protocol and
owns the node's liveness: a receiver thread resolves in-flight futures from
reply frames, a monitor thread pings on ``heartbeat_interval`` and declares
the node lost when no frame arrives within ``heartbeat_timeout``, failing all
in-flight futures with :class:`NodeLostError` (a
:class:`~repro.exec.backend.TransientBackendError`, so the fabric reassigns
the leases) and reconnecting with exponential backoff.  A node that cannot be
reached for ``respawn_after`` consecutive attempts is restarted through the
injected ``restarter`` (the localhost deployment's process supervisor).
Reconnect handshakes are cheap: a node that still holds a replica with the
expected data signature is *not* re-shipped the database.

Chaos hooks (:meth:`inject_drop` / :meth:`inject_partition` /
:meth:`inject_kill`) simulate network faults at this boundary: a partition
blackholes frames in both directions without closing the socket, so recovery
genuinely goes through the heartbeat deadline rather than a convenient EOF.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
import time
from collections import deque
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.protocol import ExecutionOutcome
from repro.db.query import Query
from repro.exceptions import OptimizationError
from repro.exec.backend import ExecutionRequest, TransientBackendError, query_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.db.engine import Database

#: Bumped when the frame layout changes; mismatched peers refuse to pair.
PROTOCOL_VERSION = 1

_HEADER = struct.Struct(">Q")

#: Sanity bound on one frame (a pickled database replica fits comfortably).
MAX_FRAME_BYTES = 1 << 31

#: Cache events piggybacked per request frame, so replication never bloats
#: the request path; the remainder rides on later frames.
EVENTS_PER_FRAME = 512

#: Per-node piggyback pool bound — overflow drops the *oldest* events, which
#: only costs replication coverage, never correctness (caches are upserts).
EVENT_POOL_LIMIT = 8192


class ProtocolError(OptimizationError):
    """A peer sent a frame this side cannot understand."""


class NodeLostError(TransientBackendError):
    """The link to an execution node died with requests in flight.

    Classified as infrastructure (retryable): the plan is not implicated, and
    the fabric reassigns the request's lease to a surviving node, up to its
    ``max_lease_attempts``.
    """


# ------------------------------------------------------------------ framing
def send_frame(sock: socket.socket, payload: object, lock: "threading.Lock | None" = None) -> None:
    """Pickle ``payload`` and write it as one length-prefixed frame.

    Serialization happens *before* any byte is written, so a pickling failure
    never tears the stream; with ``lock`` the write is atomic against other
    senders on the same socket (node-side pong/outcome interleaving).
    """
    blob = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    if len(blob) > MAX_FRAME_BYTES:
        raise ProtocolError(f"frame of {len(blob)} bytes exceeds the {MAX_FRAME_BYTES} cap")
    data = _HEADER.pack(len(blob)) + blob
    if lock is None:
        sock.sendall(data)
    else:
        with lock:
            sock.sendall(data)


def _teardown(sock: socket.socket) -> None:
    """Tear a link down so *blocked* readers wake and the peer sees EOF.

    ``close()`` alone is not enough: a thread blocked in ``recv`` holds the
    underlying connection open, so the FIN never leaves and the peer (the
    node's per-connection reader) never returns to its accept loop.
    ``shutdown`` fires the FIN immediately and unblocks the local reader.
    """
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


def _recv_exact(sock: socket.socket, count: int) -> bytes:
    chunks = []
    while count:
        chunk = sock.recv(min(count, 1 << 20))
        if not chunk:
            raise ConnectionError("socket closed mid-frame")
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> object:
    """Read one length-prefixed pickle frame (blocking)."""
    size = _HEADER.unpack(_recv_exact(sock, _HEADER.size))[0]
    if size > MAX_FRAME_BYTES:
        raise ProtocolError(f"incoming frame of {size} bytes exceeds the {MAX_FRAME_BYTES} cap")
    return pickle.loads(_recv_exact(sock, size))


# ------------------------------------------------------------------ counters
@dataclass
class RemoteNodeCounters:
    """What one node link went through, for health reports."""

    connects: int = 0
    losses: int = 0
    reconnect_attempts: int = 0
    respawns: int = 0
    tasks_sent: int = 0
    outcomes: int = 0
    remote_errors: int = 0
    pongs: int = 0
    events_shipped: int = 0
    events_received: int = 0
    dropped_frames: int = 0

    def snapshot(self) -> dict:
        return {
            "connects": self.connects,
            "losses": self.losses,
            "reconnect_attempts": self.reconnect_attempts,
            "respawns": self.respawns,
            "tasks_sent": self.tasks_sent,
            "outcomes": self.outcomes,
            "remote_errors": self.remote_errors,
            "pongs": self.pongs,
            "events_shipped": self.events_shipped,
            "events_received": self.events_received,
            "dropped_frames": self.dropped_frames,
        }


class RemoteNodeBackend:
    """Coordinator-side client for one execution node process.

    Parameters
    ----------
    address:
        ``(host, port)`` the node listens on.
    database:
        The replica shipped to the node on (re)handshake.  Must be picklable.
    queries:
        Queries registered with the node; registered queries travel by *name*
        per task, exactly like the process pool.
    heartbeat_interval / heartbeat_timeout:
        Ping cadence and the liveness deadline: no frame for
        ``heartbeat_timeout`` seconds declares the node lost.
    reconnect_base / reconnect_max:
        Exponential backoff between reconnect attempts after a loss.
    respawn_after:
        Consecutive failed reconnects before ``restarter`` is invoked.
    restarter:
        Optional zero-argument callable that restarts the node process and
        returns its new ``(host, port)`` (or ``None`` to keep the old one).
    """

    def __init__(
        self,
        address: tuple,
        database: "Database",
        queries: "list[Query] | None" = None,
        *,
        node_id: int = 0,
        warmup: bool = True,
        trace: bool = False,
        heartbeat_interval: float = 0.25,
        heartbeat_timeout: float = 2.0,
        reconnect_base: float = 0.05,
        reconnect_max: float = 2.0,
        handshake_timeout: float = 60.0,
        respawn_after: int = 4,
        restarter: "Callable[[], tuple | None] | None" = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if heartbeat_interval <= 0:
            raise OptimizationError("heartbeat_interval must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise OptimizationError("heartbeat_timeout must exceed heartbeat_interval")
        if reconnect_base <= 0 or reconnect_max < reconnect_base:
            raise OptimizationError("reconnect backoff must satisfy 0 < base <= max")
        if respawn_after < 1:
            raise OptimizationError("respawn_after must be at least 1")
        self.address = tuple(address)
        self.database = database
        self.name = f"node[{node_id}]"
        self.node_id = node_id
        self._queries = tuple(queries or ())
        self._registered = {query.name: query for query in self._queries}
        self._warmup = warmup
        self._trace = trace
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.reconnect_base = reconnect_base
        self.reconnect_max = reconnect_max
        self.handshake_timeout = handshake_timeout
        self.respawn_after = respawn_after
        self.restarter = restarter
        self.counters = RemoteNodeCounters()
        #: The node's data signature from the last handshake (guards cache
        #: replication and decides whether a reconnect must re-ship the db).
        self.signature: tuple | None = None
        #: Latest node-side stats dict (shipped-log hits etc.) off replies.
        self.node_stats: dict = {}
        #: Set by the fabric: called with ``(self, events)`` when a reply
        #: carries fresh cache events.
        self.on_events: "Callable[[RemoteNodeBackend, list], None] | None" = None
        self._clock = clock
        self._lock = threading.RLock()
        self._send_lock = threading.Lock()
        self._sock: socket.socket | None = None
        self._live = False
        self._closed = False
        self._epoch = 0
        self._next_task = 0
        self._pending: dict[int, list[Future]] = {}
        self._event_pool: deque = deque()
        self._last_seen = 0.0
        self._last_ping = 0.0
        self._lost_since: float | None = None
        self._connect_failures = 0
        self._next_reconnect = 0.0
        self._partitioned_until = 0.0
        self._partition_pending = False
        self._listeners: list[Callable[[], None]] = []
        self._monitor: threading.Thread | None = None

    # ------------------------------------------------------------------ backend protocol
    def capacity(self) -> int:
        # One executor loop per node: the fabric's central queue provides the
        # pipelining, so a straggler never hoards queued work.
        return 1

    def healthy(self) -> bool:
        return not self._closed and self._live

    def submit(self, request: ExecutionRequest) -> "Future[ExecutionOutcome]":
        if self._closed:
            raise OptimizationError("backend is closed")
        future: "Future[ExecutionOutcome]" = Future()
        payload = query_payload(request.query, self._registered)
        with self._lock:
            if not self._live:
                future.set_exception(NodeLostError(f"{self.name} is not connected"))
                return future
            task_id = self._next_task
            self._next_task += 1
            self._pending[task_id] = [future]
        events = self.take_events()
        frame = (
            "execute",
            task_id,
            payload,
            request.plan,
            request.timeout,
            request.proposal_id,
            events,
        )
        self._transmit_task(task_id, frame, [future], events)
        return future

    def submit_batch(
        self, requests: "list[ExecutionRequest]"
    ) -> "list[Future[ExecutionOutcome]]":
        """Ship a same-query batch as one node task (one-pass shared subtrees)."""
        requests = list(requests)
        if len(requests) == 1:
            return [self.submit(requests[0])]
        if self._closed:
            raise OptimizationError("backend is closed")
        futures: "list[Future[ExecutionOutcome]]" = [Future() for _ in requests]
        query = requests[0].query
        payload = query_payload(query, self._registered)
        with self._lock:
            if not self._live:
                error = NodeLostError(f"{self.name} is not connected")
                for future in futures:
                    future.set_exception(error)
                return futures
            task_id = self._next_task
            self._next_task += 1
            self._pending[task_id] = futures
        items = [(request.plan, request.timeout, request.proposal_id) for request in requests]
        events = self.take_events()
        frame = ("execute_batch", task_id, payload, items, events)
        self._transmit_task(task_id, frame, futures, events)
        return futures

    def close(self) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._live = False
            self._epoch += 1
            sock, self._sock = self._sock, None
            pending = list(self._pending.values())
            self._pending.clear()
        if sock is not None:
            try:
                send_frame(sock, ("shutdown",), lock=self._send_lock)
            except Exception:  # noqa: BLE001 - best-effort goodbye
                pass
            _teardown(sock)
        error = OptimizationError(f"{self.name} closed with requests in flight")
        for futures in pending:
            for future in futures:
                _settle(future, exc=error)

    # ------------------------------------------------------------------ connection lifecycle
    def connect(self) -> None:
        """Establish the link (handshake, receiver, monitor); raises on failure.

        Failure leaves the background monitor running, so a node that comes
        up later still joins — callers that need the node *now* treat the
        raise as fatal, the fabric treats it as "not yet".
        """
        try:
            self._connect_once()
        finally:
            self._ensure_monitor()

    def _connect_once(self) -> None:
        if self._closed:
            raise OptimizationError("backend is closed")
        sock = socket.create_connection(self.address, timeout=self.handshake_timeout)
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.settimeout(self.handshake_timeout)
            send_frame(sock, ("hello", PROTOCOL_VERSION))
            ack = recv_frame(sock)
            if not (isinstance(ack, tuple) and len(ack) == 4 and ack[0] == "hello_ack"):
                raise ProtocolError(f"unexpected handshake reply {ack!r}")
            _, version, has_replica, signature = ack
            if version != PROTOCOL_VERSION:
                raise ProtocolError(
                    f"node speaks protocol {version}, coordinator speaks {PROTOCOL_VERSION}"
                )
            if not has_replica or (self.signature is not None and signature != self.signature):
                # Fresh (or mismatched) node: ship the replica, primed with
                # the coordinator cache's replayable outcome logs.
                send_frame(
                    sock,
                    ("replica", self.database, self._queries, self._warmup, self._trace,
                     self._initial_events()),
                )
                ack = recv_frame(sock)
                if not (isinstance(ack, tuple) and len(ack) == 2 and ack[0] == "replica_ack"):
                    raise ProtocolError(f"unexpected replica reply {ack!r}")
                signature = ack[1]
            sock.settimeout(None)
        except BaseException:
            sock.close()
            raise
        with self._lock:
            self._epoch += 1
            epoch = self._epoch
            self._sock = sock
            self._live = True
            self._lost_since = None
            self._connect_failures = 0
            now = self._clock()
            self._last_seen = now
            self._last_ping = now
            self.signature = signature
            self.counters.connects += 1
        receiver = threading.Thread(
            target=self._receive_loop, args=(sock, epoch), name=f"{self.name}-recv", daemon=True
        )
        receiver.start()
        self._notify()

    def _connection_lost(self, reason: str) -> None:
        with self._lock:
            if not self._live:
                return
            self._live = False
            self._epoch += 1
            sock, self._sock = self._sock, None
            pending = list(self._pending.values())
            self._pending.clear()
            self._lost_since = self._clock()
            self._next_reconnect = self._clock()
            self.counters.losses += 1
        if sock is not None:
            _teardown(sock)
        error = NodeLostError(f"{self.name} lost: {reason}")
        for futures in pending:
            for future in futures:
                _settle(future, exc=error)
        self._notify()

    # ------------------------------------------------------------------ sending
    def _transmit_task(
        self, task_id: int, frame: tuple, futures: "list[Future]", events: list
    ) -> None:
        try:
            self._send(frame)
        except (pickle.PicklingError, TypeError) as exc:
            # Serialization failed before any byte hit the wire: the request
            # itself is unshippable — a genuine error, not a node loss.
            with self._lock:
                self._pending.pop(task_id, None)
            for future in futures:
                _settle(future, exc=exc)
            return
        except Exception as exc:  # noqa: BLE001 - transport failure
            self._connection_lost(f"send failed: {type(exc).__name__}: {exc}")
            return
        self.counters.tasks_sent += 1
        if events:
            self.counters.events_shipped += len(events)

    def _send(self, frame: tuple, force: bool = False) -> None:
        if not force and self.partitioned():
            # Simulated partition: the frame enters the blackhole.
            self.counters.dropped_frames += 1
            return
        with self._lock:
            sock = self._sock
        if sock is None:
            raise ConnectionError("not connected")
        send_frame(sock, frame, lock=self._send_lock)

    # ------------------------------------------------------------------ receiving
    def _receive_loop(self, sock: socket.socket, epoch: int) -> None:
        while True:
            try:
                frame = recv_frame(sock)
            except Exception:  # noqa: BLE001 - any transport error ends the link
                break
            with self._lock:
                if self._closed or epoch != self._epoch:
                    return
                if not self.partitioned():
                    self._last_seen = self._clock()
            if self.partitioned():
                # Inbound leg of the blackhole: the reply is lost too.
                self.counters.dropped_frames += 1
                continue
            try:
                self._handle(frame)
            except Exception:  # noqa: BLE001 - a poisoned frame ends the link
                break
        with self._lock:
            stale = self._closed or epoch != self._epoch
        if not stale:
            self._connection_lost("connection closed by node")

    def _handle(self, frame: object) -> None:
        if not isinstance(frame, tuple) or not frame:
            raise ProtocolError(f"malformed frame {frame!r}")
        kind = frame[0]
        if kind == "pong":
            self.counters.pongs += 1
            return
        if kind == "outcome":
            _, task_id, outcome, events, stats = frame
            self._absorb(events, stats)
            with self._lock:
                futures = self._pending.pop(task_id, None)
            if futures:
                self.counters.outcomes += 1
                _settle(futures[0], result=outcome)
            return
        if kind == "outcome_batch":
            _, task_id, outcomes, events, stats = frame
            self._absorb(events, stats)
            with self._lock:
                futures = self._pending.pop(task_id, None)
            if futures:
                self.counters.outcomes += len(outcomes)
                for future, outcome in zip(futures, outcomes):
                    _settle(future, result=outcome)
            return
        if kind == "error":
            _, task_id, exc = frame
            with self._lock:
                futures = self._pending.pop(task_id, None)
            if futures:
                self.counters.remote_errors += 1
                for future in futures:
                    _settle(future, exc=exc)
            return
        # Unknown frame kinds are ignored for forward compatibility.

    def _absorb(self, events: list, stats: dict) -> None:
        if stats:
            self.node_stats = dict(stats)
        if events:
            self.counters.events_received += len(events)
            callback = self.on_events
            if callback is not None:
                callback(self, list(events))

    # ------------------------------------------------------------------ liveness monitor
    def _ensure_monitor(self) -> None:
        with self._lock:
            if self._closed:
                return
            if self._monitor is None or not self._monitor.is_alive():
                self._monitor = threading.Thread(
                    target=self._monitor_loop, name=f"{self.name}-monitor", daemon=True
                )
                self._monitor.start()

    def _monitor_loop(self) -> None:
        tick = max(0.005, min(0.05, self.heartbeat_interval / 4.0))
        while not self._closed:
            time.sleep(tick)
            if self._closed:
                return
            now = self._clock()
            if self._partition_pending and now >= self._partitioned_until:
                # The blackhole dropped frames; the surviving socket cannot be
                # trusted to carry a consistent stream — reset the link.
                self._partition_pending = False
                self._connection_lost("partition healed; resetting the link")
                continue
            if self._live:
                if now - self._last_seen > self.heartbeat_timeout:
                    self._connection_lost(
                        f"no frame for {self.heartbeat_timeout:.2f}s (heartbeat deadline)"
                    )
                elif now - self._last_ping >= self.heartbeat_interval:
                    self._last_ping = now
                    try:
                        self._send(("ping", int(now * 1000)))
                    except Exception:  # noqa: BLE001 - transport failure
                        self._connection_lost("ping send failed")
                continue
            # Lost: reconnect with exponential backoff (blocked while the
            # simulated partition is still in force).
            if self.partitioned() or now < self._next_reconnect:
                continue
            self.counters.reconnect_attempts += 1
            try:
                self._connect_once()
            except Exception:  # noqa: BLE001 - node still unreachable
                with self._lock:
                    self._connect_failures += 1
                    failures = self._connect_failures
                delay = min(
                    self.reconnect_max, self.reconnect_base * (2.0 ** min(failures, 16))
                )
                self._next_reconnect = self._clock() + delay
                if self.restarter is not None and failures >= self.respawn_after:
                    self._respawn()

    def _respawn(self) -> None:
        try:
            address = self.restarter()  # type: ignore[misc]
        except Exception:  # noqa: BLE001 - supervisor failed; keep backing off
            return
        if address:
            self.address = tuple(address)
        # The fresh process has no replica, so the next handshake re-ships it.
        self.signature = None
        self.counters.respawns += 1
        with self._lock:
            self._connect_failures = 0
        self._next_reconnect = self._clock()

    # ------------------------------------------------------------------ cache piggyback pool
    def offer_events(self, events: list) -> None:
        """Queue cache events to piggyback on this node's next request frame."""
        with self._lock:
            self._event_pool.extend(events)
            while len(self._event_pool) > EVENT_POOL_LIMIT:
                self._event_pool.popleft()

    def take_events(self, limit: int = EVENTS_PER_FRAME) -> list:
        with self._lock:
            taken = []
            while self._event_pool and len(taken) < limit:
                taken.append(self._event_pool.popleft())
        return taken

    # ------------------------------------------------------------------ chaos hooks
    def partitioned(self) -> bool:
        return self._clock() < self._partitioned_until

    def inject_drop(self) -> None:
        """Sever the connection abruptly (reconnect begins immediately)."""
        self._connection_lost("injected connection drop")

    def inject_partition(self, seconds: float) -> None:
        """Blackhole both directions for ``seconds`` without closing the socket.

        Liveness must come from the heartbeat deadline; reconnects stay
        blocked until the partition heals.
        """
        with self._lock:
            self._partitioned_until = self._clock() + seconds
            self._partition_pending = True

    def inject_kill(self) -> None:
        """Kill the node process (``("die",)`` -> ``os._exit``); respawn applies."""
        try:
            self._send(("die",), force=True)
        except Exception:  # noqa: BLE001 - already unreachable is fine
            pass
        self._connection_lost("injected node kill")

    # ------------------------------------------------------------------ introspection
    def add_listener(self, callback: Callable[[], None]) -> None:
        """Register a callback fired on live/lost transitions (fabric wakeups)."""
        self._listeners.append(callback)

    def _notify(self) -> None:
        for callback in list(self._listeners):
            try:
                callback()
            except Exception:  # noqa: BLE001 - listeners must not kill the link
                pass

    def status(self) -> dict:
        with self._lock:
            pending = sum(len(futures) for futures in self._pending.values())
            lost_for = (
                None
                if self._live or self._lost_since is None
                else round(self._clock() - self._lost_since, 3)
            )
            report = {
                "name": self.name,
                "address": list(self.address),
                "live": self._live,
                "pending": pending,
                "lost_for": lost_for,
                "partitioned": self.partitioned(),
                "node": dict(self.node_stats),
            }
            report.update(self.counters.snapshot())
        return report

    def _initial_events(self) -> list:
        cache = getattr(self.database, "execution_cache", None)
        if cache is None or not hasattr(cache, "export_outcomes"):
            return []
        try:
            return cache.export_outcomes()
        except Exception:  # noqa: BLE001 - priming is best-effort
            return []


def _settle(future: Future, result=None, exc=None) -> None:
    """Complete a future exactly once, tolerating scheduler-side cancels.

    Single settlement is what makes "never double-charged" structural: a late
    reply for a lease that was already reassigned finds the future settled
    (or its task id already dropped) and is discarded.
    """
    try:
        if exc is not None:
            future.set_exception(exc)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass
