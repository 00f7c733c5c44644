"""Durable session state: periodic checkpoints and bit-for-bit resume.

A paper-scale tuning run spends hours executing plans; a crash at hour three
must not discard them.  :class:`CheckpointManager` persists a
:class:`SessionCheckpoint` — the technique's optimizer (with all its mutable
model/RNG state), the in-progress query state, every completed per-query
result and the execution cache's replayable outcome logs — as **one** pickle
payload, so shared references between the optimizer and its states survive
the round trip intact.

Checkpoints are only taken at *quiescent* points (after an ``observe``, with
no proposal outstanding), which is what makes resumption exact: the restored
optimizer continues from precisely the suggest/observe boundary the
checkpoint captured, and because plan execution is deterministic in
``(query, plan, timeout)`` given the database seed, the resumed session's
traces are bit-for-bit identical to an uninterrupted run.

Writes are atomic (temp file + :func:`os.replace`): a crash *during* a
checkpoint leaves the previous checkpoint intact, never a torn file.
"""

from __future__ import annotations

import contextlib
import os
import pickle
from dataclasses import dataclass, field

from repro.utils.logging import get_logger

#: Bumped when the checkpoint layout changes; mismatched files are ignored
#: (the session just starts over) instead of resuming garbage.
CHECKPOINT_VERSION = 1


def atomic_write_bytes(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + :func:`os.replace`).

    A crash mid-write leaves any previous file intact, never a torn one, and a
    write that fails removes its temp file before re-raising.  Every durable
    artifact in the repository — session checkpoints and the plan store's
    snapshots (:mod:`repro.serve.store`) — goes through this one function, so
    there is one crash-safety story.
    """
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def atomic_pickle_save(path: str, payload: object) -> None:
    """Pickle ``payload`` and write it with :func:`atomic_write_bytes`.

    Pickling finishes before anything touches the disk: an unpicklable
    payload raises with the previous file intact and no temp file created.
    """
    atomic_write_bytes(path, pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))


def tolerant_pickle_load(path: str) -> object | None:
    """Unpickle ``path``, or ``None`` when the file is absent or unreadable.

    Corruption maps to "no artifact", never an error: callers that persist
    recoverable state (checkpoints, plan stores) treat a damaged file exactly
    like a missing one and rebuild from scratch.  But never *silently*: a
    discarded artifact means hours of paid executions get re-paid, so what
    was dropped and why is logged (absence — the normal cold start — only at
    debug level).
    """
    logger = get_logger("repro.harness.checkpoint")
    try:
        with open(path, "rb") as handle:
            payload = handle.read()
    except FileNotFoundError:
        logger.debug("no artifact at %s (cold start)", path)
        return None
    except OSError as exc:
        logger.warning("discarding unreadable artifact %s: %s: %s", path, type(exc).__name__, exc)
        return None
    try:
        return pickle.loads(payload)
    except (pickle.UnpicklingError, EOFError, AttributeError, ImportError) as exc:
        logger.warning(
            "discarding corrupt artifact %s (%d bytes): %s: %s",
            path,
            len(payload),
            type(exc).__name__,
            exc,
        )
        return None


@dataclass
class SessionCheckpoint:
    """Everything needed to resume one technique's run over one query list."""

    technique: str
    seed: int
    query_names: list[str]
    #: Per-query results of queries fully drained before the checkpoint.
    completed: dict = field(default_factory=dict)
    #: The technique instance mid-run (models, RNGs, shared caches) — pickled
    #: together with ``state`` so references between them stay shared.
    optimizer: object | None = None
    #: The in-progress state (per-query or workload-level), quiescent: no
    #: proposal outstanding.  ``None`` at query boundaries.
    state: object | None = None
    #: The execution cache's outcome-event logs
    #: (:meth:`~repro.db.plan_cache.ExecutionCache.export_outcomes`), so a
    #: resumed session replays already-executed plans instead of re-paying
    #: for them.
    cache_events: list = field(default_factory=list)
    version: int = CHECKPOINT_VERSION

    def matches(self, technique: str, seed: int, query_names: list[str]) -> bool:
        """Whether this checkpoint belongs to the run being (re)started."""
        return (
            self.version == CHECKPOINT_VERSION
            and self.technique == technique
            and self.seed == seed
            and self.query_names == list(query_names)
        )


class CheckpointManager:
    """Owns one checkpoint file: cadence, atomic writes, tolerant reads."""

    def __init__(self, path: str, every: int = 25) -> None:
        if every < 1:
            raise ValueError("checkpoint cadence must be at least 1")
        self.path = str(path)
        self.every = every
        self._since_save = 0

    def due(self) -> bool:
        """Count one observation; ``True`` every ``every`` observations."""
        self._since_save += 1
        if self._since_save >= self.every:
            self._since_save = 0
            return True
        return False

    def save(self, checkpoint: SessionCheckpoint) -> None:
        """Atomically persist ``checkpoint`` (temp file + rename)."""
        self._since_save = 0
        atomic_pickle_save(self.path, checkpoint)

    def load(self) -> SessionCheckpoint | None:
        """The stored checkpoint, or ``None`` when absent/unreadable.

        A corrupt or version-mismatched file means "no checkpoint", never an
        error: the worst outcome of a damaged checkpoint is a from-scratch
        run, which is exactly what checkpointing was protecting against
        anyway.
        """
        loaded = tolerant_pickle_load(self.path)
        if not isinstance(loaded, SessionCheckpoint) or loaded.version != CHECKPOINT_VERSION:
            return None
        return loaded

    def clear(self) -> None:
        """Delete the checkpoint (the run completed; nothing to resume)."""
        try:
            os.remove(self.path)
        except FileNotFoundError:
            pass
