"""Plan serving: a long-lived server answering query streams from a store.

The paper's offline/online split made operational.  The pieces:

* :mod:`repro.serve.store` — the persistent, fingerprint-keyed plan store
  (best plans, observation histories, optimizer state, outcome-cache logs)
  under a versioned, checksummed on-disk format: an atomically written
  snapshot and an append-only log of what changed since.
* :mod:`repro.serve.server` — :class:`PlanServer`: microsecond fast path for
  known fingerprints, default-planner fallback + promotion on first sight,
  latency telemetry, drift detection, checkpoints that cost what changed and
  a resume that replays them.
* :mod:`repro.serve.admission` — popularity/regression/SLO-weighted triage
  deciding which fingerprints earn background optimization budget.
* :mod:`repro.serve.traffic` — deterministic Zipf/bursty/drifting stream
  generation and :func:`drive_stream`, the serve loop.

``python -m repro.serve`` runs a small end-to-end demo.
"""

from repro.serve.admission import AdmissionConfig, AdmissionPolicy, AdmissionTask
from repro.serve.server import (
    MaintenanceRecord,
    PlanServer,
    ServeConfig,
    ServeCounters,
    ServeDecision,
    data_signature,
)
from repro.serve.store import (
    STORE_FORMAT_VERSION,
    PlanStore,
    StoredObservation,
    StoreEntry,
    StoreFormatError,
    StoreHeader,
    read_store_header,
)
from repro.serve.traffic import (
    Arrival,
    DriftEvent,
    ServeRecord,
    StreamResult,
    TrafficConfig,
    TrafficGenerator,
    drive_stream,
)

__all__ = [
    "AdmissionConfig",
    "AdmissionPolicy",
    "AdmissionTask",
    "Arrival",
    "DriftEvent",
    "MaintenanceRecord",
    "PlanServer",
    "PlanStore",
    "STORE_FORMAT_VERSION",
    "ServeConfig",
    "ServeCounters",
    "ServeDecision",
    "ServeRecord",
    "StoreEntry",
    "StoreFormatError",
    "StoreHeader",
    "StoredObservation",
    "StreamResult",
    "TrafficConfig",
    "TrafficGenerator",
    "data_signature",
    "drive_stream",
    "read_store_header",
]
