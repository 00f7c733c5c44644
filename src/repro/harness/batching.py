"""Adaptive batch sizing: the ``batch_size="auto"`` controller.

PR 4's batched ask uses a fixed q (proposals in flight per query).  The
tradeoff it hand-tunes: throughput gain saturates at the worker count, while
sample-efficiency loss *grows* with q (each extra in-flight proposal is
chosen with one less observation).  :class:`BatchSizeController` closes the
loop with the two signals the scheduler can already measure:

* **starvation** — the backend had free worker slots but no ready state
  was allowed to issue (every query parked at its q cap).  A slot is what
  the scheduler counts against ``capacity()``: a worker *task*, i.e. a lone
  request or a same-query group submitted through ``submit_batch``.
  Persistent starvation means q is the bottleneck: widen toward the backend
  capacity.  With per-request submission a wider q puts more of a query's
  plans on idle workers; on a backend with a batch path it widens the
  query's one task (more plans share one pass over their subtrees) and idle
  workers stay idle until another query is ready.
* **stall** — a sliding window of completed observations produced no new
  best latency for any query.  The extra parallelism is no longer buying
  information: narrow back toward sequential proposing.

The controller is deliberately minimal — integer q, one-step moves, small
hysteresis counters — because it sits on the scheduler thread of
:class:`~repro.harness.runner.WorkloadSession` and must never become the hot
path.  Both signals are read off the wall clock (which rounds found a slot
idle, which outcomes fell inside a window), so in auto mode traces depend on
completion timing and runs are not bit-for-bit reproducible.  A *fixed* q is:
on a backend with a batch path every query's trace equals
:func:`~repro.core.protocol.drive` on that query alone at that q; only per-request
submission at q > 1 shares auto mode's caveat.
"""

from __future__ import annotations

from collections import deque

from repro.exceptions import OptimizationError


class BatchSizeController:
    """Widens q while workers idle; narrows when improvement stalls.

    Parameters
    ----------
    max_q:
        Upper bound for q — the backend capacity (with per-request
        submission more in-flight proposals than worker slots can never
        help).
    min_q:
        Lower bound (1 = sequential proposing).
    widen_patience:
        Consecutive starved scheduling rounds required before widening.
    stall_window:
        Completed observations inspected for the narrowing signal; if none
        of the last ``stall_window`` observations improved its query's best
        latency, q shrinks by one.
    """

    def __init__(
        self,
        max_q: int,
        min_q: int = 1,
        widen_patience: int = 2,
        stall_window: int = 8,
    ) -> None:
        if min_q < 1:
            raise OptimizationError("min_q must be at least 1")
        if max_q < min_q:
            raise OptimizationError("max_q must be at least min_q")
        if widen_patience < 1:
            raise OptimizationError("widen_patience must be at least 1")
        if stall_window < 1:
            raise OptimizationError("stall_window must be at least 1")
        self.min_q = min_q
        self.max_q = max_q
        self.widen_patience = widen_patience
        self.stall_window = stall_window
        self.q = min_q
        self._starved_rounds = 0
        self._recent: deque[bool] = deque(maxlen=stall_window)
        #: (q values over time, for observability/tests)
        self.history: list[int] = [min_q]

    # ------------------------------------------------------------------ signals
    def record_round(self, idle_slots: int, starved: bool) -> None:
        """One scheduling round: ``idle_slots`` free while ``starved`` states
        wanted to issue but were q-capped."""
        if starved and idle_slots > 0:
            self._starved_rounds += 1
            if self._starved_rounds >= self.widen_patience:
                self._move(self.q + 1)
                self._starved_rounds = 0
        else:
            self._starved_rounds = 0

    def record_outcome(self, improved: bool) -> None:
        """One completed observation; ``improved`` = new best for its query."""
        self._recent.append(improved)
        if (
            len(self._recent) == self.stall_window
            and not any(self._recent)
            and self.q > self.min_q
        ):
            self._move(self.q - 1)
            self._recent.clear()

    # ------------------------------------------------------------------ internals
    def _move(self, q: int) -> None:
        q = max(self.min_q, min(self.max_q, q))
        if q != self.q:
            self.q = q
            self.history.append(q)
