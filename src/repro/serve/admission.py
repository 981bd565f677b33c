"""Admission control: bounded concurrent query processes at the GDH.

The paper's GDH creates one component instance per query "possibly
running at its own processor" — but a 64-element machine cannot usefully
run 10,000 of them at once.  This queue bounds how many statements
overlap in *simulated* time.  Each slot remembers when it frees; an
arriving statement takes the earliest-free slot and starts at
``max(arrival, slot_free)``, so under saturation statements queue FIFO
in call order and the wait shows up on the session's clock (and in the
latency percentiles the serving benchmark reports).

Everything is driven by simulated clocks already in deterministic call
order, so two same-seed runs wait identically — no host concurrency, no
wall clock (prismalint PL001/PL006).
"""

from __future__ import annotations

import math
from typing import Any

from repro.obs.api import SnapshotMixin
from repro.obs.metrics import Histogram

__all__ = ["AdmissionQueue"]

#: Queue-depth buckets: how many statements were in flight at arrival.
DEPTH_BUCKETS = (0, 1, 2, 4, 8, 16, 32, 64, 128)
#: Wait-time buckets (simulated seconds).
WAIT_BUCKETS = (0.0, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0)


class AdmissionQueue(SnapshotMixin):
    """A k-slot FIFO admission queue over simulated time."""

    def __init__(self, slots: int = 8):
        if slots < 1:
            raise ValueError("admission queue needs at least one slot")
        self.slots = slots
        #: Simulated time each slot frees; ``inf`` marks a claimed slot
        #: whose statement has not released yet.
        self._free_at = [0.0] * slots
        self.admitted = 0
        self.delayed = 0
        self.total_wait_s = 0.0
        self.queue_depth = Histogram("admission.queue_depth", DEPTH_BUCKETS)
        self.wait_s = Histogram("admission.wait_s", WAIT_BUCKETS)

    def admit(self, session) -> int:
        """Claim a slot for *session*'s next statement.

        Moves the session clock forward to the admission time when all
        slots are busy at arrival; returns the slot index, which the
        caller must :meth:`release` when the statement finishes.
        """
        arrival = session.clock
        index = min(range(self.slots), key=lambda i: (self._free_at[i], i))
        start = max(arrival, self._free_at[index])
        depth = sum(1 for free_at in self._free_at if free_at > arrival)
        self.queue_depth.observe(depth)
        wait = start - arrival
        if wait > 0.0:
            self.delayed += 1
            self.total_wait_s += wait
        self.wait_s.observe(wait)
        self.admitted += 1
        self._free_at[index] = math.inf
        session.clock = start
        return index

    def release(self, index: int, end_time: float) -> None:
        """Free a slot at *end_time* (the statement's finish clock)."""
        self._free_at[index] = end_time

    # -- Snapshot ----------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "slots": self.slots,
            "admitted": self.admitted,
            "delayed": self.delayed,
            "total_wait_s": self.total_wait_s,
            "queue_depth": dict(self.queue_depth.stats()),
            "wait_s": dict(self.wait_s.stats()),
        }
