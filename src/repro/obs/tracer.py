"""Deterministic span/event tracer for the simulated machine.

Records are timestamped by the *simulated* clock only — instrumented
sites pass in ``EventLoop.now`` / ``PoolProcess.ready_at`` values, and
this module never reads a host clock (prismalint PL006 enforces that
statically).  Two runs with the same seed therefore produce
bit-identical traces, and the CI trace-determinism job diffs their
exports byte-for-byte.

Storage is a bounded ring buffer (``collections.deque(maxlen=...)``):
the newest ``capacity`` records are kept, ``emitted`` counts everything
ever recorded, and ``dropped`` is the difference — bounded memory with
an explicit signal that truncation happened.

No-op mode
----------
Tracing is configured at construction and collapses to *nothing* on the
hot paths: instrumented owners store ``self._tracer = active(tracer)``,
which is ``None`` unless a tracer was passed **and** it is enabled, and
guard every record with ``if self._tracer is not None``.  Disabled
tracing therefore costs one attribute load and a ``None`` test per
event — the perf gate's ``obs`` suite enforces a ≤2 % wall budget on
the E1 and E4 hot paths, and ``tests/test_obs.py`` checks the disabled
path allocates nothing in this module.

Record kinds (the ``kind`` field, also the Chrome-trace category):

========================  ==================================================
``packet.hop``            one store-and-forward hop (span: enqueue→arrival)
``packet.deliver``        packet reached its destination (instant)
``packet.drop``           bounded queue overflowed (instant)
``process.send``          timeline-style message (span: departure→arrival)
``process.post``          reactive-style message (span: departure→arrival)
``operator.execute``      one subplan at one OFM (span: before→after charge)
``executor.repartition``  one hash shuffle (instant, row/target counts)
``executor.query``        one whole query (span: started→finished)
``2pc.*``                 commit-protocol phases (prepare, phase_two, ...)
``recovery.*``            restart work (log_scan, wal_replay, catch_up)
========================  ==================================================
"""

from __future__ import annotations

from collections import deque
from typing import Any

__all__ = ["TraceRecord", "Tracer", "active"]

#: One trace record: (start_s, duration_s, kind, name, node, actor, args)
#: where ``args`` is a tuple of ``(key, value)`` pairs sorted by key.
TraceRecord = tuple[float, float, str, str, int, str, tuple]

#: Default ring-buffer capacity (records, not bytes).
DEFAULT_CAPACITY = 262_144


def active(tracer: "Tracer | None") -> "Tracer | None":
    """The tracer an instrumented site should hold — or ``None``.

    This is the whole no-op story: owners call ``active(tracer)`` once
    at construction and keep the result; a missing or disabled tracer
    becomes ``None``, so the per-event cost of disabled tracing is a
    single ``is not None`` test.
    """
    if tracer is not None and tracer.enabled:
        return tracer
    return None


class Tracer:
    """Bounded, deterministic recorder of spans and instant events.

    Parameters
    ----------
    capacity:
        Ring-buffer size in records; the newest *capacity* records are
        kept and ``dropped`` counts what the bound discarded.
    enabled:
        Disabled tracers are never consulted (``active`` maps them to
        ``None`` at instrumentation sites); construct with
        ``enabled=False`` to measure tracing's no-op overhead.
    """

    __slots__ = ("capacity", "enabled", "emitted", "_events")

    def __init__(self, capacity: int = DEFAULT_CAPACITY, enabled: bool = True):
        if capacity <= 0:
            raise ValueError(f"tracer capacity must be positive, got {capacity}")
        self.capacity = capacity
        self.enabled = enabled
        self.emitted = 0
        self._events: deque[TraceRecord] = deque(maxlen=capacity)

    # -- recording ------------------------------------------------------------

    def event(
        self,
        ts: float,
        kind: str,
        name: str,
        node: int = 0,
        actor: str = "",
        **args: Any,
    ) -> None:
        """Record an instant event at simulated time *ts*."""
        self.emitted += 1
        self._events.append(
            (ts, 0.0, kind, name, node, actor, tuple(sorted(args.items())))
        )

    def span(
        self,
        start: float,
        end: float,
        kind: str,
        name: str,
        node: int = 0,
        actor: str = "",
        **args: Any,
    ) -> None:
        """Record a span from simulated *start* to *end*."""
        self.emitted += 1
        self._events.append(
            (start, end - start, kind, name, node, actor, tuple(sorted(args.items())))
        )

    # -- access ---------------------------------------------------------------

    @property
    def events(self) -> tuple[TraceRecord, ...]:
        """The retained records, oldest first."""
        return tuple(self._events)

    @property
    def dropped(self) -> int:
        """Records discarded by the ring-buffer bound."""
        return self.emitted - len(self._events)

    def __len__(self) -> int:
        return len(self._events)

    # -- Snapshot protocol ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "enabled": self.enabled,
            "capacity": self.capacity,
            "emitted": self.emitted,
            "recorded": len(self._events),
            "dropped": self.dropped,
        }

    def fingerprint(self) -> str:
        """SHA-256 over capacity, emitted count, and every retained record.

        Hashing the records themselves (not just counters) is what the
        trace-determinism gate relies on: any divergence in any field of
        any record changes the digest.
        """
        import hashlib

        payload = repr((self.capacity, self.emitted, tuple(self._events)))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def reset(self) -> None:
        """Drain: forget every record (a tracer operation, not a leg of
        the Snapshot protocol — a long run empties the ring before it
        wraps)."""
        self.emitted = 0
        self._events.clear()
