"""Discrete-event simulation core.

A minimal, deterministic event engine: events are plain ``(time,
sequence, fn, arg)`` tuples kept in a binary heap.  Ties in time are
broken by insertion order, which makes every simulation run
reproducible.

The engine is deliberately free of any PRISMA-specific knowledge; the
network simulator (:mod:`repro.machine.network`) and the disk model build
on it.

Hot-path design
---------------
Every simulated packet hop costs at least one event, so the scheduler is
the single hottest code in the repository.  Two choices keep it lean:

* Heap entries are tuples, not objects.  Tuple comparison on
  ``(time, sequence)`` is a single C-level operation; there is no
  per-event instance, ``__lt__`` dispatch, or attribute access.
* Callbacks are stored as ``(fn, arg)`` pairs and invoked as
  ``fn(arg)``.  :class:`~repro.machine.traffic.PoissonTraffic` uses
  :meth:`EventLoop.schedule_call_at` to pass a bound method plus its
  argument directly, avoiding a closure allocation per event.  The
  zero-argument convenience API (:meth:`EventLoop.schedule_at` /
  :meth:`EventLoop.schedule`) stores the callback *as* the argument of a
  shared trampoline.

A scheduled event fires: there is no cancellation, so the innermost
loop tests nothing per popped event but the time bound.

The loop also keeps O(1) profiling counters — pending events, total
events fired, and the peak heap size — which the benchmark harnesses
read directly, timing the host side with their own clock: ``pending``
is ``len(_queue)``, ``events_fired_total`` is ``_fired_total`` (bumped
per event by :meth:`EventLoop.step`, per run by :meth:`EventLoop.run`),
and ``heap_peak`` is ``_heap_peak``, raised after every push.

A push is ``heappush(_queue, (time, _sequence, fn, arg))``, then
``_sequence += 1``, then the ``heap_peak`` update.  The per-hop path of
:class:`~repro.machine.network.PacketNetwork` performs exactly these
three steps inline, saving the :meth:`EventLoop.schedule_call_at` frame
on every hop.  It skips only the past-time check, which cannot fire
there: an arrival is a departure (a positive service time after
``now`` at the earliest) plus a non-negative switch delay.
"""

from __future__ import annotations

import heapq
import sys
from collections.abc import Callable
from typing import Any

from repro.errors import MachineError

EventCallback = Callable[[], None]


def _call0(callback: EventCallback) -> None:
    """Trampoline invoking a zero-argument callback stored as the arg."""
    callback()


class EventLoop:
    """A deterministic discrete-event scheduler.

    Example
    -------
    >>> loop = EventLoop()
    >>> fired = []
    >>> loop.schedule_at(2.0, lambda: fired.append("b"))
    >>> loop.schedule_at(1.0, lambda: fired.append("a"))
    >>> loop.run()
    2
    >>> fired
    ['a', 'b']
    >>> loop.now
    2.0
    """

    __slots__ = (
        "_queue",
        "_now",
        "_sequence",
        "_running",
        "_fired_total",
        "_heap_peak",
    )

    def __init__(self):
        # Heap of (time, sequence, fn, arg); fired as fn(arg).
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._now = 0.0
        self._sequence = 0
        self._running = False
        self._fired_total = 0
        self._heap_peak = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def pending(self) -> int:
        """Number of not-yet-fired events.  O(1)."""
        return len(self._queue)

    @property
    def events_fired_total(self) -> int:
        """Events fired over the loop's lifetime."""
        return self._fired_total

    @property
    def heap_peak(self) -> int:
        """Largest heap size ever reached."""
        return self._heap_peak

    def pending_args(self, fn: Callable[[Any], None]) -> list[Any]:
        """The arguments of the not-yet-fired events that call *fn*.

        Heap order, not firing order.  O(pending); meant for occasional
        questions such as a network's packets in flight, not per event.
        """
        return [arg for _time, _seq, queued, arg in self._queue if queued == fn]

    # -- scheduling ---------------------------------------------------------

    def schedule_call_at(
        self, time: float, fn: Callable[[Any], None], arg: Any
    ) -> None:
        """Hot path: fire ``fn(arg)`` at absolute simulated *time*.

        No handle, no closure — the event is a bare heap tuple.  Use
        this from per-packet / per-message code.
        """
        if time < self._now:
            raise MachineError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        queue = self._queue
        heapq.heappush(queue, (time, self._sequence, fn, arg))
        self._sequence += 1
        if len(queue) > self._heap_peak:
            self._heap_peak = len(queue)

    def schedule_at(self, time: float, callback: EventCallback) -> None:
        """Schedule zero-argument *callback* at absolute simulated *time*."""
        self.schedule_call_at(time, _call0, callback)

    def schedule(self, delay: float, callback: EventCallback) -> None:
        """Schedule zero-argument *callback* *delay* seconds from now."""
        if delay < 0:
            raise MachineError(f"negative delay: {delay}")
        self.schedule_call_at(self._now + delay, _call0, callback)

    # -- execution ----------------------------------------------------------

    def step(self) -> bool:
        """Fire the single next event.  Returns ``False`` if none remain."""
        if not self._queue:
            return False
        time, _seq, fn, arg = heapq.heappop(self._queue)
        self._now = time
        self._fired_total += 1
        fn(arg)
        return True

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run events in order.

        Parameters
        ----------
        until:
            Stop once simulated time would pass this bound; the clock is
            advanced exactly to *until* (events scheduled later remain
            queued).  A bound before :attr:`now` is rejected: the clock
            never runs backwards.
        max_events:
            Safety valve: stop after firing this many events.

        Returns
        -------
        int
            Number of events fired.
        """
        if self._running:
            raise MachineError("event loop is not reentrant")
        if until is not None and until < self._now:
            raise MachineError(f"cannot run until the past: {until} < now {self._now}")
        self._running = True
        fired = 0
        # Local bindings: every name in the loop body resolves via
        # LOAD_FAST instead of attribute / global lookups.  The bounds
        # become sentinels (+inf / maxsize) so the loop body pays plain
        # comparisons instead of None checks, and events are popped
        # immediately (no head peek) — a too-late event is pushed back
        # once, when the run stops.
        queue = self._queue
        pop = heapq.heappop
        push = heapq.heappush
        time_bound = float("inf") if until is None else until
        event_bound = sys.maxsize if max_events is None else max_events
        try:
            while queue:
                if fired >= event_bound:
                    break
                head = pop(queue)
                time, _seq, fn, arg = head
                if time > time_bound:
                    push(queue, head)
                    self._now = time_bound
                    break
                self._now = time
                fn(arg)
                fired += 1
            else:
                if until is not None and until > self._now:
                    self._now = until
        finally:
            self._running = False
            self._fired_total += fired
        return fired
