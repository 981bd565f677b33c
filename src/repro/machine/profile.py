"""Profiling counters for the discrete-event core.

The :class:`~repro.machine.events.EventLoop` keeps three O(1) counters —
live events, total events fired, and peak heap size.  This module turns
them into per-measurement snapshots the benchmark harnesses surface
(events fired, events per wall-clock second, heap peak).

The simulation tree itself is wall-clock free (prismalint PL001), so
:class:`LoopProfiler` does not read the host clock: benchmark harnesses
install one process-wide via
:attr:`LoopProfiler.default_clock` (see
``benchmarks/_harness.install_wall_clock``), or inject a clock callable
per instance; a profiler without a clock still reports the
deterministic counters with ``wall_s = 0``.

A profiler is a :class:`~repro.obs.api.Snapshot`: ``stats()`` reports
the finished profile (or a live delta view before ``__exit__``) and
``fingerprint()`` hashes only the deterministic fields (never
``wall_s``).

Example
-------
>>> from repro.machine.events import EventLoop
>>> loop = EventLoop()
>>> loop.schedule_at(1.0, lambda: None)
>>> with LoopProfiler(loop) as profiler:
...     _ = loop.run()
>>> profiler.profile.events_fired
1
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import asdict, dataclass
from typing import Any, ClassVar

from repro.machine.events import EventLoop
from repro.obs.api import fingerprint_stats

Clock = Callable[[], float]


@dataclass(slots=True, frozen=True)
class LoopProfile:
    """Counters for one profiled section of an event-loop run."""

    #: Events fired during the profiled section (cancelled skips excluded).
    events_fired: int
    #: Largest heap size the loop has ever reached (lifetime peak — the
    #: heap may have peaked before the profiled section began).
    heap_peak: int
    #: Simulated seconds the clock advanced during the section.
    sim_time_s: float
    #: Wall-clock seconds the section took (0.0 when no clock was injected).
    wall_s: float

    @property
    def events_per_sec(self) -> float:
        """Events fired per wall-clock second (0.0 without a clock)."""
        return self.events_fired / self.wall_s if self.wall_s > 0 else 0.0

    def as_dict(self) -> dict[str, float]:
        """JSON-friendly form, derived rate included."""
        data: dict[str, float] = asdict(self)
        data["events_per_sec"] = self.events_per_sec
        return data


class LoopProfiler:
    """Context manager sampling an :class:`EventLoop` around a run.

    Parameters
    ----------
    loop:
        The event loop to observe.
    clock:
        Optional wall-clock callable (e.g. ``time.perf_counter``).
        When omitted, :attr:`default_clock` applies — benchmark
        harnesses install one process-wide instead of threading the
        callable through every call site; simulation code leaves both
        unset and gets deterministic counters only.
    """

    #: Process-wide fallback clock (``None`` = no wall timing).  Only
    #: benchmark harnesses set this; library and simulation code never
    #: read the host clock.
    default_clock: ClassVar[Clock | None] = None

    def __init__(self, loop: EventLoop, clock: Clock | None = None):
        self.loop = loop
        self.clock = clock if clock is not None else type(self).default_clock
        self.profile: LoopProfile | None = None
        self._fired_at_enter = 0
        self._sim_at_enter = 0.0
        self._wall_at_enter = 0.0

    def __enter__(self) -> "LoopProfiler":
        self._fired_at_enter = self.loop.events_fired_total
        self._sim_at_enter = self.loop.now
        self._wall_at_enter = self.clock() if self.clock is not None else 0.0
        return self

    def __exit__(self, *exc_info: object) -> None:
        wall = (self.clock() - self._wall_at_enter) if self.clock is not None else 0.0
        self.profile = LoopProfile(
            events_fired=self.loop.events_fired_total - self._fired_at_enter,
            heap_peak=self.loop.heap_peak,
            sim_time_s=self.loop.now - self._sim_at_enter,
            wall_s=wall,
        )

    # -- Snapshot protocol ----------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """The finished profile, or a live delta view before ``__exit__``."""
        if self.profile is not None:
            return self.profile.as_dict()
        return LoopProfile(
            events_fired=self.loop.events_fired_total - self._fired_at_enter,
            heap_peak=self.loop.heap_peak,
            sim_time_s=self.loop.now - self._sim_at_enter,
            wall_s=0.0,
        ).as_dict()

    def fingerprint(self) -> str:
        """Digest of the deterministic counters only.

        ``wall_s`` / ``events_per_sec`` depend on the host and would
        break same-seed reproducibility, so they are excluded.
        """
        stats = self.stats()
        return fingerprint_stats(
            {key: stats[key] for key in ("events_fired", "heap_peak", "sim_time_s")}
        )
