"""Named counters and histograms behind the ``Snapshot`` protocol.

The simulator's *hot-path* counters (one increment per packet hop or
per tuple) stay where they are — slotted dataclass fields like
:class:`~repro.machine.network.NetworkStats`, retrofitted onto
:class:`~repro.obs.api.Snapshot` — because a dict lookup per hop is a
cost the event core cannot pay.  This registry is for everything else:
cold-path instruments (per query, per shuffle, per commit) that want
one uniform naming and fingerprint story.  A registry is itself
a ``Snapshot``, so it composes into an
:class:`~repro.obs.api.Observatory` like any other surface.

Histograms use fixed power-of-two-ish bucket bounds so two same-seed
runs bucket identically; no quantile estimation, no sampling.
"""

from __future__ import annotations

from typing import Any

from repro.obs.api import SnapshotMixin

__all__ = ["Counter", "Histogram", "MetricsRegistry"]

#: Default histogram bucket upper bounds (right-inclusive; +inf implied).
DEFAULT_BUCKETS = (0, 1, 4, 16, 64, 256, 1024, 4096, 16384, 65536)


class Counter(SnapshotMixin):
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def stats(self) -> dict[str, Any]:
        return {"type": "counter", "value": self.value}


class Histogram(SnapshotMixin):
    """Fixed-bucket distribution of observed values."""

    __slots__ = ("name", "bounds", "counts", "count", "total")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if tuple(bounds) != tuple(sorted(bounds)):
            raise ValueError(f"histogram bounds must be sorted: {bounds!r}")
        self.name = name
        self.bounds = tuple(bounds)
        #: counts[i] tallies observations <= bounds[i]; the final slot
        #: is the overflow bucket (> bounds[-1]).
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def stats(self) -> dict[str, Any]:
        return {
            "type": "histogram",
            "count": self.count,
            "total": self.total,
            "buckets": {
                (repr(bound) if index < len(self.bounds) else "+inf"): count
                for index, (bound, count) in enumerate(
                    zip((*self.bounds, float("inf")), self.counts)
                )
            },
        }


class MetricsRegistry(SnapshotMixin):
    """Get-or-create registry of named instruments.

    Names are flat dotted strings (``"executor.repartitions"``); asking
    for an existing name with a different instrument kind is an error —
    silent type morphing is how metrics rot.
    """

    __slots__ = ("_instruments",)

    def __init__(self) -> None:
        self._instruments: dict[str, Counter | Histogram] = {}

    def _get_or_create(self, name: str, factory, kind: type):
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = factory()
            self._instruments[name] = instrument
        elif not isinstance(instrument, kind):
            raise TypeError(
                f"metric {name!r} is a {type(instrument).__name__},"
                f" not a {kind.__name__}"
            )
        return instrument

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), Counter)

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BUCKETS
    ) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name, bounds), Histogram)

    def names(self) -> list[str]:
        return sorted(self._instruments)

    def stats(self) -> dict[str, Any]:
        return {
            name: dict(self._instruments[name].stats()) for name in self.names()
        }
