"""The ``Snapshot`` protocol — one shape for every stats surface.

Before this layer existed the repo had ad-hoc measurement surfaces
(:class:`~repro.machine.network.NetworkStats`, the executor
:class:`~repro.exec.operators.WorkMeter`, and the cache/fault counters
in :mod:`repro.exec.shuffle`, :mod:`repro.exec.compiler`, and
:mod:`repro.core.faults`), each with its own accessor and its own
fingerprint code copy-pasted into the benchmarks.  The protocol replaces
that with one contract:

* ``stats()`` — a plain mapping of counter/derived values (JSON-able);
* ``fingerprint()`` — a SHA-256 hex digest over the canonicalized
  stats, so two same-seed runs can be diffed bit-for-bit.

There is no ``reset()``: a measurement over a window is the difference
of two ``stats()`` readings, which leaves every pinned fingerprint
alone.

:class:`Observatory` composes named ``Snapshot`` sources into one
facade; ``PrismaDB.observe()`` returns one, with the machine's per-PE
counters as its ``nodes`` source.  Everything here is stdlib-only
and wall-clock free (prismalint PL001/PL006): fingerprints hash
*simulated* state, never host state.
"""

from __future__ import annotations

import hashlib
from collections.abc import Callable, Mapping
from typing import Any, Protocol, runtime_checkable

__all__ = [
    "Observatory",
    "Snapshot",
    "SnapshotMixin",
    "canonical",
    "fingerprint_stats",
]


@runtime_checkable
class Snapshot(Protocol):
    """A measurement surface: stats and a stable digest of them."""

    def stats(self) -> Mapping[str, Any]: ...

    def fingerprint(self) -> str: ...


def canonical(value: Any) -> Any:
    """A deterministic, order-independent form of *value* for hashing.

    Mappings are sorted by stringified key, sets by the repr of their
    members; sequences keep their order.  Scalars pass through, so float
    bit patterns survive (``repr`` preserves them exactly).
    """
    if isinstance(value, Mapping):
        return tuple(
            (str(key), canonical(value[key]))
            for key in sorted(value, key=str)
        )
    if isinstance(value, (list, tuple)):
        return tuple(canonical(item) for item in value)
    if isinstance(value, (set, frozenset)):
        return tuple(sorted(repr(item) for item in value))
    return value


def fingerprint_stats(stats: Mapping[str, Any]) -> str:
    """SHA-256 hex digest over the canonical form of a stats mapping."""
    payload = repr(canonical(stats)).encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class SnapshotMixin:
    """Default ``fingerprint()`` for classes that implement ``stats()``.

    ``__slots__ = ()`` so slotted dataclasses (``NetworkStats`` and
    friends) can inherit without growing a ``__dict__``.
    """

    __slots__ = ()

    def stats(self) -> Mapping[str, Any]:  # pragma: no cover - abstract
        raise NotImplementedError

    def fingerprint(self) -> str:
        return fingerprint_stats(self.stats())


class Observatory(SnapshotMixin):
    """Named composition of :class:`Snapshot` sources — the facade.

    Sources register under a name, either directly or as a zero-argument
    factory resolved on every read (so an owner may replace the object
    behind a name and the facade still finds the current one).  The
    Observatory is
    itself a ``Snapshot``: its stats are the per-source stats keyed by
    name, its fingerprint hashes the per-source fingerprints.
    """

    __slots__ = ("_sources",)

    def __init__(self) -> None:
        self._sources: dict[str, Snapshot | Callable[[], Snapshot]] = {}

    def register(
        self, name: str, source: Snapshot | Callable[[], Snapshot]
    ) -> None:
        if name in self._sources:
            raise ValueError(f"observation source {name!r} already registered")
        self._sources[name] = source

    def source(self, name: str) -> Snapshot:
        entry = self._sources[name]
        return entry() if callable(entry) else entry

    def sources(self) -> list[str]:
        return sorted(self._sources)

    def stats(self) -> dict[str, Mapping[str, Any]]:
        return {
            name: dict(self.source(name).stats()) for name in self.sources()
        }

    def fingerprint(self) -> str:
        per_source = tuple(
            (name, self.source(name).fingerprint()) for name in self.sources()
        )
        return hashlib.sha256(repr(per_source).encode("utf-8")).hexdigest()
